"""The tests' one Trace builder, for traces written out trade by trade."""

from array import array

from takerate.simulation import Trace


def trace_of(*trades):
    """The Trace of (direction, amount_in) pairs, in order."""
    return Trace(
        bytes(("b2a", "a2b").index(direction) for direction, _ in trades),
        array("d", [amount for _, amount in trades]),
    )
