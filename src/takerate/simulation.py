"""Trade-level simulation of two competing constant-product pools.

The pipeline mirrors the analytical model but replays an actual trade trace:

1. assign_sticky marks the smallest trades (which profit least from routing)
   as loyal to pool 1 or pool 2 until their volume reaches the sticky rates.
   The rule works on trade sizes alone and returns one label per trade
   (0 routed, 1 or 2 loyal); labels live beside the trace, never in it.  It
   sorts the sizes to find where the loyal prefix ends, and then only the
   indices of trades no larger than its last one.
2. A replay runs a trace with its labels: loyal trades execute in their
   pool unless the outcome is badly worse than optimal routing, everything
   else is split optimally, and after every trade the profitable arbitrage
   round trip, if any, is executed.  replay_trades is the readable
   reference, composed from cpmm one trade at a time.  The search replays
   through two private kernels that inline the same math: _replay_two for
   two pools, _replay_single for one.  _replay_two reads the Trace's own
   columns beside the label list, so a labelled trace costs one 8-byte list
   slot per trade on top of its 9 bytes; _replay_single reads the labels
   only to count reroutes.  _replay_two solves no split for a
   loyal trade that cannot reroute: CPMM output is concave, so no split
   yields more than the trade times the better marginal rate, and a direct
   quote of at least (1 - threshold + 1e-9) times that bound stays, the
   1e-9 covering float rounding.  Nor does it look for an arbitrage after a
   trade split into both pools, which leaves their marginal rates equal.
   The tests hold both kernels to cpmm.
3. find_equilibrium narrows a bracket on a discrete grid of liquidity
   splits to the point where r1*(1+d) = r2, capturing full migration to
   either pool at the grid edges.  The replay outcomes it reads come from a
   cell table keyed by grid index 0..m, filled on first use: cells 1..m-1
   replay two pools, and the end cells 0 and m replay the single pool that
   holds all the liquidity.  The table is the one place a simulation is set
   up: it validates the inputs, labels the trace and sizes every cell's
   pools.
4. sweep_take_rate repeats the equilibrium search across a take-rate grid
   and reports the revenue curve.  A replay does not depend on t1, t2 or d,
   which enter only the residual (1-t1)*f*vol1/L1*(1+d) - (1-t2)*f*vol2/L2
   and rev1 = t1*vol1/V, so the sweep labels the trace once and one solve
   runs every take rate over the same table: each split is replayed at most
   once per sweep.  _solve describes the rounds in which a search fills the
   table.  On two or more cores a long round forks one child (see
   _CellTable), which never changes a result; nothing needs configuring.

Volumes are accounted in token-0 units; token-1 legs convert at the pool's
pre-trade marginal price.  A pool's fee revenue is f times its volume, so
the replays tally volumes only and _solve derives the fees.  Pools are
constructed balanced at a marginal price of 1 (reserve_a = reserve_b = L_i),
so trace amounts of either asset are size-comparable.  Everything is
deterministic given the seed.

A trace is a Trace, two flat columns of 9 bytes per trade; every entry
point takes one and reads its columns.
"""

from __future__ import annotations

import marshal
import math
import os
import random
import sys
from array import array
from bisect import bisect_right
from dataclasses import astuple, dataclass, field
from typing import BinaryIO, Iterable, Optional, Sequence

from .analytical import (
    EquilibriumResult,
    ModelParams,
    _equilibrium_shares,
    check_L_total,
    check_step,
    check_sticky_rates,
    take_rate_grid,
    unit_grid,
)
from .cpmm import MIN_PROFIT_SCALE as _MIN_PROFIT_SCALE
from .cpmm import A2B, B2A, PoolState, arbitrage, check_reserves, execute_swap, optimal_split, quote

# _replay_two skips the split of a loyal trade whose direct quote clears the
# reroute bound by this margin, relative to amt times the better marginal
# rate.  It dwarfs the few float roundings in the split's output, the marginal
# rates and the reroute test, whatever the threshold.
_SKIP_MARGIN = 1e-9

# Every reserve of a replay stays within [lo, hi]: hi is the larger of the
# two assets' combined reserves (L_total on the liquidity grid) plus the whole
# trace volume, and lo = L_min**2 / hi because no swap changes a pool's
# reserve product and the smaller product is L_min**2 (on the grid, L_min is
# the smallest pool).  The arbitrage step multiplies four reserves, so hi**4 and
# lo**4 must stay normal floats, and a trade more than 2**26 times the reserve
# it enters would leave the other reserve under half of its significand.
_MAX_RESERVE = sys.float_info.max ** 0.25
_MIN_RESERVE = sys.float_info.min ** 0.25
_MAX_TRADE_PER_RESERVE = 2.0 ** 26


class TraceScaleError(ValueError):
    """Trade sizes and pool sizes put a replay outside the float range."""


def check_trade(direction: str, amount_in: float) -> None:
    """Raise ValueError unless direction is a2b or b2a and amount_in is finite and positive."""
    if direction not in ("a2b", "b2a"):
        raise ValueError(f"unknown direction: {direction!r}")
    _checked_sum((amount_in,))


def _checked_sum(amounts: Iterable[float]) -> float:
    """Sum amounts left to right, each checked finite and positive, to a finite total.

    The loop is the sum: from Python 3.12 on, sum() rounds differently.
    """
    total, inf = 0.0, math.inf
    for amount in amounts:
        if not 0.0 < amount < inf:
            raise ValueError(f"amount_in must be finite and positive, got {amount}")
        total += amount
    if total == inf:
        raise ValueError("the amounts sum past the float range: the trace volume is not finite")
    return total


@dataclass(frozen=True, slots=True)
class Trace:
    """A trade trace held as two flat columns: 9 bytes per trade.

    a2b holds one byte per trade, 1 for a2b and 0 for b2a, and amounts holds
    each trade's amount_in, in its input asset, as a C double.  volume, the
    amounts' sum, is derived from them and takes no part in equality.
    Loyalty is not part of a trace: assign_sticky's labels travel beside it.
    """

    a2b: bytes
    amounts: array
    volume: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # other column types could compare equal and still hash apart, or not hash
        if not isinstance(self.a2b, bytes):
            raise TypeError(f"a2b must be bytes, got {type(self.a2b).__name__}")
        amounts = self.amounts
        if not (isinstance(amounts, array) and amounts.typecode == "d"):
            kind = f"array({amounts.typecode!r})" if isinstance(amounts, array) else type(amounts).__name__
            raise TypeError(f"amounts must be an array('d'), got {kind}")
        if len(self.a2b) != len(self.amounts):
            raise ValueError(f"a2b has {len(self.a2b)} entries for {len(self.amounts)} amounts")
        if self.a2b.translate(None, b"\x00\x01"):
            raise ValueError("a2b must hold 1 (a2b) or 0 (b2a) for each trade")
        object.__setattr__(self, "volume", _checked_sum(amounts))

    def __len__(self) -> int:
        return len(self.amounts)

    def __hash__(self) -> int:
        return hash((self.a2b, self.amounts.tobytes()))


@dataclass(frozen=True)
class SimOutcome:
    """Aggregates of one trace replay, all token-0 normalized.

    Both replay kernels build one per replay.  volume_i includes arbitrage
    legs (broken out again in arb_volume_i).  Pool i's fee revenue is
    f * volume_i, which _solve derives; it differs from the pools' raw
    per-asset ledgers only by the price conversion.  A single-pool replay
    leaves the missing pool's tallies at zero.
    """

    volume_1: float
    volume_2: float
    arb_count: int
    rerouted_count: int
    arb_volume_1: float
    arb_volume_2: float


@dataclass(frozen=True)
class SweepCurve:
    """Revenue and liquidity share over an ascending take-rate grid."""

    samples: tuple[EquilibriumResult, ...]

    def argmax(self) -> EquilibriumResult:
        """Sample with the highest revenue; ties go to the smaller take rate."""
        return max(self.samples, key=lambda s: s.rev1)


def assign_sticky(trace: Trace, s1: float, s2: float, seed: int = 0) -> list[int]:
    """Label the smallest trades as loyal until volume shares s1 and s2 are met.

    Returns one label per trade: 0 for routed, 1 or 2 for loyal to that pool.
    Trades are sorted ascending by size (trace order breaks ties) and the
    least prefix reaching a volume share of s1+s2 becomes sticky.  A seeded
    uniform shuffle of that prefix is then split by the same cumulative rule
    into a pool-1 part of volume share s1/(s1+s2) and a pool-2 remainder.
    Deterministic for a given seed; with s1 = 0 or s2 = 0 the seed has no
    effect.
    """
    check_sticky_rates(s1, s2)
    labels = [0] * len(trace)
    if s1 + s2 == 0.0:
        return labels

    amounts = trace.amounts
    target_all = (s1 + s2) * trace.volume
    # the prefix takes `taken` trades and ends at size `cut`; sizes alone
    # give its volume, so only the indices up to `cut` need sorting
    sticky_volume = 0.0
    taken = 0
    cut = 0.0
    for amount in sorted(amounts):
        if sticky_volume >= target_all:
            break
        cut = amount
        taken += 1
        sticky_volume += amount
    # sorted() is stable, so trace order breaks ties between equal sizes
    sticky = sorted((i for i, amount in enumerate(amounts) if amount <= cut), key=amounts.__getitem__)
    del sticky[taken:]
    random.Random(seed).shuffle(sticky)
    # with s2 = 0 all of it is pool 1's: no rounding in the shuffled running
    # sum can reach an infinite target and hand a trade to pool 2
    target_one = s1 / (s1 + s2) * sticky_volume if s2 else math.inf
    taken = 0.0
    for i in sticky:
        if taken < target_one:
            labels[i] = 1
            taken += amounts[i]
        else:
            labels[i] = 2
    return labels


def check_deviation_threshold(value: float) -> None:
    """Raise ValueError unless deviation_threshold is finite and nonnegative."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"deviation_threshold must be finite and nonnegative, got {value}")


def _replay_two(a1, b1, f1, a2, b2, f2, trace, labels, threshold):
    """Replay a Trace and its labels against two pools; the hot loop of the module.

    labels holds one label per trade, as assign_sticky returns them, and is
    the kernels' only list argument: perfbench's tracer takes it for the
    labelled trace and hashes every other argument, the Trace included, into
    a cell key.  Returns the SimOutcome and each pool's final reserves:
    (outcome, (a1, b1), (a2, b2)).  The outcome tallies volumes only; _solve
    derives the fee revenue f * volume.

    A loyal trade reroutes when the optimal split's output beats its own
    pool's direct quote by more than threshold times the split's output.
    CPMM output is concave, so no split of amt yields more than amt * m,
    where m is the better of the two pools' marginal rates g * out / in.  A
    loyal trade whose direct quote reaches (1 - threshold + _SKIP_MARGIN) *
    amt * m therefore cannot reroute: it executes in its own pool with no
    split solved.  Any other loyal trade solves the split and compares.

    After each trade it runs at most one arbitrage round trip, as
    cpmm.arbitrage does, against cpmm's profit floor: _MIN_PROFIT_SCALE
    times the pools' current token-0 reserves.  So a replay resumed from
    the reserves a shorter one returned decides as one call over both.

    A trade split into both pools (x1 > 0 and x2 > 0) leaves their marginal
    rates in its direction equal: g1 * out1 / in1 = g2 * out2 / in2 after
    the trade.  A round trip pays only while nd / dd exceeds 1, and at equal
    rates that ratio is g1**2 or g2**2, below 1 for any positive fee, so the
    loop skips the arbitrage test after such a trade.  Rounding leaves the
    rates a few ulps apart, which can tip nd over dd when the fees are 1e-12
    or less, but such a round trip gained at most about 3e-27 of the
    reserves in replays with fees from 0 to 0.05, far below the
    _MIN_PROFIT_SCALE it must clear: the skip changes no outcome.
    """
    sqrt = math.sqrt
    g1 = 1.0 - f1
    g2 = 1.0 - f2
    keep = 1.0 - threshold + _SKIP_MARGIN
    vol1 = vol2 = 0.0
    arb_vol1 = arb_vol2 = 0.0
    arb_count = rerouted = 0

    for is_a2b, amt, lab in zip(trace.a2b, trace.amounts, labels):
        if is_a2b:
            in1, out1, in2, out2 = a1, b1, a2, b2
        else:
            in1, out1, in2, out2 = b1, a1, b2, a2

        split = True
        if lab:
            if lab == 1:
                direct = out1 * g1 * amt / (in1 + g1 * amt)
            else:
                direct = out2 * g2 * amt / (in2 + g2 * amt)
            m1 = g1 * out1 / in1
            m2 = g2 * out2 / in2
            split = direct < keep * amt * (m1 if m1 > m2 else m2)
        if split:
            # Optimal two-pool split: equalize marginal rates, clamp a
            # negative allocation to zero (the active-set step for n = 2).
            shift1 = in1 / g1
            w1 = sqrt(in1 * out1 / g1)
            w2 = sqrt(in2 * out2 / g2)
            scale = (shift1 + in2 / g2 + amt) / (w1 + w2)
            x1 = w1 * scale - shift1
            if x1 <= 0.0:
                x1, x2 = 0.0, amt
            else:
                x2 = amt - x1
                if x2 < 0.0:
                    x1, x2 = amt, 0.0
            o1 = out1 * g1 * x1 / (in1 + g1 * x1) if x1 > 0.0 else 0.0
            o2 = out2 * g2 * x2 / (in2 + g2 * x2) if x2 > 0.0 else 0.0
            if lab:
                best = o1 + o2
                split = best - direct > threshold * best
                if split:
                    rerouted += 1
        if not split:
            if lab == 1:
                x1, x2, o1 = amt, 0.0, direct
            else:
                x1, x2, o2 = 0.0, amt, direct

        if is_a2b:
            if x1 > 0.0:
                a1 += g1 * x1
                b1 -= o1
                vol1 += x1
            if x2 > 0.0:
                a2 += g2 * x2
                b2 -= o2
                vol2 += x2
        else:
            if x1 > 0.0:
                vol1 += x1 * a1 / b1
                b1 += g1 * x1
                a1 -= o1
            if x2 > 0.0:
                vol2 += x2 * a2 / b2
                b2 += g2 * x2
                a2 -= o2

        if x1 > 0.0 and x2 > 0.0:
            # a split into both pools left their marginal rates equal, so no
            # round trip clears the fee band
            continue
        # Arbitrage round trip in token-0, as cpmm.arbitrage runs it: token-0
        # goes into pool i, the token-1 proceeds come back through pool j, and
        # pool 2 is tried as i first; at most one direction clears the band.
        into2 = a1 * g1 * g2 * b2 > a2 * b1
        if into2:
            ai, bi, gi, aj, bj, gj = a2, b2, g2, a1, b1, g1
        elif a2 * g1 * g2 * b1 > a1 * b2:
            ai, bi, gi, aj, bj, gj = a1, b1, g1, a2, b2, g2
        else:
            continue
        nd = aj * g1 * g2 * bi
        dd = ai * bj
        x = (sqrt(nd * dd) - dd) / (gi * (bj + gj * bi))
        mid = bi * gi * x / (ai + gi * x)
        back = aj * gj * mid / (bj + gj * mid)
        if x > 0.0 and back - x > _MIN_PROFIT_SCALE * (a1 + a2):
            vj = mid * aj / bj
            ai += gi * x
            bi -= mid
            bj += gj * mid
            aj -= back
            if into2:
                a1, b1, a2, b2, v1, v2 = aj, bj, ai, bi, vj, x
            else:
                a1, b1, a2, b2, v1, v2 = ai, bi, aj, bj, x, vj
            vol1 += v1
            arb_vol1 += v1
            vol2 += v2
            arb_vol2 += v2
            arb_count += 1

    outcome = SimOutcome(
        volume_1=vol1, volume_2=vol2, arb_count=arb_count, rerouted_count=rerouted,
        arb_volume_1=arb_vol1, arb_volume_2=arb_vol2,
    )
    return outcome, (a1, b1), (a2, b2)


def _replay_single(a, b, f, trace, labels, own_label):
    """Replay with one surviving pool, pool `own_label`: everything executes there.

    trace and labels are as for _replay_two, but no label changes where a
    trade executes, so the labels are read only to count the trades loyal
    to the missing pool as rerouted.  Returns a SimOutcome whose missing
    pool has zero tallies; nothing arbitrages against one pool.
    """
    g = 1.0 - f
    vol = 0.0
    for is_a2b, amt in zip(trace.a2b, trace.amounts):
        if is_a2b:
            out = b * g * amt / (a + g * amt)
            v = amt
            a += g * amt
            b -= out
        else:
            out = a * g * amt / (b + g * amt)
            v = amt * a / b
            b += g * amt
            a -= out
        vol += v
    vol1, vol2 = (vol, 0.0) if own_label == 1 else (0.0, vol)
    rerouted = len(labels) - labels.count(0) - labels.count(own_label)
    return SimOutcome(
        volume_1=vol1, volume_2=vol2, arb_count=0, rerouted_count=rerouted,
        arb_volume_1=0.0, arb_volume_2=0.0,
    )


def replay_trades(
    pool1: PoolState,
    pool2: PoolState,
    trace: Trace,
    labels: Sequence[int],
    deviation_threshold: float = 0.1,
) -> tuple[SimOutcome, PoolState, PoolState]:
    """Replay a trace through cpmm, one trade at a time: the reference replay.

    labels holds one label per trade, as assign_sticky returns them: 0 for
    routed, 1 or 2 for loyal to that pool.  Each trade is routed by
    cpmm.optimal_split, the convex formulation of Angeris et al., "Optimal
    Routing for Constant Function Market Makers" (arXiv:2204.05238).  A loyal
    trade executes in its own pool unless cpmm.quote there falls short of the
    split's output by more than deviation_threshold times the latter; then
    cpmm.arbitrage runs the profitable round trip, if any.  Volumes are
    token-0: a token-1 leg converts at its pool's pre-trade price.  Returns
    the outcome and the final pools, whose fee ledgers cpmm.execute_swap
    kept.  A trace out of scale with the pools raises TraceScaleError before
    any trade is replayed.

    This is the slow, readable replay.  The solve never calls it: it
    replays through the inlined kernels _replay_two and _replay_single,
    which the tests check against it.
    """
    check_deviation_threshold(deviation_threshold)
    if len(labels) != len(trace):
        raise ValueError(f"labels has {len(labels)} entries for {len(trace)} trades")
    if any(lab not in (0, 1, 2) for lab in labels):
        raise ValueError("labels must be 0 (routed), 1 or 2 (loyal to that pool)")
    check_reserves(pool1, pool2)
    p1, p2 = pool1.price, pool2.price
    # The procedure assumes a common starting price; allow the no-arbitrage
    # band's worth of slack so a replay can resume from a previous end state.
    if abs(p1 - p2) > 0.05 * max(p1, p2):
        raise ValueError(f"pools must start balanced to a common marginal price, got {p1} and {p2}")
    a1, b1, a2, b2 = pool1.reserve_a, pool1.reserve_b, pool2.reserve_a, pool2.reserve_b
    _check_scale(
        max(trace.amounts, default=0.0),
        trace.volume,
        max(a1 + a2, b1 + b2),
        math.sqrt(min(a1 * b1, a2 * b2)),
        "the pools' combined reserves",
    )

    pools = [pool1, pool2]
    volume = [0.0, 0.0]
    arb_volume = [0.0, 0.0]
    arb_count = rerouted = 0
    for is_a2b, amount_in, label in zip(trace.a2b, trace.amounts, labels):
        direction = A2B if is_a2b else B2A
        split = optimal_split(pools, amount_in, direction)
        amounts = split.amounts
        if label:
            direct = quote(pools[label - 1], amount_in, direction)
            if split.total_out - direct > deviation_threshold * split.total_out:
                rerouted += 1
            else:
                amounts = (amount_in, 0.0) if label == 1 else (0.0, amount_in)
        for i, x in enumerate(amounts):
            if x > 0.0:
                pool = pools[i]
                volume[i] += x if is_a2b else x * pool.reserve_a / pool.reserve_b
                pools[i] = execute_swap(pool, x, direction)[1]

        arb = arbitrage(*pools)
        if arb is not None:
            into, back = arb.pool_in - 1, 2 - arb.pool_in
            legs = [0.0, 0.0]
            legs[into] = arb.amount_in
            legs[back] = arb.amount_mid * pools[back].reserve_a / pools[back].reserve_b
            for i in (0, 1):
                volume[i] += legs[i]
                arb_volume[i] += legs[i]
            arb_count += 1
            pools = [arb.pool1, arb.pool2]

    outcome = SimOutcome(
        volume_1=volume[0], volume_2=volume[1], arb_count=arb_count, rerouted_count=rerouted,
        arb_volume_1=arb_volume[0], arb_volume_2=arb_volume[1],
    )
    return outcome, pools[0], pools[1]


class _CellTable:
    """One simulation's set-up and its replay outcomes, filled by liquidity split.

    The table validates the inputs, refuses an empty trace and one out of
    scale with L_total, labels the trace once with assign_sticky and sizes
    every cell's pools: sizes[i] = (L1, L2), pool 1 holding shares[i] of
    L_total.  A replay depends on the split, the fee, L_total, the threshold
    and the labels, but not on t1, t2 or d, so one table serves every take
    rate of a sweep.  Cells are keyed by grid index i in 0..m.  Cells 1..m-1
    replay both pools through the module-level _replay_two; cell 0 (all
    liquidity in pool 2) and cell m (all in pool 1) replay the surviving
    pool through _replay_single.  The table holds the caller's trace, not a
    copy, and its labels, one 8-byte list slot per trade: every replay reads
    the two side by side.  _solve chooses the cells each fill asks for.

    A fill forks one child of this process if the cells lent to it times
    the trace length reach _FORK_MIN_WORK trade replays, os.fork exists, two
    cores are usable and no other thread runs.  The child inherits the
    labelled trace, replays every second missing cell and writes the
    outcomes back, while this process replays the others; fill reaps the
    child before it returns or raises.  If the fork fails or the child dies
    or replies badly, this process replays the child's cells too: the
    outcomes are the same either way, and nothing carries over to the next
    fill.
    """

    def __init__(
        self,
        params: ModelParams,
        trace: Trace,
        L_total: float,
        liquidity_step: float,
        seed: int,
        deviation_threshold: float,
    ) -> None:
        """Validate the inputs and the trace's scale, then label."""
        check_L_total(L_total)
        check_step("liquidity_step", liquidity_step)
        check_deviation_threshold(deviation_threshold)
        if params.f <= 0.0:
            raise ValueError(f"f must be positive to simulate, got {params.f}")
        if not trace:
            raise ValueError("the trace contains no trades; nothing to simulate")
        self.shares = unit_grid(liquidity_step)
        self.m = len(self.shares) - 1
        # (L1, L2), each pool's liquidity in each cell
        self.sizes = [(s * L_total, (1.0 - s) * L_total) for s in self.shares]
        self.f = params.f
        self.threshold = deviation_threshold
        # the smallest pool: pool 1 at cell 1 or pool 2 at cell m-1
        L_min = min(self.sizes[1][0], self.sizes[-2][1])
        _check_scale(max(trace.amounts), trace.volume, L_total, L_min, "L_total")
        self.replays = 0  # replays run, here or in a child
        self.cells: dict[int, SimOutcome] = {}  # by index; only fill writes it
        self.trace = trace
        self.labels = assign_sticky(trace, params.s1, params.s2, seed)

    def fill(self, indices: Iterable[int]) -> None:
        """Replay every cell of indices that self.cells does not hold yet.

        With a child forked, every second missing cell in index order goes to
        the child while this process replays the others, so which replays run
        here depends on the request alone.
        """
        missing = sorted(set(indices).difference(self.cells))
        lent = missing[1::2]
        child = self._fork(lent) if len(lent) * len(self.labels) >= _FORK_MIN_WORK else None
        if child is None:
            for i in missing:
                self.cells[i] = self._replay(i)
            return
        pid, replies = child
        try:
            for i in missing[0::2]:
                self.cells[i] = self._replay(i)
            outcomes = self._receive(replies, len(lent))
        finally:
            import signal  # only a run that forks needs it

            replies.close()
            # kill the child if it still runs, and reap it; with SIGCHLD
            # ignored, the system may have reaped it already
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        self.cells.update(zip(lent, outcomes or [self._replay(i) for i in lent]))

    def _replay(self, i: int) -> SimOutcome:
        self.replays += 1
        L1, L2 = self.sizes[i]
        if i == 0:
            return _replay_single(L2, L2, self.f, self.trace, self.labels, own_label=2)
        if i == self.m:
            return _replay_single(L1, L1, self.f, self.trace, self.labels, own_label=1)
        return _replay_two(
            L1, L1, self.f, L2, L2, self.f, self.trace, self.labels, self.threshold
        )[0]

    def _fork(self, lent: list[int]) -> Optional[tuple[int, BinaryIO]]:
        """Fork a child that replays the cells lent: its pid and reply pipe, or None.

        The reply is one marshal list of SimOutcome field tuples, one per
        cell, which is exact for floats.
        """
        import threading  # a fork beside another thread can deadlock the child

        if not hasattr(os, "fork") or _usable_cores() < 2 or threading.active_count() > 1:
            return None
        fds: list[int] = []
        try:
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return None
        replies_r, replies_w = fds
        if pid == 0:
            # the child: never return into the caller's stack or flush its
            # buffers; any error ends in an EOF for the parent
            try:
                os.close(replies_r)
                with open(replies_w, "wb") as replies:
                    marshal.dump([astuple(self._replay(i)) for i in lent], replies)
            finally:
                os._exit(0)
        os.close(replies_w)
        return pid, open(replies_r, "rb")

    def _receive(self, replies: BinaryIO, count: int) -> Optional[list[SimOutcome]]:
        """The child's count outcomes, or None on EOF, OSError or a bad reply."""
        try:
            reply = marshal.load(replies)
            if len(reply) == count:
                outcomes = [SimOutcome(*values) for values in reply]
                self.replays += count
                return outcomes
        except (EOFError, OSError, TypeError, ValueError):
            pass
        return None


# A round forks only when the cells lent to the child times the trace length
# reach this many trade replays.  On a 2-core Xeon, rounds of two new cells
# (medians of 25 alternating repetitions) took, forked against serial: 4.4
# against 3.9 ms at 2,500 trades, 5.1-5.5 against 5.3-5.6 ms at 3,000 (two
# runs), 5.7-6.8 against 7.0-7.8 ms at 4,000, 8.2 against 11.8 ms at 6,000
# and 12.3 against 18.2 ms at 10,000.  Rounds of four cells at 2,000 trades,
# also 4,000 lent replays, took 6.1-6.9 against 7.9-8.1 ms.
_FORK_MIN_WORK = 4_000


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _check_scale(largest: float, volume: float, reserves: float, L_min: float, name: str) -> None:
    """Raise TraceScaleError unless a replay stays in range (see _MAX_RESERVE)."""
    hi = reserves + volume
    if hi < _MAX_RESERVE:
        lo = L_min * (L_min / hi)
        if lo > _MIN_RESERVE and largest <= _MAX_TRADE_PER_RESERVE * lo:
            return
    raise TraceScaleError(
        f"trades up to {largest:.6g} (volume {volume:.6g}) are out of scale "
        f"with {name} = {reserves:.6g}: against pools as small as "
        f"{L_min:.6g} the replay would leave the float range"
    )


def _solve(
    params: ModelParams, t1s: Sequence[float], table: _CellTable
) -> list[EquilibriumResult]:
    """The equilibrium at every take rate in t1s over one table; params.t1 is ignored.

    Each take rate holds one bracket (lo, hi) of cell indices, and each round
    fills its new cells with one call to table.fill, so the table can replay
    them side by side.  The first round fills, for each take rate, the two
    cells c and c+1 around the share l1 the closed form gives
    (analytical._equilibrium_shares), shares[c] <= l1 < shares[c+1], clamped
    to 1..m-1; where every split is a closed-form equilibrium it fills cells
    1 and m-1.  On a market the closed form describes, those two cells
    usually hold the simulated crossing, so the walk below closes the
    bracket on them and a lone search ends after one or two rounds.  The
    closed form only chooses which cells are read first: the walk, the
    probes and the final rule are the same whatever it predicts.  Every
    bracket starts at (0, m), 0 and m being ends not read yet, the residual
    falling with the share.  Each round, every open bracket first walks the
    filled cells strictly inside it in ascending order: a positive residual,
    or a zero at cell 1, moves lo, and the first other one becomes hi and
    ends the walk.  A walk that reaches an edge closes the bracket there: on
    (0, 0) if res(1) < 0 and on (m, m) if res(m-1) > 0, so an edge cell is
    read only once a bracket reaches it.  Then each bracket still wider than
    one cell reads the two cells beside the crossing of its residual with
    both pools' volumes taken linear between two filled cells (see probe), a
    new cell inside every open bracket, and each closed one reads its cell;
    the loop ends when a round finds nothing new.  The result is the end of
    the final (lo, lo+1) with the smaller |residual|, ties within 1e-12 going
    to the larger share, or a closed bracket's cell.  Where the residual
    changes sign once, that does not depend on which cells were read; where
    it changes sign more than once, the search stops at one crossing, an
    edge cell or a pair of neighbours whose residuals change sign, usually
    the one nearest the closed form's share.  rois is where a replay's
    volumes become fees: pool i earns f * volume_i, so
    r_i = (1-t_i) * f * volume_i / L_i, L_i from table.sizes, None for an
    empty pool.  Each take rate's EquilibriumResult is built once, after the
    loop, with rev1 = t1 * volume_1 / V, V the trace volume.
    """
    f = table.f
    shares = table.shares
    one_minus_t2 = 1.0 - params.t2
    one_plus_d = 1.0 + params.d

    def rois(t1: float, i: int) -> tuple[Optional[float], Optional[float]]:
        o = table.cells[i]
        L1, L2 = table.sizes[i]
        return (
            (1.0 - t1) * (f * o.volume_1) / L1 if L1 > 0.0 else None,
            one_minus_t2 * (f * o.volume_2) / L2 if L2 > 0.0 else None,
        )

    def residual(t1: float, i: int) -> float:
        r1, r2 = rois(t1, i)
        return r1 * one_plus_d - r2

    def probe(t1: float, lo: int, hi: int) -> set[int]:
        """The cells strictly inside (lo, hi) beside the predicted crossing.

        Both pools' volumes are taken as linear in the share through two
        filled cells left < right: the bracket's ends, or where an end 0 or
        m is not read yet, the other end and the nearest filled interior
        cell beyond it.  At the share l = x + w*u, x = shares[left],
        w = shares[right] - x, g(u) = (1-t1)(1+d)*v1*(1-l) - (1-t2)*v2*l has
        the residual's sign and is the quadratic c0 + c1*u + c2*u**2.  Its
        first root whose share lies in the bracket, an end not read bounding
        nothing (u in [0, 1] between two read ends), lies between cells c and
        c+1, c clamped into the bracket; without one, or without a second
        filled cell, the midpoint is read.
        """
        if lo == 0:
            left, right = hi, next((i for i in range(hi + 1, m) if i in table.cells), None)
        elif hi == m:
            left, right = next((i for i in range(lo - 1, 0, -1) if i in table.cells), None), lo
        else:
            left, right = lo, hi
        if left is None or right is None:
            return {(lo + hi) // 2}
        start, end = table.cells[left], table.cells[right]
        x, w = shares[left], shares[right] - shares[left]
        lower = (shares[lo] - x) / w if lo > 0 else -math.inf
        upper = (shares[hi] - x) / w if hi < m else math.inf
        a, b = (1.0 - t1) * one_plus_d, one_minus_t2
        v1, dv1 = start.volume_1, end.volume_1 - start.volume_1
        v2, dv2 = start.volume_2, end.volume_2 - start.volume_2
        c0 = a * v1 * (1.0 - x) - b * v2 * x
        c1 = a * (dv1 * (1.0 - x) - v1 * w) - b * (dv2 * x + v2 * w)
        c2 = -w * (a * dv1 + b * dv2)
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc >= 0.0:
            # both roots without cancellation; q is 0 only where c0 is
            q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
            for u in (c0 / q if q else 0.0, q / c2 if c2 else math.nan):
                if lower <= u <= upper:
                    c = max(bisect_right(shares, x + w * u, lo, hi) - 1, lo)
                    return {c, c + 1} - {lo, hi}
        return {(lo + hi) // 2}

    m = table.m
    first = set()
    for l1 in _equilibrium_shares(t1s, params.t2, params.s1, params.s2, params.d):
        if l1 is None:  # every split is an equilibrium: read the cells next to both ends
            first.update((1, m - 1))
        else:
            c = bisect_right(shares, l1) - 1
            first.update(min(max(i, 1), m - 1) for i in (c, c + 1))
    table.fill(first)
    # 0 and m are ends not read yet: an edge cell is read only once a bracket reaches it
    brackets = [(0, m)] * len(t1s)
    while True:
        # res decreases with the share: an open bracket keeps res(lo) >= 0 >= res(hi) at read ends
        new_cells = set()
        for k, (lo, hi) in enumerate(brackets):
            t1 = t1s[k]
            for i in range(lo + 1, hi):
                if i in table.cells:
                    res = residual(t1, i)
                    # a zero at cell 1 is a lower end, so the final rule weighs cells 1 and 2
                    if res > 0.0 or res == 0.0 and i == 1:
                        lo = i
                    else:
                        hi = i
                        break
            if hi - lo == 1 and (lo == 0 or hi == m):
                # the walk reached an edge: res(1) < 0 closes on cell 0 and
                # res(m-1) > 0 on cell m; with m = 2, a zero at cell 1 on cell 1
                lo = hi = 0 if lo == 0 else m if residual(t1, lo) > 0.0 else lo
            brackets[k] = lo, hi
            # a closed bracket (i, i) needs cell i; a one-cell bracket's ends are filled
            new_cells |= probe(t1, lo, hi) if hi - lo > 1 else {lo, hi}
        new_cells.difference_update(table.cells)
        if not new_cells:
            break
        table.fill(new_cells)

    results = []
    for t1, (lo, hi) in zip(t1s, brackets):
        # ties within 1e-12 go to the larger share
        i = lo if lo < hi and abs(residual(t1, hi)) > abs(residual(t1, lo)) + 1e-12 else hi
        o = table.cells[i]
        r1, r2 = rois(t1, i)
        results.append(EquilibriumResult(
            t1=t1, l1=shares[i], v1=o.volume_1 - o.arb_volume_1, v2=o.volume_2 - o.arb_volume_2,
            r1=r1, r2=r2, rev1=t1 * o.volume_1 / table.trace.volume,
        ))
    return results


def find_equilibrium(
    params: ModelParams,
    trace: Trace,
    L_total: float,
    liquidity_step: float = 0.005,
    *,
    seed: int = 0,
    deviation_threshold: float = 0.1,
) -> EquilibriumResult:
    """Liquidity split where replayed LP returns satisfy r1*(1+d) = r2.

    Sticky labels are assigned from params.s1/params.s2 with the given seed,
    then the trace is replayed for liquidity shares on the grid {step, ...,
    1-step}.  Of the two neighbouring cells where r1*(1+d) - r2 changes sign,
    the one with the smaller |r1*(1+d) - r2| is returned, ties within 1e-12
    going to the larger share.  If pool 1 is still the better deal at 1-step
    the result is l1 = 1 (full migration, a single-pool replay with
    r2 = None), and symmetrically l1 = 0 with r1 = None.  Where the residual
    changes sign more than once, the result is one of its crossings.  The
    cell table validates the inputs and refuses an empty trace (ValueError)
    or one out of scale with L_total (TraceScaleError).  _solve describes
    which cells the search reads; forking (see _CellTable) never changes the
    result.
    """
    table = _CellTable(params, trace, L_total, liquidity_step, seed, deviation_threshold)
    return _solve(params, (params.t1,), table)[0]


def sweep_take_rate(
    params: ModelParams,
    trace: Trace,
    L_total: float,
    take_step: float = 0.01,
    liquidity_step: float = 0.005,
    *,
    seed: int = 0,
    deviation_threshold: float = 0.1,
) -> SweepCurve:
    """Equilibrium and revenue for every take rate on a grid over [0, 1].

    params.t1 is ignored; each grid value is substituted in turn.  Revenue is
    normalized as t1 * volume_1 / V with V the total trace volume, which is
    t1 times pool 1's fees f * volume_1 over V * f.  The trace is labelled
    once and one solve runs every take rate over the same cell table, so
    each sample equals find_equilibrium at that take rate and seed wherever
    the residual changes sign once; where it changes sign more than once,
    either returns one of the crossings.  Inputs are checked as for
    find_equilibrium, and take_step too.  _solve describes the search;
    forking never changes the result.
    """
    grid = take_rate_grid(take_step)
    table = _CellTable(params, trace, L_total, liquidity_step, seed, deviation_threshold)
    return SweepCurve(samples=tuple(_solve(params, grid, table)))
