"""Trade-level simulation of two competing constant-product pools.

The pipeline mirrors the analytical model but replays an actual trade trace:

1. assign_sticky marks the smallest trades (which profit least from routing)
   as loyal to pool 1 or pool 2 until their volume reaches the sticky rates.
   The rule works on trade sizes alone and returns one label per trade
   (0 routed, 1 or 2 loyal); labels live beside the trace, never in it.
2. A replay runs a trace with its labels: loyal trades execute in their
   pool unless the outcome is badly worse than optimal routing, everything
   else is split optimally, and after every trade the profitable arbitrage
   round trip, if any, is executed.  replay_trades is the readable
   reference, composed from cpmm one trade at a time.  The search replays
   through two private kernels that inline the same math: _replay_two for
   two pools, _replay_single for one.  _replay_two solves no split for a
   loyal trade that cannot reroute: CPMM output is concave, so no split
   yields more than the trade times the better marginal rate, and a direct
   quote of at least (1 - threshold + 1e-9) times that bound stays, the
   1e-9 covering float rounding.  The tests hold both kernels to cpmm.
3. find_equilibrium scans a discrete grid of liquidity splits for the point
   where r1*(1+d) = r2, capturing full migration to either pool at the grid
   edges.  The replay outcomes it reads come from a cell table keyed by grid
   index 0..m, filled on first use: cells 1..m-1 replay two pools, and the
   end cells 0 and m replay the single pool that holds all the liquidity.
4. sweep_take_rate repeats the equilibrium search across a take-rate grid
   and reports the revenue curve.  A replay does not depend on t1, t2 or d,
   which enter only the residual (1-t1)*f*vol1/L1*(1+d) - (1-t2)*f*vol2/L2
   and rev1 = t1*vol1/V, so the sweep labels the trace once and every take
   rate searches the same table: each split is replayed at most once per
   sweep.  The searches advance in lockstep, one round of cell requests at a time, and
   on a machine with two or more usable cores a long sweep forks one child
   per round, which replays every second new cell of that round and is
   reaped before the round ends.  Without os.fork or the cores, while
   another thread runs, on a short trace, or if a child fails, every cell
   replays in this process; the curve is the same.  Nothing needs
   configuring.

Volumes are accounted in token-0 units; token-1 legs convert at the pool's
pre-trade marginal price.  A pool's fee revenue is f times its volume, so
the replays tally volumes only and _search derives the fees.  Pools are
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
from dataclasses import astuple, dataclass, replace
from typing import BinaryIO, Generator, Iterable, Optional, Sequence

from .analytical import (
    EquilibriumResult,
    ModelParams,
    check_L_total,
    check_step,
    check_sticky_rates,
    take_rate_grid,
    unit_grid,
)
from .cpmm import A2B, B2A, PoolState, arbitrage, execute_swap, optimal_split, quote

# Arbitrage in the replay executes only when it clears this fraction of the
# combined token-0 reserves, which keeps float-noise round trips out.
_MIN_PROFIT_SCALE = 1e-12

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
    if not (amount_in > 0.0 and math.isfinite(amount_in)):
        raise ValueError(f"amount_in must be finite and positive, got {amount_in}")


@dataclass(frozen=True, slots=True)
class Trace:
    """A trade trace held as two flat columns: 9 bytes per trade.

    a2b holds one byte per trade, 1 for a2b and 0 for b2a, and amounts holds
    each trade's amount_in, in its input asset, as a C double.  Loyalty is
    not part of a trace: assign_sticky's labels travel beside it.
    """

    a2b: bytes
    amounts: array

    def __post_init__(self) -> None:
        if len(self.a2b) != len(self.amounts):
            raise ValueError(f"a2b has {len(self.a2b)} entries for {len(self.amounts)} amounts")
        if self.a2b.translate(None, b"\x00\x01"):
            raise ValueError("a2b must hold 1 (a2b) or 0 (b2a) for each trade")
        for is_a2b, amount in zip(self.a2b, self.amounts):
            check_trade("a2b" if is_a2b else "b2a", amount)

    def __len__(self) -> int:
        return len(self.amounts)

    @classmethod
    def _of_checked(cls, a2b: bytes, amounts: array) -> Trace:
        """A Trace of equal-length columns whose every trade has passed check_trade.

        It skips __post_init__, which would check each trade a second time.
        """
        trace = object.__new__(cls)
        object.__setattr__(trace, "a2b", a2b)
        object.__setattr__(trace, "amounts", amounts)
        return trace


def _volume(amounts: array) -> float:
    """The trace volume, summed left to right: from Python 3.12 on, sum() rounds differently."""
    total = 0.0
    for amount in amounts:
        total += amount
    return total


@dataclass(frozen=True)
class SimOutcome:
    """Aggregates of one trace replay, all token-0 normalized.

    Both replay kernels build one per replay.  volume_i includes arbitrage
    legs (broken out again in arb_volume_i).  Pool i's fee revenue is
    f * volume_i, which _search derives; it differs from the pools' raw
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
        best = self.samples[0]
        for s in self.samples[1:]:
            if s.rev1 > best.rev1:
                best = s
        return best


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
    if not trace:
        raise ValueError("trace must not be empty")
    check_sticky_rates(s1, s2)
    labels = [0] * len(trace)
    if s1 + s2 == 0.0:
        return labels

    amounts = trace.amounts
    total = _volume(amounts)
    # sorted() is stable, so trace order breaks ties between equal sizes
    by_size = sorted(range(len(amounts)), key=amounts.__getitem__)
    target_all = (s1 + s2) * total
    sticky: list[int] = []
    sticky_volume = 0.0
    for i in by_size:
        if sticky_volume >= target_all:
            break
        sticky.append(i)
        sticky_volume += amounts[i]
    if s2 == 0.0:
        # all of it is pool 1's: no draw, so the seed has no effect, and no
        # rounding in a shuffled running sum can hand a trade to pool 2
        for i in sticky:
            labels[i] = 1
        return labels

    shuffled = sticky[:]
    random.Random(seed).shuffle(shuffled)
    target_one = s1 / (s1 + s2) * sticky_volume
    taken = 0.0
    for i in shuffled:
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


def _compile(trace: Trace, labels: Sequence[int]) -> list[tuple[bool, float, int]]:
    """Pack a trace and its labels into (is_a2b, amount, label) replay tuples.

    is_a2b is a bool, not the column's byte: _replay_two tests it twice per
    trade and _replay_single once, and the interpreter tests True and False
    fastest.  The list is the kernels' only list argument, which is how
    perfbench's tracer tells the trace from the cell's other arguments.
    """
    return list(zip(map(bool, trace.a2b), trace.amounts, labels))


def _replay_two(a1, b1, f1, a2, b2, f2, compiled, threshold):
    """Replay a compiled trace against two pools; the hot loop of the module.

    Returns the SimOutcome and each pool's final reserves: (outcome,
    (a1, b1), (a2, b2)).  The outcome tallies volumes only; _search derives
    the fee revenue f * volume.

    A loyal trade reroutes when the optimal split's output beats its own
    pool's direct quote by more than threshold times the split's output.
    CPMM output is concave, so no split of amt yields more than amt * m,
    where m is the better of the two pools' marginal rates g * out / in.  A
    loyal trade whose direct quote reaches (1 - threshold + _SKIP_MARGIN) *
    amt * m therefore cannot reroute: it executes in its own pool with no
    split solved.  Any other loyal trade solves the split and compares.
    """
    sqrt = math.sqrt
    g1 = 1.0 - f1
    g2 = 1.0 - f2
    keep = 1.0 - threshold + _SKIP_MARGIN
    vol1 = vol2 = 0.0
    arb_vol1 = arb_vol2 = 0.0
    arb_count = rerouted = 0
    min_profit = _MIN_PROFIT_SCALE * (a1 + a2)

    for is_a2b, amt, lab in compiled:
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
        if split:
            y1, y2 = x1, x2
        elif lab == 1:
            y1, y2, o1 = amt, 0.0, direct
        else:
            y1, y2, o2 = 0.0, amt, direct

        if is_a2b:
            if y1 > 0.0:
                a1 += g1 * y1
                b1 -= o1
                vol1 += y1
            if y2 > 0.0:
                a2 += g2 * y2
                b2 -= o2
                vol2 += y2
        else:
            if y1 > 0.0:
                vol1 += y1 * a1 / b1
                b1 += g1 * y1
                a1 -= o1
            if y2 > 0.0:
                vol2 += y2 * a2 / b2
                b2 += g2 * y2
                a2 -= o2

        # Arbitrage round trip in token-0; at most one direction can clear
        # the fee band.
        nd = a1 * g1 * g2 * b2
        dd = a2 * b1
        if nd > dd:
            # token-0 into pool 2, token-1 proceeds back through pool 1
            x = (sqrt(nd * dd) - dd) / (g2 * (b1 + g1 * b2))
            if x > 0.0:
                mid = b2 * g2 * x / (a2 + g2 * x)
                back = a1 * g1 * mid / (b1 + g1 * mid)
                if back - x > min_profit:
                    v2_ = x
                    v1_ = mid * a1 / b1
                    a2 += g2 * x
                    b2 -= mid
                    b1 += g1 * mid
                    a1 -= back
                    vol2 += v2_
                    arb_vol2 += v2_
                    vol1 += v1_
                    arb_vol1 += v1_
                    arb_count += 1
        else:
            nd = a2 * g1 * g2 * b1
            dd = a1 * b2
            if nd > dd:
                # token-0 into pool 1, token-1 proceeds back through pool 2
                x = (sqrt(nd * dd) - dd) / (g1 * (b2 + g2 * b1))
                if x > 0.0:
                    mid = b1 * g1 * x / (a1 + g1 * x)
                    back = a2 * g2 * mid / (b2 + g2 * mid)
                    if back - x > min_profit:
                        v1_ = x
                        v2_ = mid * a2 / b2
                        a1 += g1 * x
                        b1 -= mid
                        b2 += g2 * mid
                        a2 -= back
                        vol1 += v1_
                        arb_vol1 += v1_
                        vol2 += v2_
                        arb_vol2 += v2_
                        arb_count += 1

    outcome = SimOutcome(
        volume_1=vol1, volume_2=vol2, arb_count=arb_count, rerouted_count=rerouted,
        arb_volume_1=arb_vol1, arb_volume_2=arb_vol2,
    )
    return outcome, (a1, b1), (a2, b2)


def _replay_single(a, b, f, compiled, own_label):
    """Replay with one surviving pool, pool `own_label`: everything executes there.

    Trades loyal to the missing pool count as rerouted.  Returns a SimOutcome
    whose missing pool has zero tallies; nothing arbitrages against one pool.
    """
    g = 1.0 - f
    vol = 0.0
    rerouted = 0
    for is_a2b, amt, lab in compiled:
        if lab != 0 and lab != own_label:
            rerouted += 1
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

    This is the slow, readable replay.  The search never calls it: it
    replays through the inlined kernels _replay_two and _replay_single,
    which the tests check against it.
    """
    check_deviation_threshold(deviation_threshold)
    if len(labels) != len(trace):
        raise ValueError(f"labels has {len(labels)} entries for {len(trace)} trades")
    if any(lab not in (0, 1, 2) for lab in labels):
        raise ValueError("labels must be 0 (routed), 1 or 2 (loyal to that pool)")
    for p in (pool1, pool2):
        if p.reserve_a <= 0.0 or p.reserve_b <= 0.0:
            raise ValueError("both pools must have positive reserves")
    p1, p2 = pool1.price, pool2.price
    # The procedure assumes a common starting price; allow the no-arbitrage
    # band's worth of slack so a replay can resume from a previous end state.
    if abs(p1 - p2) > 0.05 * max(p1, p2):
        raise ValueError("pools must start balanced to a common marginal price")
    a1, b1, a2, b2 = pool1.reserve_a, pool1.reserve_b, pool2.reserve_a, pool2.reserve_b
    _check_scale(
        max(trace.amounts, default=0.0),
        _volume(trace.amounts),
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
    """Replay outcomes of one labelled trace, filled by liquidity split.

    A replay depends on the split, the fee, L_total, the threshold and the
    labels, but not on t1, t2 or d, so one table serves every take rate of a
    sweep.  Cells are keyed by grid index i in 0..m, pool 1 holding shares[i]
    of L_total.  Cells 1..m-1 replay both pools through the module-level
    _replay_two; cell 0 (all liquidity in pool 2) and cell m (all in pool 1)
    replay the surviving pool through _replay_single.

    A round of three or more missing cells forks one child of this process
    if os.fork exists, two cores are usable, no other thread runs and the
    trace is long enough (see _FORK_MIN_WORK).  The child inherits the
    labelled trace, replays every second missing cell and writes the
    outcomes back, while this process replays the others; fill reaps the
    child before it returns or raises.  A lone search asks for two cells at
    most, so it never forks.  If the fork fails or the child dies or replies
    badly, this process replays the child's cells too: the outcomes are the
    same either way, and nothing carries over to the next round.
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
            raise ValueError("the simulation needs a positive trading fee to compare ROIs")
        self.shares = unit_grid(liquidity_step)
        self.m = len(self.shares) - 1
        self.L_total = L_total
        self.f = params.f
        self.threshold = deviation_threshold
        self.total_volume = _volume(trace.amounts)
        # the smallest pool: pool 1 at cell 1 or pool 2 at cell m-1
        L_min = min(self.shares[1], 1.0 - self.shares[-2]) * L_total
        largest = max(trace.amounts, default=0.0)
        _check_scale(largest, self.total_volume, L_total, L_min, "L_total")
        self.replays = 0  # replays run, here or in a child
        self._cells: dict[int, SimOutcome] = {}
        self.compiled = _compile(trace, assign_sticky(trace, params.s1, params.s2, seed))

    def cell(self, i: int) -> SimOutcome:
        """The replay outcome at index i, replayed on first use."""
        self.fill((i,))
        return self._cells[i]

    def fill(self, indices: Iterable[int]) -> None:
        """Replay every cell of indices that the table does not hold yet.

        With a child forked, every second missing cell in index order goes to
        the child while this process replays the others, so which replays run
        here depends on the request alone.
        """
        missing = sorted(set(indices).difference(self._cells))
        lent = missing[1::2]
        child = self._fork(lent) if len(missing) >= 3 else None
        if child is None:
            for i in missing:
                self._cells[i] = self._replay(i)
            return
        pid, replies = child
        try:
            for i in missing[0::2]:
                self._cells[i] = self._replay(i)
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
        self._cells.update(zip(lent, outcomes or [self._replay(i) for i in lent]))

    def _replay(self, i: int) -> SimOutcome:
        self.replays += 1
        if i == 0 or i == self.m:
            return _replay_single(
                self.L_total, self.L_total, self.f, self.compiled, own_label=1 if i == self.m else 2
            )
        L1 = self.shares[i] * self.L_total
        L2 = (1.0 - self.shares[i]) * self.L_total
        return _replay_two(L1, L1, self.f, L2, L2, self.f, self.compiled, self.threshold)[0]

    def _fork(self, lent: list[int]) -> Optional[tuple[int, BinaryIO]]:
        """Fork a child that replays the cells lent: its pid and reply pipe, or None.

        The reply is one marshal list of SimOutcome field tuples, one per
        cell, which is exact for floats.
        """
        import threading  # a fork beside another thread can deadlock the child

        if (
            len(self.compiled) * (self.m + 1) < _FORK_MIN_WORK
            or not hasattr(os, "fork")
            or _usable_cores() < 2
            or threading.active_count() > 1
        ):
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


# A sweep round forks only when the trace length times the grid's m + 1 cells
# reaches this many trade replays.  On a 2-core Xeon, sweeps of 101 take rates
# over 201 cells, forking per round, ran a median 42-44% faster than serial at
# 2,500 and 5,000 trades (7-11 alternating repetitions, three runs); at 1,250
# trades the median moved from -9% to +39% between runs, and at 625 trades
# forking was 17% slower.
_FORK_MIN_WORK = 500_000


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


def _search(
    params: ModelParams, table: _CellTable
) -> Generator[tuple[int, ...], None, EquilibriumResult]:
    """The equilibrium search of find_equilibrium over one cell table.

    A generator: before each read it yields the cell indices it reads next,
    (1, m-1) first, then (m,), (0,) or one bisection midpoint at a time, and
    it returns the EquilibriumResult.  _solve fills the cells it asks for.
    Its converter, cell, is where a replay's volumes become fees: pool i
    earns f * volume_i, so r_i = (1-t_i) * f * volume_i / L_i and
    rev1 = t1 * volume_1 / V with V the trace volume.
    """
    L_total = table.L_total
    f = table.f
    one_minus_t1 = 1.0 - params.t1
    one_minus_t2 = 1.0 - params.t2
    one_plus_d = 1.0 + params.d

    def cell(i: int) -> EquilibriumResult:
        o = table.cell(i)
        l1 = table.shares[i]
        L1 = l1 * L_total
        L2 = (1.0 - l1) * L_total
        return EquilibriumResult(
            t1=params.t1,
            l1=l1,
            v1=o.volume_1 - o.arb_volume_1,
            v2=o.volume_2 - o.arb_volume_2,
            r1=one_minus_t1 * (f * o.volume_1) / L1 if L1 > 0.0 else None,
            r2=one_minus_t2 * (f * o.volume_2) / L2 if L2 > 0.0 else None,
            rev1=params.t1 * o.volume_1 / table.total_volume,
        )

    def interior(i: int) -> tuple[float, EquilibriumResult]:
        result = cell(i)
        return result.r1 * one_plus_d - result.r2, result

    m = table.m
    low_i, high_i = 1, m - 1
    yield low_i, high_i
    evaluated = {low_i: interior(low_i), high_i: interior(high_i)}
    if evaluated[high_i][0] > 0.0:
        yield (m,)
        return cell(m)
    if evaluated[low_i][0] < 0.0:
        yield (0,)
        return cell(0)

    # res decreases with the share: maintain res(low) >= 0 >= res(high)
    while high_i - low_i > 1:
        mid = (low_i + high_i) // 2
        yield (mid,)
        evaluated[mid] = interior(mid)
        if evaluated[mid][0] > 0.0:
            low_i = mid
        else:
            high_i = mid

    # ties within 1e-12 go to the larger share
    best_abs = min(abs(res) for res, _ in evaluated.values())
    best_i = max(i for i, (res, _) in evaluated.items() if abs(res) <= best_abs + 1e-12)
    return evaluated[best_i][1]


def _solve(searches: list, table: _CellTable) -> list[EquilibriumResult]:
    """Run searches over one table in lockstep and return their results.

    Each round fills the union of the cells the unfinished searches ask for,
    so the table can replay a round's cells side by side, then resumes every
    search.  A search reads the same cells as it would alone.
    """
    results: dict[int, EquilibriumResult] = {}
    requests = {k: next(search) for k, search in enumerate(searches)}
    while requests:
        table.fill(set().union(*requests.values()))
        for k in list(requests):
            try:
                requests[k] = next(searches[k])
            except StopIteration as done:
                results[k] = done.value
                del requests[k]
    return [results[k] for k in range(len(searches))]


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
    1-step} and the share minimizing |r1*(1+d) - r2| is returned, ties within
    1e-12 going to the larger share.  If pool 1 is still the better deal at
    1-step the result is l1 = 1 (full migration, a single-pool replay with
    r2 = None), and symmetrically l1 = 0 with r1 = None.  The residual is
    monotone in the share, so the grid minimum is located by bracketing
    instead of evaluating every cell.  One search asks for two cells at most,
    so it never forks and runs in this process alone.
    """
    table = _CellTable(params, trace, L_total, liquidity_step, seed, deviation_threshold)
    return _solve([_search(params, table)], table)[0]


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
    once and every take rate searches the same cell table, so each sample
    equals find_equilibrium at that take rate and seed.  The searches
    advance in lockstep; on two or more cores each round forks a child that
    replays half of the round's new cells (see _CellTable).
    """
    grid = take_rate_grid(take_step)
    table = _CellTable(params, trace, L_total, liquidity_step, seed, deviation_threshold)
    samples = _solve([_search(replace(params, t1=t1), table) for t1 in grid], table)
    return SweepCurve(samples=tuple(samples))
