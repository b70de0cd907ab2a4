"""Trade-level simulation of two competing constant-product pools.

The pipeline mirrors the analytical model but replays an actual trade trace:

1. assign_sticky marks the smallest trades (which profit least from routing)
   as loyal to pool 1 or pool 2 until their volume reaches the sticky rates.
   The rule works on trade sizes alone and yields one label per trade
   (0 routed, 1 or 2 loyal); the equilibrium search packs those labels
   straight into its replay tuples without rebuilding any TradeEvent.
2. replay_trades replays the trace: loyal trades execute in their pool
   unless the outcome is badly worse than optimal routing, everything else is
   split optimally, and after every trade the profitable arbitrage round
   trip, if any, is executed.
3. find_equilibrium scans a discrete grid of liquidity splits for the point
   where r1*(1+d) = r2, capturing full migration to either pool at the grid
   edges.  The replay tallies it reads come from a cell table keyed by grid
   index, plus one single-pool entry per edge, filled on first use.
4. sweep_take_rate repeats the equilibrium search across a take-rate grid
   and reports the revenue curve.  A replay does not depend on t1, t2 or d,
   which enter only the residual (1-t1)*fee1/L1*(1+d) - (1-t2)*fee2/L2 and
   rev1, so the sweep labels the trace once and every take rate searches
   the same table: each split is replayed at most once per sweep.

Volumes and fee revenue are accounted in token-0 units; token-1 legs convert
at the pool's pre-trade marginal price.  Pools are constructed balanced at a
marginal price of 1 (reserve_a = reserve_b = L_i), so trace amounts of either
asset are size-comparable.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .analytical import EquilibriumResult, ModelParams, check_step, take_rate_grid
from .cpmm import Direction, PoolState

# Arbitrage in the replay executes only when it clears this fraction of the
# combined token-0 reserves, which keeps float-noise round trips out.
_MIN_PROFIT_SCALE = 1e-12

# Every reserve of a replay stays within [lo, hi]: hi is L_total plus the
# whole trace volume, and lo = L_min**2 / hi because no swap shrinks a pool's
# reserve product below its starting L_i**2 (L_min: the smallest pool of the
# liquidity grid).  The arbitrage step multiplies four reserves, so hi**4 and
# lo**4 must stay normal floats, and a trade more than 2**26 times the reserve
# it enters would leave the other reserve under half of its significand.
_MAX_RESERVE = sys.float_info.max ** 0.25
_MIN_RESERVE = sys.float_info.min ** 0.25
_MAX_TRADE_PER_RESERVE = 2.0 ** 26


class TraceScaleError(ValueError):
    """Trade sizes and L_total put a replay outside the float range."""


@dataclass(frozen=True)
class TradeEvent:
    """One trade of a trace: direction, input amount, loyalty label.

    sticky_label is None for optimally routed trades, 1 or 2 for trades loyal
    to that pool.  amount_in is denominated in the input asset of the trade.
    """

    direction: Direction
    amount_in: float
    sticky_label: Optional[int] = None

    def __post_init__(self) -> None:
        if self.direction not in ("a2b", "b2a"):
            raise ValueError(f"unknown direction: {self.direction!r}")
        if not (self.amount_in > 0.0 and math.isfinite(self.amount_in)):
            raise ValueError(f"amount_in must be finite and positive, got {self.amount_in}")
        if self.sticky_label not in (None, 1, 2):
            raise ValueError("sticky_label must be None, 1 or 2")


@dataclass(frozen=True)
class SimOutcome:
    """Aggregates of one trace replay, all token-0 normalized.

    volume_i includes arbitrage legs (broken out again in arb_volume_i), and
    fees_i is the fee revenue f * volume_i, which differs from the pools' raw
    per-asset ledgers only by the price conversion.
    """

    volume_1: float
    volume_2: float
    fees_1: float
    fees_2: float
    arb_count: int
    rerouted_count: int
    arb_volume_1: float = 0.0
    arb_volume_2: float = 0.0


@dataclass(frozen=True)
class SweepSample:
    """One take-rate grid point: equilibrium share, revenue and LP ROIs."""

    t1: float
    l1: float
    rev1: float
    r1: Optional[float]
    r2: Optional[float]


@dataclass(frozen=True)
class SweepCurve:
    """Revenue and liquidity share over an ascending take-rate grid."""

    samples: tuple[SweepSample, ...]
    grid_step: float

    def argmax(self) -> SweepSample:
        """Sample with the highest revenue; ties go to the smaller take rate."""
        best = self.samples[0]
        for s in self.samples[1:]:
            if s.rev1 > best.rev1:
                best = s
        return best


def assign_sticky(
    trades: Sequence[TradeEvent], s1: float, s2: float, seed: int = 0
) -> list[TradeEvent]:
    """Label the smallest trades as loyal until volume shares s1 and s2 are met.

    Trades are sorted ascending by size (trace order breaks ties) and the
    least prefix reaching a volume share of s1+s2 becomes sticky.  A seeded
    uniform shuffle of that prefix is then split by the same cumulative rule
    into a pool-1 part of volume share s1/(s1+s2) and a pool-2 remainder.
    Existing labels are discarded.  Deterministic for a given seed.
    """
    labels = _sticky_labels([ev.amount_in for ev in trades], s1, s2, seed)
    return [replace(ev, sticky_label=lab or None) for ev, lab in zip(trades, labels)]


def _sticky_labels(
    amounts: Sequence[float], s1: float, s2: float, seed: int
) -> list[int]:
    """The rule of assign_sticky on trade sizes: one label per trade, 0 for routed."""
    if not amounts:
        raise ValueError("trade list must not be empty")
    if s1 < 0.0 or s2 < 0.0 or s1 + s2 > 1.0:
        raise ValueError("sticky rates must be nonnegative with s1 + s2 <= 1")
    labels = [0] * len(amounts)
    if s1 + s2 == 0.0:
        return labels

    total = sum(amounts)
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


def _compile(trades: Sequence[TradeEvent]) -> list[tuple[bool, float, int]]:
    """Flatten events to (is_a2b, amount, label) tuples for the replay loop."""
    return [
        (ev.direction == "a2b", ev.amount_in, ev.sticky_label or 0) for ev in trades
    ]


def _replay_two(a1, b1, f1, a2, b2, f2, compiled, threshold):
    """Replay a compiled trace against two pools; the hot loop of the module.

    Returns final reserves, per-asset fee ledger increments, token-0
    normalized volume and fee tallies, arbitrage volumes and event counts.
    """
    sqrt = math.sqrt
    g1 = 1.0 - f1
    g2 = 1.0 - f2
    la1 = lb1 = la2 = lb2 = 0.0
    vol1 = vol2 = fee1 = fee2 = 0.0
    arb_vol1 = arb_vol2 = 0.0
    arb_count = rerouted = 0
    min_profit = _MIN_PROFIT_SCALE * (a1 + a2)

    for is_a2b, amt, lab in compiled:
        if is_a2b:
            in1, out1, in2, out2 = a1, b1, a2, b2
        else:
            in1, out1, in2, out2 = b1, a1, b2, a2

        # Optimal two-pool split: equalize marginal rates, clamp a negative
        # allocation to zero (the active-set step for n = 2).
        w1 = sqrt(in1 * out1 / g1)
        w2 = sqrt(in2 * out2 / g2)
        scale = (in1 / g1 + in2 / g2 + amt) / (w1 + w2)
        x1 = w1 * scale - in1 / g1
        if x1 <= 0.0:
            x1, x2 = 0.0, amt
        else:
            x2 = amt - x1
            if x2 < 0.0:
                x1, x2 = amt, 0.0
        o1 = out1 * g1 * x1 / (in1 + g1 * x1) if x1 > 0.0 else 0.0
        o2 = out2 * g2 * x2 / (in2 + g2 * x2) if x2 > 0.0 else 0.0

        if lab == 0:
            y1, y2 = x1, x2
        else:
            if lab == 1:
                direct = out1 * g1 * amt / (in1 + g1 * amt)
            else:
                direct = out2 * g2 * amt / (in2 + g2 * amt)
            best = o1 + o2
            if best - direct > threshold * best:
                rerouted += 1
                y1, y2 = x1, x2
            elif lab == 1:
                y1, y2, o1 = amt, 0.0, direct
            else:
                y1, y2, o2 = 0.0, amt, direct

        if y1 > 0.0:
            if is_a2b:
                v = y1
                a1 += g1 * y1
                b1 -= o1
                la1 += f1 * y1
            else:
                v = y1 * a1 / b1
                b1 += g1 * y1
                a1 -= o1
                lb1 += f1 * y1
            vol1 += v
            fee1 += f1 * v
        if y2 > 0.0:
            if is_a2b:
                v = y2
                a2 += g2 * y2
                b2 -= o2
                la2 += f2 * y2
            else:
                v = y2 * a2 / b2
                b2 += g2 * y2
                a2 -= o2
                lb2 += f2 * y2
            vol2 += v
            fee2 += f2 * v

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
                    la2 += f2 * x
                    b1 += g1 * mid
                    a1 -= back
                    lb1 += f1 * mid
                    vol2 += v2_
                    fee2 += f2 * v2_
                    arb_vol2 += v2_
                    vol1 += v1_
                    fee1 += f1 * v1_
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
                        la1 += f1 * x
                        b2 += g2 * mid
                        a2 -= back
                        lb2 += f2 * mid
                        vol1 += v1_
                        fee1 += f1 * v1_
                        arb_vol1 += v1_
                        vol2 += v2_
                        fee2 += f2 * v2_
                        arb_vol2 += v2_
                        arb_count += 1

    return (
        a1, b1, la1, lb1,
        a2, b2, la2, lb2,
        vol1, vol2, fee1, fee2,
        arb_vol1, arb_vol2, arb_count, rerouted,
    )


def _replay_single(a, b, f, compiled, own_label):
    """Replay with one surviving pool: everything executes there.

    Trades loyal to the missing pool count as rerouted.  Returns the same
    tally layout as _replay_two with the dead pool zeroed.
    """
    g = 1.0 - f
    la = lb = vol = fee = 0.0
    rerouted = 0
    for is_a2b, amt, lab in compiled:
        if lab != 0 and lab != own_label:
            rerouted += 1
        if is_a2b:
            out = b * g * amt / (a + g * amt)
            v = amt
            a += g * amt
            b -= out
            la += f * amt
        else:
            out = a * g * amt / (b + g * amt)
            v = amt * a / b
            b += g * amt
            a -= out
            lb += f * amt
        vol += v
        fee += f * v
    return a, b, la, lb, vol, fee, rerouted


def replay_trades(
    pool1: PoolState,
    pool2: PoolState,
    trades: Sequence[TradeEvent],
    deviation_threshold: float = 0.1,
) -> tuple[SimOutcome, PoolState, PoolState]:
    """Replay a labeled trace and return the outcome plus final pool states."""
    if deviation_threshold < 0.0:
        raise ValueError("deviation_threshold must be nonnegative")
    for p in (pool1, pool2):
        if p.reserve_a <= 0.0 or p.reserve_b <= 0.0:
            raise ValueError("both pools must have positive reserves")
    p1, p2 = pool1.price, pool2.price
    # The procedure assumes a common starting price; allow the no-arbitrage
    # band's worth of slack so a replay can resume from a previous end state.
    if abs(p1 - p2) > 0.05 * max(p1, p2):
        raise ValueError("pools must start balanced to a common marginal price")

    (
        a1, b1, la1, lb1,
        a2, b2, la2, lb2,
        vol1, vol2, fee1, fee2,
        arb_vol1, arb_vol2, arb_count, rerouted,
    ) = _replay_two(
        pool1.reserve_a, pool1.reserve_b, pool1.fee,
        pool2.reserve_a, pool2.reserve_b, pool2.fee,
        _compile(trades), deviation_threshold,
    )
    outcome = SimOutcome(
        volume_1=vol1,
        volume_2=vol2,
        fees_1=fee1,
        fees_2=fee2,
        arb_count=arb_count,
        rerouted_count=rerouted,
        arb_volume_1=arb_vol1,
        arb_volume_2=arb_vol2,
    )
    final1 = replace(
        pool1,
        reserve_a=a1,
        reserve_b=b1,
        fee_ledger_a=pool1.fee_ledger_a + la1,
        fee_ledger_b=pool1.fee_ledger_b + lb1,
    )
    final2 = replace(
        pool2,
        reserve_a=a2,
        reserve_b=b2,
        fee_ledger_a=pool2.fee_ledger_a + la2,
        fee_ledger_b=pool2.fee_ledger_b + lb2,
    )
    return outcome, final1, final2


class _CellTable:
    """Replay tallies of one labelled trace, filled lazily by liquidity split.

    A replay depends on the split, the fee, L_total, the threshold and the
    labels, but not on t1, t2 or d, so one table serves every take rate of a
    sweep.  Grid cells are keyed by index i (share i * step); the two
    boundary entries hold the single-pool replay with all liquidity in pool
    1 or pool 2.  Replays go through the module-level _replay_two and
    _replay_single.
    """

    def __init__(
        self,
        params: ModelParams,
        trades: Sequence[TradeEvent],
        L_total: float,
        liquidity_step: float,
        seed: int,
        deviation_threshold: float,
    ) -> None:
        """Validate the search inputs and the trace's scale, then label it."""
        if L_total <= 0.0:
            raise ValueError("L_total must be positive")
        check_step("liquidity_step", liquidity_step)
        if params.f <= 0.0:
            raise ValueError("the simulation needs a positive trading fee to compare ROIs")
        amounts = [ev.amount_in for ev in trades]
        labels = _sticky_labels(amounts, params.s1, params.s2, seed)
        self.m = round(1.0 / liquidity_step)
        self.total_volume = sum(amounts)
        L_min = min(liquidity_step, 1.0 - (self.m - 1) * liquidity_step) * L_total
        _check_scale(max(amounts), self.total_volume, L_total, L_min)
        self.compiled = [
            (ev.direction == "a2b", amt, lab)
            for ev, amt, lab in zip(trades, amounts, labels)
        ]
        self.L_total = L_total
        self.f = params.f
        self.step = liquidity_step
        self.threshold = deviation_threshold
        self._cells: dict = {}
        self._boundaries: dict = {}

    def cell(self, i: int):
        """_replay_two tallies at grid share i * step."""
        tallies = self._cells.get(i)
        if tallies is None:
            l1 = i * self.step
            L1 = l1 * self.L_total
            L2 = (1.0 - l1) * self.L_total
            tallies = self._cells[i] = _replay_two(
                L1, L1, self.f, L2, L2, self.f, self.compiled, self.threshold
            )
        return tallies

    def boundary(self, side: int):
        """_replay_single tallies with all liquidity in pool `side`."""
        tallies = self._boundaries.get(side)
        if tallies is None:
            tallies = self._boundaries[side] = _replay_single(
                self.L_total, self.L_total, self.f, self.compiled, own_label=side
            )
        return tallies


def _check_scale(largest: float, volume: float, L_total: float, L_min: float) -> None:
    """Raise TraceScaleError unless a replay stays in range (see _MAX_RESERVE)."""
    hi = L_total + volume
    if hi < _MAX_RESERVE:
        lo = L_min * (L_min / hi)
        if lo > _MIN_RESERVE and largest <= _MAX_TRADE_PER_RESERVE * lo:
            return
    raise TraceScaleError(
        f"trades up to {largest:.6g} (volume {volume:.6g}) are out of scale "
        f"with L_total = {L_total:.6g}: against pools as small as {L_min:.6g} "
        "the replay would leave the float range"
    )


def _boundary_result(params: ModelParams, table: _CellTable, side: int) -> EquilibriumResult:
    """All liquidity in pool `side`; the other pool's loyalists reroute."""
    t_own = params.t1 if side == 1 else params.t2
    _, _, _, _, vol, fee, _ = table.boundary(side)
    r_own = (1.0 - t_own) * fee / table.L_total
    rev1 = params.t1 * fee / (table.total_volume * params.f) if side == 1 else 0.0
    if side == 1:
        return EquilibriumResult(l1=1.0, v1=vol, v2=0.0, r1=r_own, r2=None, rev1=rev1)
    return EquilibriumResult(l1=0.0, v1=0.0, v2=vol, r1=None, r2=r_own, rev1=rev1)


def _search(
    params: ModelParams, table: _CellTable, *, full_scan: bool = False
) -> EquilibriumResult:
    """The equilibrium search of find_equilibrium over one cell table."""
    L_total = table.L_total
    step = table.step
    one_minus_t1 = 1.0 - params.t1
    one_minus_t2 = 1.0 - params.t2
    one_plus_d = 1.0 + params.d

    def cell(i: int):
        l1 = i * step
        L1 = l1 * L_total
        L2 = (1.0 - l1) * L_total
        vol1, vol2, fee1, fee2, arb_vol1, arb_vol2 = table.cell(i)[8:14]
        r1 = one_minus_t1 * fee1 / L1
        r2 = one_minus_t2 * fee2 / L2
        residual = r1 * one_plus_d - r2
        result = EquilibriumResult(
            l1=l1,
            v1=vol1 - arb_vol1,
            v2=vol2 - arb_vol2,
            r1=r1,
            r2=r2,
            rev1=params.t1 * fee1 / (table.total_volume * params.f),
        )
        return residual, result

    m = table.m
    low_i, high_i = 1, m - 1
    res_low, cell_low = cell(low_i)
    res_high, cell_high = cell(high_i)

    if res_high > 0.0:
        return _boundary_result(params, table, side=1)
    if res_low < 0.0:
        return _boundary_result(params, table, side=2)

    evaluated = {low_i: (res_low, cell_low), high_i: (res_high, cell_high)}
    if full_scan:
        for i in range(low_i + 1, high_i):
            evaluated[i] = cell(i)
    else:
        # res decreases with the share: maintain res(low) >= 0 >= res(high)
        while high_i - low_i > 1:
            mid = (low_i + high_i) // 2
            evaluated[mid] = cell(mid)
            if evaluated[mid][0] > 0.0:
                low_i = mid
            else:
                high_i = mid

    best_i = min(evaluated, key=lambda i: (abs(evaluated[i][0]), -i))
    # ties within 1e-12 go to the larger share
    best_abs = abs(evaluated[best_i][0])
    for i, (res, _) in evaluated.items():
        if i > best_i and abs(res) <= best_abs + 1e-12:
            best_i = i

    return evaluated[best_i][1]


def find_equilibrium(
    params: ModelParams,
    trades: Sequence[TradeEvent],
    L_total: float,
    liquidity_step: float = 0.005,
    *,
    seed: int = 0,
    deviation_threshold: float = 0.1,
    full_scan: bool = False,
) -> EquilibriumResult:
    """Liquidity split where replayed LP returns satisfy r1*(1+d) = r2.

    Sticky labels are assigned from params.s1/params.s2 with the given seed,
    then the trace is replayed for liquidity shares on the grid {step, ...,
    1-step} and the share minimizing |r1*(1+d) - r2| is returned.  If pool 1
    is still the better deal at 1-step the result is l1 = 1 (full migration),
    and symmetrically l1 = 0.  The residual is monotone in the share, so by
    default the grid minimum is located by bracketing instead of evaluating
    every cell; full_scan forces the exhaustive scan.
    """
    table = _CellTable(params, trades, L_total, liquidity_step, seed, deviation_threshold)
    return _search(params, table, full_scan=full_scan)


def sweep_take_rate(
    params: ModelParams,
    trades: Sequence[TradeEvent],
    L_total: float,
    take_step: float = 0.01,
    liquidity_step: float = 0.005,
    *,
    seed: int = 0,
    deviation_threshold: float = 0.1,
) -> SweepCurve:
    """Equilibrium and revenue for every take rate on a grid over [0, 1].

    params.t1 is ignored; each grid value is substituted in turn.  Revenue is
    normalized as t1 * fees_1 / (V * f) with V the total trace volume.  The
    trace is labelled once and every take rate searches the same cell table,
    so each sample equals find_equilibrium at that take rate and seed.
    """
    grid = take_rate_grid(take_step)
    table = _CellTable(params, trades, L_total, liquidity_step, seed, deviation_threshold)
    samples = []
    for t1 in grid:
        eq = _search(replace(params, t1=t1), table)
        samples.append(SweepSample(t1=t1, l1=eq.l1, rev1=eq.rev1, r1=eq.r1, r2=eq.r2))
    return SweepCurve(samples=tuple(samples), grid_step=take_step)
