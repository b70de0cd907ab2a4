"""Constant-product pool mechanics: quoting, swap execution, optimal routing
and two-pool arbitrage.

A pool holds reserves (A, B) of two assets and fills a trade of x units of
the input asset with

    out(x) = B - A*B / (A + (1 - f)*x)

where f is the trading fee charged on the input leg.  Fees are accumulated in
a side ledger instead of being compounded into the reserves, so the reserve
product A*B is exactly invariant under swaps.  All amounts are plain floats;
this is a continuous model, not fixed-point token arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, Optional, Sequence

Direction = Literal["a2b", "b2a"]

A2B: Direction = "a2b"
B2A: Direction = "b2a"


@dataclass(frozen=True)
class PoolState:
    """Immutable snapshot of one constant-product pool.

    reserve_a is the token-0 side, reserve_b the token-1 side.  fee is the
    trading fee charged on the input leg; fee_ledger_a/fee_ledger_b hold the
    fees collected so far in each asset, outside the reserves.
    """

    reserve_a: float
    reserve_b: float
    fee: float = 0.0
    fee_ledger_a: float = 0.0
    fee_ledger_b: float = 0.0

    def __post_init__(self) -> None:
        for name in ("reserve_a", "reserve_b", "fee_ledger_a", "fee_ledger_b"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.reserve_a < 0 or self.reserve_b < 0:
            raise ValueError("pool reserves must be nonnegative")
        if not 0.0 <= self.fee < 1.0:
            raise ValueError("fee must lie in [0, 1)")
        if self.fee_ledger_a < 0 or self.fee_ledger_b < 0:
            raise ValueError("fee ledgers must be nonnegative")

    @property
    def price(self) -> float:
        """Marginal price of token-0 in token-1 units (B/A)."""
        if self.reserve_a <= 0:
            raise ValueError("price undefined for an empty pool")
        return self.reserve_b / self.reserve_a

    def oriented(self, direction: Direction) -> tuple[float, float]:
        """Reserves as (input side, output side) for the given direction."""
        if direction == A2B:
            return self.reserve_a, self.reserve_b
        if direction == B2A:
            return self.reserve_b, self.reserve_a
        raise ValueError(f"unknown direction: {direction!r}")


@dataclass(frozen=True)
class RouteSplit:
    """Optimal allocation of one trade across several pools."""

    amounts: tuple[float, ...]
    total_out: float


@dataclass(frozen=True)
class ArbTrade:
    """An executed two-pool arbitrage round trip in token-0.

    pool_in names the pool (1 or 2) that received the token-0 input leg;
    the token-1 proceeds were swapped back to token-0 through the other
    pool.  pool1/pool2 are the post-trade states.
    """

    pool_in: int
    amount_in: float
    amount_mid: float
    amount_out: float
    profit: float
    pool1: PoolState
    pool2: PoolState


def quote(pool: PoolState, amount_in: float, direction: Direction) -> float:
    """Output amount for a swap of amount_in, without touching the pool."""
    if amount_in < 0:
        raise ValueError("swap input must be nonnegative")
    if pool.reserve_a <= 0 or pool.reserve_b <= 0:
        raise ValueError("pool must have positive reserves to accept trades")
    if amount_in == 0:
        return 0.0
    res_in, res_out = pool.oriented(direction)
    # out(x) in the form that stays positive however small x is
    g = 1.0 - pool.fee
    return res_out * g * amount_in / (res_in + g * amount_in)


def execute_swap(
    pool: PoolState, amount_in: float, direction: Direction
) -> tuple[float, PoolState]:
    """Apply a swap and return (output, updated pool).

    The fee f*amount_in goes to the input-side ledger, the net input
    (1-f)*amount_in enters the reserves, so reserve_a*reserve_b is preserved.
    """
    out = quote(pool, amount_in, direction)
    if amount_in == 0:
        return 0.0, pool
    fee_part = pool.fee * amount_in
    net_in = amount_in - fee_part
    if direction == A2B:
        updated = replace(
            pool,
            reserve_a=pool.reserve_a + net_in,
            reserve_b=pool.reserve_b - out,
            fee_ledger_a=pool.fee_ledger_a + fee_part,
        )
    else:
        updated = replace(
            pool,
            reserve_b=pool.reserve_b + net_in,
            reserve_a=pool.reserve_a - out,
            fee_ledger_b=pool.fee_ledger_b + fee_part,
        )
    return out, updated


def optimal_split(
    pools: Sequence[PoolState], trade: float, direction: Direction
) -> RouteSplit:
    """Split a trade of size `trade` across pools to maximize total output.

    Solves the output-maximization problem by equalizing marginal prices
    across the used pools; pools whose unconstrained allocation comes out
    negative are dropped and the remainder re-solved (active-set iteration),
    so every returned amount is nonnegative and they sum to the trade size.
    """
    if not pools:
        raise ValueError("optimal_split requires at least one pool")
    if trade < 0:
        raise ValueError("trade size must be nonnegative")
    for p in pools:
        if p.reserve_a <= 0 or p.reserve_b <= 0:
            raise ValueError("all pools must have positive reserves")
    n = len(pools)
    if trade == 0:
        return RouteSplit(amounts=(0.0,) * n, total_out=0.0)

    oriented = [p.oriented(direction) for p in pools]
    res_in = [a for a, _ in oriented]

    # Balanced pools with equal fees split exactly pro rata to size; doing
    # that directly avoids the cancellation the general form suffers when the
    # trade is tiny relative to the reserves.
    prices = [b / a for a, b in oriented]
    if all(p.fee == pools[0].fee for p in pools) and (
        max(prices) - min(prices) <= 1e-12 * max(prices)
    ):
        total_in = sum(res_in)
        amounts = [trade * a / total_in for a in res_in]
    else:
        weight = [0.0] * n  # sqrt(A*B/(1-f)), the marginal-rate weight
        shift = [0.0] * n  # A/(1-f)
        for i, p in enumerate(pools):
            a, b = oriented[i]
            g = 1.0 - p.fee
            weight[i] = math.sqrt(a * b / g)
            shift[i] = a / g

        active = list(range(n))
        amounts = [0.0] * n
        while True:
            total_shift = sum(shift[i] for i in active)
            total_weight = sum(weight[i] for i in active)
            scale = (total_shift + trade) / total_weight
            sol = {i: weight[i] * scale - shift[i] for i in active[:-1]}
            # the last active pool takes what the others leave, so the
            # amounts sum to the trade, not to a rounding of it
            sol[active[-1]] = trade - sum(sol.values())
            negative = [i for i in active if sol[i] < 0.0]
            if not negative:
                for i in active:
                    amounts[i] = sol[i]
                break
            active.remove(min(negative, key=lambda i: sol[i]))

    total_out = 0.0
    for i, x in enumerate(amounts):
        if x > 0.0:
            total_out += quote(pools[i], x, direction)
    return RouteSplit(amounts=tuple(amounts), total_out=total_out)


def _round_trip_size(
    a_in: float, b_in: float, g_in: float, a_back: float, b_back: float, g_back: float
) -> float:
    """Profit-maximizing token-0 size for: token-0 into the `in` pool,
    token-1 proceeds back through the `back` pool.

    Composing the two trade functions gives out(x) = N*x / (D + E*x) with
    N = a_back*g_back*g_in*b_in, D = a_in*b_back and E = g_in*(b_back +
    g_back*b_in); out'(x) = 1 at the closed form below.  Nonpositive when
    the price gap sits inside the fee band (N <= D).
    """
    n = a_back * g_back * g_in * b_in
    d = a_in * b_back
    if n <= d:
        return 0.0
    e = g_in * (b_back + g_back * b_in)
    return (math.sqrt(n * d) - d) / e


def arbitrage(pool1: PoolState, pool2: PoolState) -> Optional[ArbTrade]:
    """Execute the profit-maximizing round trip between two pools, if any.

    The arbitrageur puts token-0 into the pool where it is dear, swaps the
    token-1 proceeds back through the other pool, and keeps the token-0
    surplus.  Returns None when no round trip beats the fee band; after an
    executed trade a second call returns None.
    """
    for p in (pool1, pool2):
        if p.reserve_a <= 0 or p.reserve_b <= 0:
            raise ValueError("both pools must have positive reserves")
    g1 = 1.0 - pool1.fee
    g2 = 1.0 - pool2.fee
    min_profit = 1e-12 * (pool1.reserve_a + pool2.reserve_a)

    # Token-0 into pool 2, back out through pool 1.
    size = _round_trip_size(
        pool2.reserve_a, pool2.reserve_b, g2, pool1.reserve_a, pool1.reserve_b, g1
    )
    if size > 0.0:
        mid, new2 = execute_swap(pool2, size, A2B)
        out, new1 = execute_swap(pool1, mid, B2A)
        profit = out - size
        if profit > min_profit:
            return ArbTrade(2, size, mid, out, profit, new1, new2)
        return None

    # Token-0 into pool 1, back out through pool 2.
    size = _round_trip_size(
        pool1.reserve_a, pool1.reserve_b, g1, pool2.reserve_a, pool2.reserve_b, g2
    )
    if size > 0.0:
        mid, new1 = execute_swap(pool1, size, A2B)
        out, new2 = execute_swap(pool2, mid, B2A)
        profit = out - size
        if profit > min_profit:
            return ArbTrade(1, size, mid, out, profit, new1, new2)
    return None
