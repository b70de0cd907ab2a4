"""Closed-form equilibrium model for two competing constant-product pools.

Pool 1 charges take rate t1 and competes with pool 2 (take rate t2) for a
fixed total liquidity and a fixed trade volume V.  A fraction s_i of volume
is loyal to pool i, the rest is routed proportionally to pool sizes, and
liquidity providers tolerate an ROI gap d before migrating, so the liquidity
split settles where r1*(1+d) = r2.  That balance condition reduces to a
quadratic in pool 1's liquidity share l1; this module solves it, evaluates
the protocol revenue rev1 = t1*(s1 + (1-s1-s2)*l1) and locates the revenue
maximizing take rate, in closed form when s2 = 0 and numerically otherwise.

Revenue is reported in normalized units: the constant factor V*f is divided
out, so rev1 is directly comparable across scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

# Below this, the quadratic's denominator is treated as singular and the
# pre-quadratic linear balance equation is solved instead.
_SINGULAR_EPS = 1e-12

# Roots may stray this far outside [0, 1] from float noise before we treat
# the computation as inconsistent.
_CLAMP_EPS = 1e-12

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Take-rate step of optimal_take_rate's scan before the golden-section step.
_SCAN_STEP = 0.001


class IndeterminateEquilibriumError(ValueError):
    """Every liquidity split is an equilibrium; no unique share exists."""


class DegeneratePoolError(ValueError):
    """An operation needed both pools nonempty but one has no liquidity."""


@dataclass(frozen=True)
class ModelParams:
    """Scenario tuple driving both the analytical model and the simulation.

    t1/t2 are the pools' take rates, s1/s2 their sticky volume shares
    (s1 + s2 <= 1), d the ROI advantage LPs demand before leaving pool 1,
    f the trading fee both pools charge, V the total trade volume.
    """

    t1: float
    t2: float
    s1: float
    s2: float = 0.0
    d: float = 0.0
    f: float = 0.003
    V: float = 1.0

    def __post_init__(self) -> None:
        # The range checks also reject NaN and inf; d and V need their own.
        for name in ("t1", "t2", "s1", "s2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.s1 + self.s2 > 1.0:
            raise ValueError("s1 + s2 must not exceed 1")
        if not math.isfinite(self.d):
            raise ValueError(f"d must be finite, got {self.d}")
        if self.d < 0.0:
            raise ValueError(f"d must be nonnegative, got {self.d}")
        if not 0.0 <= self.f < 1.0:
            raise ValueError(f"f must lie in [0, 1), got {self.f}")
        if not math.isfinite(self.V):
            raise ValueError(f"V must be finite, got {self.V}")
        if self.V <= 0.0:
            raise ValueError(f"V must be positive, got {self.V}")


@dataclass(frozen=True)
class EquilibriumResult:
    """Liquidity equilibrium at take rate t1 and the quantities that follow.

    This is also one sample of a take-rate curve.  v1/v2 are the pools'
    volumes: here the V-scaled shares of pool_volumes, in the simulation the
    replayed token-0 volumes excluding arbitrage legs.  r1/r2 are None when
    the corresponding pool is empty (l1 at 0 or 1), where an ROI is
    undefined.  rev1 is normalized protocol revenue (V*f factored out).
    """

    t1: float
    l1: float
    v1: float
    v2: float
    r1: Optional[float]
    r2: Optional[float]
    rev1: float


def pool_volumes(params: ModelParams, l1: float) -> tuple[float, float]:
    """Volume executed per pool: sticky share plus pro-rata routed share."""
    if not 0.0 <= l1 <= 1.0:
        raise ValueError("l1 must lie in [0, 1]")
    routed = 1.0 - params.s1 - params.s2
    v1 = (params.s1 + routed * l1) * params.V
    v2 = (params.s2 + routed * (1.0 - l1)) * params.V
    return v1, v2


def lp_roi(params: ModelParams, l1: float, L_total: float) -> tuple[float, float]:
    """LP return on investment per pool: r_i = (1-t_i)*v_i*f / L_i."""
    if L_total <= 0.0:
        raise ValueError("L_total must be positive")
    if not 0.0 <= l1 <= 1.0:
        raise ValueError("l1 must lie in [0, 1]")
    if l1 == 0.0 or l1 == 1.0:
        raise DegeneratePoolError("ROI is undefined for an empty pool (l1 at 0 or 1)")
    v1, v2 = pool_volumes(params, l1)
    r1 = (1.0 - params.t1) * v1 * params.f / (l1 * L_total)
    r2 = (1.0 - params.t2) * v2 * params.f / ((1.0 - l1) * L_total)
    return r1, r2


def equilibrium_share(params: ModelParams) -> float:
    """Liquidity share of pool 1 at which r1*(1+d) = r2.

    Solves the quadratic l1^2 - p*l1 + q = 0 with

        p = 1 + (a + c) / den,   q = a / den,
        a = (1+d)*(1-t1)*s1,     c = (1-t2)*s2,
        den = (1-s1-s2) * ((1-t2) - (1+d)*(1-t1)),

    picking the root that lies in [0, 1]: the larger one when the gap
    (1-t2) - (1+d)*(1-t1) is negative, the smaller one when positive.  When
    den vanishes (matched fee attractiveness, or all volume sticky) the
    balance equation is linear and solved directly; if it is degenerate as
    well, every split is an equilibrium and an error is raised.  The solver
    itself is _equilibrium_share, which takes the five validated floats, so
    loops over one scenario need not rebuild a ModelParams per point.
    """
    return _equilibrium_share(params.t1, params.t2, params.s1, params.s2, params.d)


def _equilibrium_share(t1: float, t2: float, s1: float, s2: float, d: float) -> float:
    """equilibrium_share on the fields of a valid ModelParams."""
    a = (1.0 + d) * (1.0 - t1) * s1
    c = (1.0 - t2) * s2
    gap = (1.0 - t2) - (1.0 + d) * (1.0 - t1)
    routed = 1.0 - s1 - s2

    if abs(gap) <= _SINGULAR_EPS or routed <= _SINGULAR_EPS:
        if a + c <= 0.0:
            raise IndeterminateEquilibriumError(
                "every liquidity split satisfies the balance condition "
                "(no sticky volume and matched take-rate attractiveness)"
            )
        return a / (a + c)

    den = routed * gap
    p = 1.0 + (a + c) / den
    q = a / den
    # p^2/4 - q rewritten as ((den - a + c)^2 + 4ac) / (4 den^2): nonnegative
    # by construction and free of the cancellation that plagues the naive
    # form near a double root.
    spread = den - a + c
    disc = (spread * spread + 4.0 * a * c) / (4.0 * den * den)
    if math.isfinite(disc):
        root = math.sqrt(disc)
    else:
        # The squares overflow once d passes ~1e154; the same root without them.
        root = math.hypot(spread, 2.0 * math.sqrt(a * c)) / (2.0 * abs(den))

    # Stable root pair: take the larger-magnitude root directly, recover the
    # other from the product q to avoid cancellation near the singularity.
    if p >= 0.0:
        big = p / 2.0 + root
        plus_root = big
        minus_root = q / big if big != 0.0 else 0.0
    else:
        big = p / 2.0 - root
        minus_root = big
        plus_root = q / big if big != 0.0 else 0.0

    l1 = plus_root if gap < 0.0 else minus_root
    if l1 < 0.0:
        if l1 < -_CLAMP_EPS:
            raise RuntimeError(f"equilibrium root {l1} outside [0, 1]")
        l1 = 0.0
    elif l1 > 1.0:
        if l1 > 1.0 + _CLAMP_EPS:
            raise RuntimeError(f"equilibrium root {l1} outside [0, 1]")
        l1 = 1.0
    return l1


def revenue_at(params: ModelParams, l1: float) -> float:
    """Normalized protocol revenue rev1 = t1*(s1 + (1-s1-s2)*l1) at share l1."""
    return _revenue(params.t1, params.s1, params.s2, l1)


def _revenue(t1: float, s1: float, s2: float, l1: float) -> float:
    """revenue_at on the fields of a valid ModelParams."""
    return t1 * (s1 + (1.0 - s1 - s2) * l1)


def protocol_revenue(params: ModelParams) -> float:
    """Normalized protocol revenue at the equilibrium share."""
    return revenue_at(params, equilibrium_share(params))


def check_step(name: str, step: float) -> None:
    """Reject a grid step outside (0, 0.5], naming its key.

    A step above 0.5 would leave a grid over [0, 1] without an interior point.
    """
    if not 0.0 < step <= 0.5:
        raise ValueError(f"{name} must lie in (0, 0.5], got {step}")


def take_rate_grid(take_step: float) -> list[float]:
    """Take rates 0, step, 2*step, ... up to 1 (the last one clipped to 1)."""
    check_step("take_step", take_step)
    return [min(1.0, i * take_step) for i in range(round(1.0 / take_step) + 1)]


def _golden_max(fn: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Golden-section argmax on [lo, hi]; ties drift toward the left edge."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d_ = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d_)
    while b - a > tol:
        if fc >= fd:
            b, d_, fd = d_, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + _GOLDEN * (b - a)
            fd = fn(d_)
    return (a + b) / 2.0


def optimal_take_rate(params: ModelParams) -> tuple[float, float]:
    """Take rate for pool 1 that maximizes protocol revenue, with that revenue.

    params.t1 is ignored.  With s2 = 0 the optimum is the closed form
    t1* = 1 - (1-s1)*(1-t2)/(1+d), the largest take rate at which pool 1
    still holds all liquidity.  With s2 > 0 the revenue curve is scanned on
    a take-rate grid of step 0.001 and the best cell refined by
    golden-section search to 1e-6; ties go to the smaller take rate.  The
    scan evaluates the float kernels directly: params is validated once and
    every grid point only changes t1 within [0, 1].
    """
    if params.s2 == 0.0:
        t_star = 1.0 - (1.0 - params.s1) * (1.0 - params.t2) / (1.0 + params.d)
        # t_star sits on the edge of the full-liquidity branch (l1 = 1, with
        # equality included), where revenue equals the take rate itself.
        return t_star, t_star

    t2, s1, s2, d = params.t2, params.s1, params.s2, params.d

    def rev(t1: float) -> float:
        try:
            return _revenue(t1, s1, s2, _equilibrium_share(t1, t2, s1, s2, d))
        except IndeterminateEquilibriumError:
            # Every split is an equilibrium (e.g. t2 = 1 with s1 = 0).  With no
            # volume routed, revenue does not depend on the split; otherwise
            # it is undefined there and the point cannot be the argmax.
            if 1.0 - s1 - s2 <= _SINGULAR_EPS:
                return _revenue(t1, s1, s2, 0.0)
            return -math.inf

    grid = take_rate_grid(_SCAN_STEP)
    best_t, best_rev = grid[0], rev(grid[0])
    for t1 in grid[1:]:
        r = rev(t1)
        if r > best_rev:
            best_t, best_rev = t1, r
    refined_t = _golden_max(
        rev, max(0.0, best_t - _SCAN_STEP), min(1.0, best_t + _SCAN_STEP), tol=1e-6
    )
    refined_rev = rev(refined_t)
    if refined_rev > best_rev or (refined_rev == best_rev and refined_t < best_t):
        return refined_t, refined_rev
    return best_t, best_rev


def solve_equilibrium(params: ModelParams, L_total: float) -> EquilibriumResult:
    """Bundle share, volumes, ROIs and revenue for one parameter set."""
    l1 = equilibrium_share(params)
    v1, v2 = pool_volumes(params, l1)
    if 0.0 < l1 < 1.0:
        r1, r2 = lp_roi(params, l1, L_total)
    else:
        r1, r2 = None, None
    return EquilibriumResult(
        t1=params.t1, l1=l1, v1=v1, v2=v2, r1=r1, r2=r2, rev1=revenue_at(params, l1)
    )
