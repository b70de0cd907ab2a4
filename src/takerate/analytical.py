"""Closed-form equilibrium model for two competing constant-product pools.

Pool 1 charges take rate t1 and competes with pool 2 (take rate t2) for a
fixed total liquidity and a fixed trade volume V.  A fraction s_i of volume
is loyal to pool i, the rest is routed proportionally to pool sizes, and
liquidity providers tolerate an ROI gap d before migrating, so the liquidity
split settles where r1*(1+d) = r2.  That balance condition reduces to a
quadratic in pool 1's liquidity share l1; this module solves it, evaluates
the protocol revenue rev1 = t1*(s1 + (1-s1-s2)*l1) and locates the revenue
maximizing take rate, in closed form when s2 = 0 and numerically otherwise.

Every quantity is normalized, so none depends on V or the total liquidity
L_total: volumes are shares of V, ROIs have the factor V/L_total divided
out, and revenue has V*f divided out.  The share, the revenue and the
optimal take rate are therefore directly comparable across scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

# Below this, the quadratic's denominator is treated as singular and the
# pre-quadratic linear balance equation is solved instead.
_SINGULAR_EPS = 1e-12

# Roots may stray this far outside [0, 1] from float noise before we treat
# the computation as inconsistent.
_CLAMP_EPS = 1e-12

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Take-rate step of optimal_take_rate's scan before the golden-section step;
# the scan grid itself is built below unit_grid, once.
_SCAN_STEP = 0.001

# Most steps a grid over [0, 1] may take, so that a tiny step fails by name
# rather than by exhausting memory; 1e-5 is the finest step accepted.
_MAX_GRID_STEPS = 100_000

class IndeterminateEquilibriumError(ValueError):
    """Every liquidity split is an equilibrium; no unique share exists."""


class DegeneratePoolError(ValueError):
    """An operation needed both pools nonempty but one has no liquidity."""


@dataclass(frozen=True)
class ModelParams:
    """Scenario tuple driving both the analytical model and the simulation.

    t1/t2 are the pools' take rates, s1/s2 their sticky volume shares
    (s1 + s2 <= 1), d the ROI advantage LPs demand before leaving pool 1,
    f the trading fee both pools charge.  There is no scale: the closed
    form works in shares of V with V/L_total divided out of the ROIs, and
    the simulation takes V from its trace and L_total as an argument.
    """

    t1: float
    t2: float
    s1: float
    s2: float = 0.0
    d: float = 0.0
    f: float = 0.003

    def __post_init__(self) -> None:
        # The range checks also reject NaN and inf; d needs its own.
        for name in ("t1", "t2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        check_sticky_rates(self.s1, self.s2)
        if not math.isfinite(self.d):
            raise ValueError(f"d must be finite, got {self.d}")
        if self.d < 0.0:
            raise ValueError(f"d must be nonnegative, got {self.d}")
        if not 0.0 <= self.f < 1.0:
            raise ValueError(f"f must lie in [0, 1), got {self.f}")


def check_sticky_rates(s1: float, s2: float) -> None:
    """Raise ValueError unless s1, s2 lie in [0, 1] with s1 + s2 <= 1; NaN fails."""
    if s1 >= 0.0 and s2 >= 0.0 and s1 + s2 <= 1.0:
        return
    for name, v in (("s1", s1), ("s2", s2)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    raise ValueError(f"s1 + s2 must not exceed 1, got {s1} + {s2}")


@dataclass(frozen=True)
class EquilibriumResult:
    """Liquidity equilibrium at take rate t1 and the quantities that follow.

    This is also one sample of a take-rate curve.  In the closed form v1/v2
    are the pools' volumes as shares of V and r1/r2 the LP ROIs with
    V/L_total divided out; in the simulation v1/v2 are the replayed token-0
    volumes excluding arbitrage legs and r1/r2 the ROIs over the trace.
    r1/r2 are None when the corresponding pool is empty (l1 at 0 or 1),
    where an ROI is undefined.  rev1 is normalized protocol revenue (V*f
    divided out) in both.
    """

    t1: float
    l1: float
    v1: float
    v2: float
    r1: Optional[float]
    r2: Optional[float]
    rev1: float


def pool_volumes(params: ModelParams, l1: float) -> tuple[float, float]:
    """Each pool's volume as a share of V: sticky share plus pro-rata routed share."""
    if not 0.0 <= l1 <= 1.0:
        raise ValueError(f"l1 must lie in [0, 1], got {l1}")
    routed = 1.0 - params.s1 - params.s2
    return params.s1 + routed * l1, params.s2 + routed * (1.0 - l1)


def lp_roi(params: ModelParams, l1: float) -> tuple[float, float]:
    """LP return on investment per pool, r_i = (1-t_i)*f*v_i/l_i (V/L_total divided out)."""
    if l1 == 0.0 or l1 == 1.0:
        raise DegeneratePoolError("ROI is undefined for an empty pool (l1 at 0 or 1)")
    v1, v2 = pool_volumes(params, l1)
    r1 = (1.0 - params.t1) * v1 * params.f / l1
    r2 = (1.0 - params.t2) * v2 * params.f / (1.0 - l1)
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
    well, every split is an equilibrium and solve_equilibrium, whose share
    this is, raises.
    """
    return solve_equilibrium(params).l1


def _equilibrium_shares(
    t1s: Sequence[float], t2: float, s1: float, s2: float, d: float
) -> list[Optional[float]]:
    """equilibrium_share at every take rate of t1s, under one valid (t2, s1, s2, d).

    This is the one place the quadratic is solved.  The terms that do not
    depend on t1 are computed once, so a grid costs one loop over floats and
    no ModelParams per point; each point runs the same float operations in
    the same order as a call for that point alone.  A point where every
    split is an equilibrium gives None instead of raising.
    """
    eps, sqrt, inf = _SINGULAR_EPS, math.sqrt, math.inf
    one_t2 = 1.0 - t2
    one_d = 1.0 + d
    c = one_t2 * s2
    routed = 1.0 - s1 - s2
    linear = routed <= eps
    shares: list[Optional[float]] = []
    append = shares.append
    for t1 in t1s:
        u = one_d * (1.0 - t1)
        a = u * s1
        gap = one_t2 - u

        if linear or -eps <= gap <= eps:
            append(None if a + c <= 0.0 else a / (a + c))
            continue

        den = routed * gap
        p = 1.0 + (a + c) / den
        q = a / den
        # p^2/4 - q rewritten as ((den - a + c)^2 + 4ac) / (4 den^2): nonnegative
        # by construction and free of the cancellation that plagues the naive
        # form near a double root.
        spread = den - a + c
        disc = (spread * spread + 4.0 * a * c) / (4.0 * den * den)
        if disc < inf:
            root = sqrt(disc)
        else:
            # The squares overflow once d passes ~1e154; the same root without them.
            root = math.hypot(spread, 2.0 * sqrt(a * c)) / (2.0 * abs(den))

        # Stable root pair: take the larger-magnitude root directly, recover the
        # other from the product q to avoid cancellation near the singularity.
        # A negative gap picks the plus root, a positive one the minus root.
        big = p / 2.0 + root if p >= 0.0 else p / 2.0 - root
        if (gap < 0.0) == (p >= 0.0):
            l1 = big
        else:
            l1 = q / big if big != 0.0 else 0.0
        if l1 < 0.0:
            if l1 < -_CLAMP_EPS:
                raise RuntimeError(f"equilibrium root {l1} outside [0, 1]")
            l1 = 0.0
        elif l1 > 1.0:
            if l1 > 1.0 + _CLAMP_EPS:
                raise RuntimeError(f"equilibrium root {l1} outside [0, 1]")
            l1 = 1.0
        append(l1)
    return shares


def revenue_at(params: ModelParams, l1: float) -> float:
    """Normalized protocol revenue rev1 = t1*(s1 + (1-s1-s2)*l1) at share l1."""
    return params.t1 * (params.s1 + (1.0 - params.s1 - params.s2) * l1)


def protocol_revenue(params: ModelParams) -> float:
    """Normalized protocol revenue at the equilibrium share, solve_equilibrium's rev1."""
    return solve_equilibrium(params).rev1


def check_L_total(L_total: float) -> None:
    """Raise ValueError unless the total liquidity L_total is finite and positive."""
    if not math.isfinite(L_total):
        raise ValueError(f"L_total must be finite, got {L_total}")
    if L_total <= 0.0:
        raise ValueError(f"L_total must be positive, got {L_total}")


def check_step(name: str, step: float) -> None:
    """Reject a grid step outside (0, 0.5] or too fine to build, naming its key.

    A step above 0.5 would leave a grid over [0, 1] without an interior point,
    and one below 1e-5 would make unit_grid build more than _MAX_GRID_STEPS
    steps (a step whose reciprocal overflows gives no step count at all).
    """
    if not 0.0 < step <= 0.5:
        raise ValueError(f"{name} must lie in (0, 0.5], got {step}")
    if _step_count(step) > _MAX_GRID_STEPS:
        raise ValueError(
            f"{name} is too small: a grid over [0, 1] would take more than "
            f"{_MAX_GRID_STEPS} steps, got {step}"
        )


def _step_count(step: float) -> float:
    """Steps of unit_grid(step) before rounding up; inf if 1/step overflows."""
    return 1.0 / step - 1e-9


def unit_grid(step: float) -> list[float]:
    """Values 0, step, 2*step, ... of a grid over [0, 1], the last one exactly 1.

    The step count allows 1e-9 below a whole number, so 0.3 takes 4 steps
    (0.9, then 1) and 1/49, whose float reciprocal is 49.00000000000001,
    takes 49.  The last value is 1 itself, not 49 * (1/49), which misses it.
    Both the take-rate grid and the simulation's liquidity grid are this one.
    """
    n = math.ceil(_step_count(step))
    return [i * step for i in range(n)] + [1.0]


_SCAN_GRID = unit_grid(_SCAN_STEP)


def take_rate_grid(take_step: float) -> list[float]:
    """Take rates 0, step, 2*step, ... up to 1 (the last one exactly 1)."""
    check_step("take_step", take_step)
    return unit_grid(take_step)


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
    a take-rate grid of step 0.001, solved in one _equilibrium_shares pass,
    and the best cell refined by golden-section search to 1e-6; ties go to
    the smaller take rate.
    """
    if params.s2 == 0.0:
        t_star = 1.0 - (1.0 - params.s1) * (1.0 - params.t2) / (1.0 + params.d)
        # t_star sits on the edge of the full-liquidity branch (l1 = 1, with
        # equality included), where revenue equals the take rate itself.
        return t_star, t_star

    t2, s1, s2, d = params.t2, params.s1, params.s2, params.d
    routed = 1.0 - s1 - s2

    def revenues(t1s: Sequence[float]) -> list[float]:
        revs = []
        for t1, l1 in zip(t1s, _equilibrium_shares(t1s, t2, s1, s2, d)):
            if l1 is None:
                # Every split is an equilibrium (e.g. t2 = 1 with s1 = 0).  With
                # no volume routed, revenue does not depend on the split;
                # otherwise it is undefined there and the point cannot be the
                # argmax.
                if routed > _SINGULAR_EPS:
                    revs.append(-math.inf)
                    continue
                l1 = 0.0
            revs.append(t1 * (s1 + routed * l1))
        return revs

    def rev(t1: float) -> float:
        return revenues((t1,))[0]

    scan = revenues(_SCAN_GRID)
    best_rev = max(scan)
    best_t = _SCAN_GRID[scan.index(best_rev)]  # the first of equal maxima
    refined_t = _golden_max(
        rev, max(0.0, best_t - _SCAN_STEP), min(1.0, best_t + _SCAN_STEP), tol=1e-6
    )
    refined_rev = rev(refined_t)
    if refined_rev > best_rev or (refined_rev == best_rev and refined_t < best_t):
        return refined_t, refined_rev
    return best_t, best_rev


def equilibrium_curve(
    params: ModelParams,
    t1s: Sequence[float],
    indeterminate_share: Optional[float] = None,
) -> list[Optional[EquilibriumResult]]:
    """solve_equilibrium at every take rate of t1s; params.t1 is ignored.

    This is the one place the closed-form curve is computed.  The shares come
    from one _equilibrium_shares pass, and v1/v2, r1/r2 and rev1 from the
    expressions of pool_volumes, lp_roi and revenue_at, so each sample equals
    solve_equilibrium(replace(params, t1=t1)) field for field
    without a ModelParams per point.  A take rate where every split is an
    equilibrium gives None, or the sample at indeterminate_share if given.
    """
    for t1 in t1s:
        if not 0.0 <= t1 <= 1.0:
            raise ValueError(f"t1 must lie in [0, 1], got {t1}")
    if indeterminate_share is not None and not 0.0 <= indeterminate_share <= 1.0:
        raise ValueError(f"indeterminate_share must lie in [0, 1], got {indeterminate_share}")
    s1, s2, f = params.s1, params.s2, params.f
    routed = 1.0 - s1 - s2
    one_t2 = 1.0 - params.t2
    samples: list[Optional[EquilibriumResult]] = []
    for t1, l1 in zip(t1s, _equilibrium_shares(t1s, params.t2, s1, s2, params.d)):
        if l1 is None:
            if indeterminate_share is None:
                samples.append(None)
                continue
            l1 = indeterminate_share
        v1 = s1 + routed * l1
        v2 = s2 + routed * (1.0 - l1)
        if 0.0 < l1 < 1.0:
            r1 = (1.0 - t1) * v1 * f / l1
            r2 = one_t2 * v2 * f / (1.0 - l1)
        else:
            r1 = r2 = None
        samples.append(
            EquilibriumResult(t1=t1, l1=l1, v1=v1, v2=v2, r1=r1, r2=r2, rev1=t1 * v1)
        )
    return samples


def solve_equilibrium(params: ModelParams) -> EquilibriumResult:
    """Bundle share, volumes, ROIs and revenue for one parameter set.

    The one-point case of equilibrium_curve, and the one point evaluation:
    equilibrium_share and protocol_revenue read its l1 and rev1.  Raises
    IndeterminateEquilibriumError where every split is an equilibrium.
    """
    (result,) = equilibrium_curve(params, (params.t1,))
    if result is None:
        raise IndeterminateEquilibriumError(
            "every liquidity split satisfies the balance condition (no loyal volume "
            "pays either pool's LPs, and routed volume is nil or pays both pools alike)"
        )
    return result
