"""Closed-form model tests.

The equilibrium share is cross-checked against an independent oracle: a
bisection root-find on the raw ROI balance r1*(1+d) - r2, implemented here
without the quadratic machinery.  The optimal take rate's closed form is
checked against a dense grid argmax over that oracle.
"""

import math
import random
import re
from dataclasses import replace

import pytest

from takerate.analytical import (
    EquilibriumResult,
    IndeterminateEquilibriumError,
    ModelParams,
    check_step,
    equilibrium_curve,
    equilibrium_share,
    optimal_take_rate,
    protocol_revenue,
    solve_equilibrium,
    take_rate_grid,
)


def roi_balance(l1, t1, t2, s1, s2, d):
    """r1*(1+d) - r2 with V, f, L normalized out (they cancel in the sign)."""
    routed = 1.0 - s1 - s2
    r1 = (1.0 - t1) * (s1 + routed * l1) / l1
    r2 = (1.0 - t2) * (s2 + routed * (1.0 - l1)) / (1.0 - l1)
    return r1 * (1.0 + d) - r2


def oracle_share(t1, t2, s1, s2, d):
    """Bisection on the ROI balance, independent of the quadratic solution."""
    lo, hi = 1e-12, 1.0 - 1e-12
    f_lo, f_hi = roi_balance(lo, t1, t2, s1, s2, d), roi_balance(hi, t1, t2, s1, s2, d)
    if f_lo > 0.0 and f_hi > 0.0:
        return 1.0
    if f_lo < 0.0 and f_hi < 0.0:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (roi_balance(mid, t1, t2, s1, s2, d) > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def point_sample(params, l1):
    """One curve sample at share l1, from the paper's formulas written here.

    v_i = s_i + (1-s1-s2)*l_i, r_i = (1-t_i)*f*v_i/l_i (None for an empty
    pool) and rev1 = t1*v1, each in the float operations and order the
    library uses, so a curve sample must equal this one exactly.
    """
    t1, t2, s1, s2, f = params.t1, params.t2, params.s1, params.s2, params.f
    routed = 1.0 - s1 - s2
    v1 = s1 + routed * l1
    v2 = s2 + routed * (1.0 - l1)
    if 0.0 < l1 < 1.0:
        r1 = (1.0 - t1) * v1 * f / l1
        r2 = (1.0 - t2) * v2 * f / (1.0 - l1)
    else:
        r1 = r2 = None
    return EquilibriumResult(t1=t1, l1=l1, v1=v1, v2=v2, r1=r1, r2=r2, rev1=t1 * v1)


class TestPoolVolumes:
    """Each pool's volume share on the curve: its loyal share plus its
    liquidity share of the routed volume."""

    def test_pure_proportional(self):
        # nothing loyal and t1 = t2: every split is an equilibrium
        params = ModelParams(t1=0.0, t2=0.0, s1=0.0, s2=0.0)
        (s,) = equilibrium_curve(params, [0.0], indeterminate_share=0.3)
        assert (s.v1, s.v2) == (pytest.approx(0.3), pytest.approx(0.7))

    def test_only_sticky_reaches_empty_pool(self):
        # t1 = 1 pays pool 1's LPs nothing, so they all leave
        params = ModelParams(t1=0.0, t2=0.0, s1=0.1, s2=0.0)
        (s,) = equilibrium_curve(params, [1.0])
        assert s.l1 == 0.0
        assert s.v1 == pytest.approx(0.1)
        assert s.v2 == pytest.approx(0.9)

    def test_mixed_sticky(self):
        # both take rates 1: no LP earns anything, so every split is an equilibrium
        params = ModelParams(t1=0.0, t2=1.0, s1=0.1, s2=0.05)
        (s,) = equilibrium_curve(params, [1.0], indeterminate_share=0.5)
        assert s.v1 == pytest.approx(0.525)
        assert s.v2 == pytest.approx(0.475)

    def test_volumes_sum_to_total(self):
        rng = random.Random(2)
        for _ in range(100):
            s1 = rng.uniform(0.0, 0.6)
            s2 = rng.uniform(0.0, 1.0 - s1)
            params = ModelParams(t1=0.0, t2=0.1, s1=s1, s2=s2)
            for s in equilibrium_curve(params, [rng.random() for _ in range(5)]):
                assert s.v1 + s.v2 == pytest.approx(1.0, rel=1e-9)


class TestLpRoi:
    """LP ROIs on the curve at a tie, where indeterminate_share sets the split:
    with nothing loyal and t1 = t2 = t, every pool pays (1-t)*f per unit of
    liquidity at every split."""

    def test_equal_when_no_take_rates(self):
        params = ModelParams(t1=0.0, t2=0.0, s1=0.0, s2=0.0, f=0.003)
        for l1 in (0.2, 0.5, 0.9):
            (s,) = equilibrium_curve(params, [0.0], indeterminate_share=l1)
            assert s.r1 == pytest.approx(0.003, rel=1e-12)
            assert s.r2 == pytest.approx(s.r1, rel=1e-12)

    def test_take_rate_halves_roi(self):
        params = ModelParams(t1=0.0, t2=0.5, s1=0.0, s2=0.0, f=0.003)
        (s,) = equilibrium_curve(params, [0.5], indeterminate_share=0.5)
        assert s.r1 == pytest.approx(1.5e-3, rel=1e-12)
        assert s.r2 == pytest.approx(1.5e-3, rel=1e-12)


class TestEquilibriumShare:
    def test_full_symmetry(self):
        params = ModelParams(t1=0.0, t2=0.0, s1=0.1, s2=0.1, d=0.0)
        assert equilibrium_share(params) == pytest.approx(0.5, abs=1e-12)

    def test_known_interior_value(self):
        # Independent oracle (bisection on the ROI balance) gives 4/9.
        params = ModelParams(t1=0.2, t2=0.0, s1=0.1, s2=0.0, d=0.0)
        assert equilibrium_share(params) == pytest.approx(4.0 / 9.0, rel=1e-12)

    def test_full_liquidity_branch(self):
        # Low enough take rate keeps every LP: 1-t1 >= (1-s1)(1-t2)/(1+d).
        params = ModelParams(t1=0.05, t2=0.0, s1=0.1, s2=0.0, d=0.0)
        assert equilibrium_share(params) == 1.0

    def test_matches_oracle_on_random_params(self):
        rng = random.Random(17)
        for _ in range(300):
            s1 = rng.uniform(0.0, 0.5)
            s2 = rng.uniform(0.0, min(0.5, 1.0 - s1))
            t1 = rng.uniform(0.0, 0.9)
            t2 = rng.uniform(0.0, 0.9)
            d = rng.choice([0.0, 0.05, 0.1, 0.5])
            if s1 + s2 == 0.0 and abs((1 - t2) - (1 + d) * (1 - t1)) < 1e-9:
                continue
            params = ModelParams(t1=t1, t2=t2, s1=s1, s2=s2, d=d)
            expected = oracle_share(t1, t2, s1, s2, d)
            assert equilibrium_share(params) == pytest.approx(expected, abs=1e-9)

    def test_singular_denominator_linear_solution(self):
        # (1-t2) == (1+d)(1-t1): balance is linear, share splits by sticky pull.
        params = ModelParams(t1=0.167, t2=0.167, s1=0.1, s2=0.05, d=0.0)
        assert equilibrium_share(params) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_all_sticky_volume_linear_solution(self):
        params = ModelParams(t1=0.2, t2=0.1, s1=0.6, s2=0.4)
        a = (1.0 - 0.2) * 0.6
        c = (1.0 - 0.1) * 0.4
        assert equilibrium_share(params) == pytest.approx(a / (a + c), rel=1e-12)

    def test_fully_degenerate_raises(self):
        params = ModelParams(t1=0.1, t2=0.1, s1=0.0, s2=0.0, d=0.0)
        with pytest.raises(IndeterminateEquilibriumError):
            equilibrium_share(params)

    @pytest.mark.parametrize(
        "t1, t2, s1, s2",
        [(0.2, 0.2, 0.0, 0.0), (1.0, 0.3, 1.0, 0.0), (0.4, 1.0, 0.0, 1.0), (1.0, 1.0, 0.3, 0.7)],
        ids=["no_loyal_tie", "all_loyal_to_1", "all_loyal_to_2", "all_loyal_split"],
    )
    def test_indeterminate_names_its_cause(self, t1, t2, s1, s2):
        # loyal volume may exist, so long as it pays neither pool's LPs
        params = ModelParams(t1=t1, t2=t2, s1=s1, s2=s2)
        cause = re.escape(
            "(no loyal volume pays either pool's LPs, and routed volume is nil or pays both pools alike)"
        )
        for solve in (equilibrium_share, protocol_revenue, solve_equilibrium):
            with pytest.raises(IndeterminateEquilibriumError, match=cause):
                solve(params)

    def test_winner_take_all_no_sticky(self):
        low = ModelParams(t1=0.1, t2=0.2, s1=0.0, s2=0.0, d=0.0)
        high = ModelParams(t1=0.2, t2=0.1, s1=0.0, s2=0.0, d=0.0)
        assert equilibrium_share(low) == 1.0
        assert equilibrium_share(high) == 0.0

    def test_root_validity_random(self):
        # The selected root is in [0,1], the rejected one outside (0,1), and
        # the discriminant never goes negative.
        rng = random.Random(29)
        for _ in range(500):
            s1 = rng.uniform(0.001, 0.5)
            s2 = rng.uniform(0.0, min(0.49, 1.0 - s1))
            t1, t2 = rng.uniform(0.0, 0.95), rng.uniform(0.0, 0.95)
            d = rng.uniform(0.0, 0.5)
            gap = (1.0 - t2) - (1.0 + d) * (1.0 - t1)
            routed = 1.0 - s1 - s2
            if abs(gap) < 1e-9 or routed < 1e-9:
                continue
            den = routed * gap
            p = 1.0 + ((1.0 + d) * (1.0 - t1) * s1 + (1.0 - t2) * s2) / den
            q = (1.0 + d) * (1.0 - t1) * s1 / den
            disc = p * p / 4.0 - q
            assert disc >= -1e-12
            params = ModelParams(t1=t1, t2=t2, s1=s1, s2=s2, d=d)
            selected = equilibrium_share(params)
            assert 0.0 <= selected <= 1.0
            rejected = p - selected  # the two roots sum to p
            assert rejected <= 1e-9 or rejected >= 1.0 - 1e-9

    def test_fixed_point_residual(self):
        rng = random.Random(31)
        checked = 0
        while checked < 200:
            s1 = rng.uniform(0.01, 0.5)
            s2 = rng.uniform(0.0, min(0.45, 1.0 - s1))
            params = ModelParams(
                t1=rng.uniform(0.0, 0.9),
                t2=rng.uniform(0.0, 0.9),
                s1=s1,
                s2=s2,
                d=rng.choice([0.0, 0.1, 0.3]),
                f=0.003,
            )
            l1 = equilibrium_share(params)
            if not 0.0 < l1 < 1.0:
                continue
            sample = point_sample(params, l1)
            r1, r2 = sample.r1, sample.r2
            assert abs(r1 * (1.0 + params.d) - r2) / r2 < 1e-9
            checked += 1


class TestProtocolRevenue:
    def test_zero_take_rate(self):
        params = ModelParams(t1=0.0, t2=0.0, s1=0.1, s2=0.0, d=0.0)
        assert protocol_revenue(params) == 0.0

    def test_boundary_point_revenue_equals_take_rate(self):
        params = ModelParams(t1=0.1, t2=0.0, s1=0.1, s2=0.0, d=0.0)
        assert protocol_revenue(params) == pytest.approx(0.1, rel=1e-9)

    def test_flat_region_value(self):
        # Past the optimum with t2=0, d=0, s2=0 revenue stays at s1:
        # cross-check 0.2*(0.1 + 0.9*4/9) = 0.1.
        params = ModelParams(t1=0.2, t2=0.0, s1=0.1, s2=0.0, d=0.0)
        assert protocol_revenue(params) == pytest.approx(0.1, rel=1e-12)

    def test_matches_low_branch_closed_form(self):
        # With s2=0 and past the boundary: rev1 = s1(1-t2)/((1+d)-(t2+d)/t1).
        for t1, t2, s1, d in [(0.3, 0.1, 0.15, 0.0), (0.5, 0.0, 0.1, 0.2), (0.4, 0.2, 0.05, 0.1)]:
            params = ModelParams(t1=t1, t2=t2, s1=s1, s2=0.0, d=d)
            expected = s1 * (1.0 - t2) / ((1.0 + d) - (t2 + d) / t1)
            assert protocol_revenue(params) == pytest.approx(expected, rel=1e-9)

    def test_flat_revenue_law(self):
        # t2=0, d=0, s2=0: rev1(t1) == s1 for every t1 >= s1.
        for s1 in (0.05, 0.1, 0.3):
            for t1 in [s1 + k * (1.0 - s1) / 20.0 for k in range(21)]:
                if t1 == 0.0:
                    continue
                params = ModelParams(t1=t1, t2=0.0, s1=s1, s2=0.0, d=0.0)
                assert protocol_revenue(params) == pytest.approx(s1, rel=1e-9)


class TestOptimalTakeRate:
    def test_fork_competitor_equals_sticky_rate(self):
        params = ModelParams(t1=0.0, t2=0.0, s1=0.1, s2=0.0, d=0.0)
        t_star, rev_star = optimal_take_rate(params)
        assert t_star == pytest.approx(0.1, abs=1e-12)
        assert rev_star == pytest.approx(0.1, abs=1e-12)

    def test_sticky_liquidity_shifts_optimum(self):
        params = ModelParams(t1=0.0, t2=0.0, s1=0.1, s2=0.0, d=0.1)
        t_star, _ = optimal_take_rate(params)
        assert t_star == pytest.approx(1.0 - 0.9 / 1.1, abs=1e-9)

    def test_established_competitor_closed_form(self):
        params = ModelParams(t1=0.0, t2=0.167, s1=0.1, s2=0.0, d=0.0)
        t_star, _ = optimal_take_rate(params)
        assert t_star == pytest.approx(0.167 + 0.1 * (1.0 - 0.167), abs=1e-9)

    def test_closed_form_matches_grid_argmax(self):
        # Oracle: dense grid argmax of revenue built on the bisection share.
        rng = random.Random(43)
        for _ in range(10):
            t2 = rng.uniform(0.0, 0.4)
            s1 = rng.uniform(0.01, 0.4)
            d = rng.choice([0.0, 0.1, 0.25])
            params = ModelParams(t1=0.0, t2=t2, s1=s1, s2=0.0, d=d)
            t_star, _ = optimal_take_rate(params)
            best_t, best_rev = 0.0, -1.0
            for i in range(1, 2001):
                t1 = i / 2000.0
                rev = t1 * (s1 + (1.0 - s1) * oracle_share(t1, t2, s1, 0.0, d))
                if rev > best_rev:
                    best_t, best_rev = t1, rev
            assert abs(t_star - best_t) <= 1.0 / 2000.0 + 1e-9

    def test_numeric_argmax_with_competitor_sticky(self):
        # Figure-style scenario with s2 > 0 has its optimum near 0.26.
        params = ModelParams(t1=0.0, t2=0.167, s1=0.1, s2=0.05, d=0.0)
        t_star, rev_star = optimal_take_rate(params)
        assert 0.25 <= t_star <= 0.27
        assert rev_star == pytest.approx(0.1298, abs=2e-3)

    def test_monotone_in_sticky_rate_and_competitor_take(self):
        prev = -1.0
        for s1 in [0.02 * k for k in range(1, 20)]:
            t_star, _ = optimal_take_rate(ModelParams(t1=0.0, t2=0.1, s1=s1, s2=0.0, d=0.0))
            assert t_star > prev
            prev = t_star
        prev = -1.0
        for t2 in [0.05 * k for k in range(0, 16)]:
            t_star, _ = optimal_take_rate(ModelParams(t1=0.0, t2=t2, s1=0.1, s2=0.0, d=0.0))
            assert t_star > prev
            prev = t_star


    def test_indeterminate_end_point_is_never_the_optimum(self):
        # At t2 = 1 both pools pay LPs nothing at t1 = 1, so every split is an
        # equilibrium there and revenue is undefined; below it pool 1 holds
        # all liquidity and earns t1 * (1 - s2), so the optimum tends to 1.
        params = ModelParams(t1=0.0, t2=1.0, s1=0.1, s2=0.2)
        t_star, rev_star = optimal_take_rate(params)
        assert 1.0 - 2e-6 < t_star < 1.0
        assert rev_star == pytest.approx(t_star * (1.0 - 0.2), rel=1e-15)

    def test_scan_builds_no_model_params(self, monkeypatch):
        # the s2 > 0 scan runs on floats; params was validated when built
        params = ModelParams(t1=0.0, t2=0.167, s1=0.1, s2=0.05)
        validate = ModelParams.__post_init__
        calls = []

        def counting(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(ModelParams, "__post_init__", counting)
        optimal_take_rate(params)
        assert calls == []
        replace(params, t1=0.5)
        assert len(calls) == 1  # the counter itself is live


class TestBranchContinuity:
    def test_share_and_revenue_continuous_at_boundary(self):
        # At 1-t1 = (1-s1)(1-t2)/(1+d) both branches give l1 = 1, rev1 = t1.
        for t2, s1, d in [(0.0, 0.1, 0.0), (0.0, 0.1, 0.1), (0.167, 0.1, 0.0), (0.2, 0.3, 0.15)]:
            t_star = 1.0 - (1.0 - s1) * (1.0 - t2) / (1.0 + d)
            at = ModelParams(t1=t_star, t2=t2, s1=s1, s2=0.0, d=d)
            assert equilibrium_share(at) == pytest.approx(1.0, abs=1e-9)
            assert protocol_revenue(at) == pytest.approx(t_star, abs=1e-9)
            for eps in (1e-7, 1e-4):
                below = ModelParams(t1=t_star - eps, t2=t2, s1=s1, s2=0.0, d=d)
                above = ModelParams(t1=t_star + eps, t2=t2, s1=s1, s2=0.0, d=d)
                assert equilibrium_share(below) == pytest.approx(1.0, abs=1e-12)
                # the lower branch leaves l1 = 1 with bounded slope
                assert 1.0 - 100.0 * eps <= equilibrium_share(above) <= 1.0


class TestSolveEquilibrium:
    def test_bundles_consistent_quantities(self):
        params = ModelParams(t1=0.2, t2=0.0, s1=0.1, s2=0.0, d=0.0, f=0.003)
        res = solve_equilibrium(params)
        assert isinstance(res, EquilibriumResult)
        assert res.l1 == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert res.v1 + res.v2 == pytest.approx(1.0, rel=1e-9)
        assert res.r1 is not None and res.r2 is not None
        assert res.r1 * (1.0 + params.d) == pytest.approx(res.r2, rel=1e-9)
        assert res.rev1 == pytest.approx(0.1, rel=1e-9)

    def test_boundary_has_no_roi(self):
        params = ModelParams(t1=0.05, t2=0.0, s1=0.1, s2=0.0, d=0.0)
        res = solve_equilibrium(params)
        assert res.l1 == 1.0
        assert res.r1 is None and res.r2 is None


class TestEquilibriumCurve:
    def assert_pointwise(self, params, t1s):
        """Each sample == the per-point solve, field for field, or None where it raises."""
        curve = equilibrium_curve(params, t1s)
        assert len(curve) == len(t1s)
        nones = 0
        for t1, sample in zip(t1s, curve):
            point = replace(params, t1=t1)
            try:
                expected = solve_equilibrium(point)
            except IndeterminateEquilibriumError:
                assert sample is None
                nones += 1
                continue
            # dataclass == compares every field with ==, floats exactly
            assert sample == expected
            assert sample == point_sample(point, equilibrium_share(point))
        return curve, nones

    def test_random_params_equal_per_point_solves(self):
        rng = random.Random(11)
        for _ in range(60):
            s1 = rng.uniform(0.0, 0.6)
            s2 = rng.choice([0.0, rng.uniform(0.0, 1.0 - s1)])
            params = ModelParams(
                t1=rng.random(), t2=rng.uniform(0.0, 0.5), s1=s1, s2=s2,
                d=rng.choice([0.0, rng.uniform(0.0, 0.5)]), f=rng.uniform(0.001, 0.01),
            )
            t1s = take_rate_grid(0.01) + [rng.random() for _ in range(20)]
            _, nones = self.assert_pointwise(params, t1s)
            assert nones == 0

    def test_singular_gap_takes_the_linear_branch(self):
        # d = 0 and t1 = t2 make the gap (1-t2) - (1+d)(1-t1) exactly 0
        params = ModelParams(t1=0.0, t2=0.25, s1=0.1, s2=0.05)
        curve, _ = self.assert_pointwise(params, [0.2, 0.25, 0.3])
        a, c = 0.75 * 0.1, 0.75 * 0.05
        assert curve[1].l1 == a / (a + c)
        # with d > 0 the gap only comes within float noise of 0
        params = ModelParams(t1=0.0, t2=0.1, s1=0.2, s2=0.1, d=0.2)
        t_gap = 1.0 - 0.9 / 1.2
        curve, _ = self.assert_pointwise(params, [t_gap, 0.5])
        assert abs(0.9 - 1.2 * (1.0 - t_gap)) <= 1e-12
        a, c = 1.2 * (1.0 - t_gap) * 0.2, 0.9 * 0.1
        assert curve[0].l1 == a / (a + c)

    def test_all_volume_sticky(self):
        # s1 + s2 = 1 routes nothing, so every point takes the linear branch
        params = ModelParams(t1=0.0, t2=0.3, s1=0.4, s2=0.6, d=0.1)
        curve, nones = self.assert_pointwise(params, take_rate_grid(0.05))
        assert nones == 0
        for s in curve:
            a, c = 1.1 * (1.0 - s.t1) * 0.4, 0.7 * 0.6
            assert s.l1 == a / (a + c)
            assert s.rev1 == s.t1 * 0.4
        # with t2 = 1 too, t1 = 1 leaves no sticky attractiveness on either side
        params = ModelParams(t1=0.0, t2=1.0, s1=0.4, s2=0.6)
        curve, nones = self.assert_pointwise(params, [0.5, 1.0])
        assert nones == 1 and curve[1] is None

    def test_indeterminate_tie_is_none(self):
        params = ModelParams(t1=0.0, t2=0.167, s1=0.0, s2=0.0)
        t1s = [0.1, 0.167, 0.2]
        curve, nones = self.assert_pointwise(params, t1s)
        assert nones == 1 and curve[1] is None
        with pytest.raises(IndeterminateEquilibriumError):
            solve_equilibrium(replace(params, t1=0.167))
        # a given share fills the tie, and only the tie
        filled = equilibrium_curve(params, t1s, indeterminate_share=0.5)
        assert filled[1] == point_sample(replace(params, t1=0.167), 0.5)
        assert [filled[0], filled[2]] == [curve[0], curve[2]]

    def test_builds_no_model_params(self, monkeypatch):
        params = ModelParams(t1=0.0, t2=0.167, s1=0.1, s2=0.05)
        validate = ModelParams.__post_init__
        calls = []

        def counting(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(ModelParams, "__post_init__", counting)
        equilibrium_curve(params, take_rate_grid(0.01))
        assert calls == []

    @pytest.mark.parametrize("t1", [-0.1, 1.5, math.nan])
    def test_take_rate_outside_unit_interval_rejected(self, t1):
        params = ModelParams(t1=0.0, t2=0.0, s1=0.1)
        with pytest.raises(ValueError, match="t1 must lie in"):
            equilibrium_curve(params, [0.5, t1])

    def test_indeterminate_share_outside_unit_interval_rejected(self):
        params = ModelParams(t1=0.0, t2=0.0, s1=0.1)
        with pytest.raises(ValueError, match=r"^indeterminate_share must lie in \[0, 1\], got 1\.5$"):
            equilibrium_curve(params, [0.5], indeterminate_share=1.5)


class TestModelParamsValidation:
    def test_sticky_rates_must_fit(self):
        with pytest.raises(ValueError):
            ModelParams(t1=0.0, t2=0.0, s1=0.7, s2=0.4)

    def test_take_rate_outside_unit_interval_named(self):
        with pytest.raises(ValueError, match=r"^t1 must lie in \[0, 1\], got 1\.5$"):
            ModelParams(t1=1.5, t2=0.0, s1=0.0)

    def test_negative_d_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(t1=0.0, t2=0.0, s1=0.0, d=-0.1)

    def test_fee_range(self):
        with pytest.raises(ValueError):
            ModelParams(t1=0.0, t2=0.0, s1=0.0, f=1.0)

    @pytest.mark.parametrize("field", ["d"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ModelParams(t1=0.0, t2=0.0, s1=0.0, **{field: value})


class TestTakeRateGrid:
    # 1/49 and 1/98 divide 1, but 49 * (1/49) is 0.9999999999999999
    @pytest.mark.parametrize("step", [0.3, 0.4, 0.07, 0.15, 1.0 / 49, 1.0 / 98])
    def test_ends_at_one_when_step_does_not_divide_one(self, step):
        grid = take_rate_grid(step)
        assert grid[-1] == 1.0
        assert grid[-2] < 1.0
        assert grid[:-1] == [i * step for i in range(len(grid) - 1)]

    def test_grid_size_is_capped(self):
        check_step("take_step", 1e-5)  # the finest step: 100,000 steps
        assert len(take_rate_grid(1e-5)) == 100_001
        for step in (0.99e-5, 1e-12, 1e-310):
            with pytest.raises(ValueError, match="^take_step is too small"):
                take_rate_grid(step)

    def test_dividing_steps_keep_their_grid(self):
        # 1/n with a float reciprocal just above or below n takes n steps
        for step in [1.0 / n for n in range(2, 2001)] + [0.01, 0.005, 0.001, 0.0025]:
            n = round(1.0 / step)
            assert take_rate_grid(step) == [min(1.0, i * step) for i in range(n)] + [1.0]
