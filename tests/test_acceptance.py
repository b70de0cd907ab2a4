"""Acceptance suite: one test per release criterion, each timed and printed.

Closed-form optima are checked through the CLI layer at tight tolerances,
the simulation is held to the analytical curves on synthetic traces, and the
routing/arbitrage engines are checked against brute-force oracles coded here
independently of the library.
"""

import math
import random
import time
from dataclasses import replace

import pytest

from takerate.analytical import (
    ModelParams,
    equilibrium_share,
    optimal_take_rate,
    protocol_revenue,
)
from takerate.cli import cmd_analyze, cmd_simulate
from takerate.cpmm import A2B, B2A, PoolState, arbitrage, execute_swap, optimal_split
from takerate.data_io import ScenarioConfig, SyntheticSpec, generate_trades
from takerate.simulation import sweep_take_rate


def report(criterion, elapsed, budget, detail):
    print(f"criterion {criterion}: PASS in {elapsed:.2f}s (budget {budget:.0f}s) - {detail}")


def make_config(t2, s1, s2, d, n_trades=2000, seed=11, L_total=2e6):
    return ScenarioConfig(
        t2=t2, s1=s1, s2=s2, d=d, f=0.003, L_total=L_total,
        trace="synthetic",
        synthetic=SyntheticSpec(n_trades=n_trades, size_mu=math.log(50.0), seed=seed),
        seed=seed,
    )


def test_criterion_1_fork_closed_form(tmp_path):
    # t2=0, s1=0.1, s2=0, d=0: the optimal take rate equals the sticky rate.
    start = time.perf_counter()
    config = make_config(t2=0.0, s1=0.1, s2=0.0, d=0.0)
    result = cmd_analyze(config, out_dir=tmp_path)
    elapsed = time.perf_counter() - start
    assert result.t1_star == pytest.approx(0.100, abs=1e-9)
    assert elapsed < 1.0
    report(1, elapsed, 1, f"t1* = {result.t1_star:.12f}")


def test_criterion_2_fork_with_sticky_liquidity(tmp_path):
    # d=0.1 shifts the optimum to 1 - 0.9/1.1.
    start = time.perf_counter()
    config = make_config(t2=0.0, s1=0.1, s2=0.0, d=0.1)
    result = cmd_analyze(config, out_dir=tmp_path)
    elapsed = time.perf_counter() - start
    assert result.t1_star == pytest.approx(1.0 - 0.9 / 1.1, abs=1e-6)
    assert elapsed < 1.0
    report(2, elapsed, 1, f"t1* = {result.t1_star:.6f}")


def test_criterion_3_established_competitor_closed_form(tmp_path):
    # t2=0.167: optimum at t2 + s1*(1-t2) = 0.2503.
    start = time.perf_counter()
    config = make_config(t2=0.167, s1=0.1, s2=0.0, d=0.0)
    result = cmd_analyze(config, out_dir=tmp_path)
    elapsed = time.perf_counter() - start
    assert result.t1_star == pytest.approx(0.167 + 0.1 * (1.0 - 0.167), abs=1e-6)
    assert elapsed < 1.0
    report(3, elapsed, 1, f"t1* = {result.t1_star:.6f}")


def test_criterion_4_competitor_with_sticky_volume(tmp_path):
    # t2=0.167, s1=0.1, s2=0.05: numeric optimum near 26%, with a 20% take
    # rate keeping 94% of peak revenue and about 60% of liquidity.
    start = time.perf_counter()
    config = make_config(t2=0.167, s1=0.1, s2=0.05, d=0.0)
    result = cmd_analyze(config, out_dir=tmp_path)
    base = ModelParams(t1=0.20, t2=0.167, s1=0.1, s2=0.05, d=0.0)
    rev_at_20 = protocol_revenue(base)
    l1_at_20 = equilibrium_share(base)
    elapsed = time.perf_counter() - start
    assert 0.25 <= result.t1_star <= 0.27
    assert rev_at_20 / result.rev1_star == pytest.approx(0.94, abs=0.02)
    assert l1_at_20 == pytest.approx(0.60, abs=0.05)
    assert elapsed < 5.0
    report(
        4, elapsed, 5,
        f"t1* = {result.t1_star:.4f}, rev(0.20)/max = {rev_at_20 / result.rev1_star:.4f}, "
        f"l1(0.20) = {l1_at_20:.4f}",
    )


def test_criterion_5_winner_take_all_both_modes(tmp_path):
    # No stickiness: every take rate below the competitor's 16.7% keeps all
    # liquidity, every one above loses everything, in both pipelines.
    start = time.perf_counter()
    config = make_config(t2=0.167, s1=0.0, s2=0.0, d=0.0, n_trades=2000)
    analytic = cmd_analyze(config, out_dir=tmp_path / "a")
    simulated = cmd_simulate(config, out_dir=tmp_path / "s")
    elapsed = time.perf_counter() - start
    for curve in (analytic.curve, simulated.curve):
        for sample in curve.samples:
            if sample.t1 < 0.167:
                assert sample.l1 == 1.0, f"l1 at t1={sample.t1}"
            elif sample.t1 > 0.167:
                assert sample.l1 == 0.0, f"l1 at t1={sample.t1}"
    assert elapsed < 30.0
    report(5, elapsed, 30, "l1 is 1 below t2 and 0 above, analyze and simulate")


def test_criterion_6_simulation_tracks_analytics():
    # Four scenarios on a 10,000-trade log-normal trace at default grids:
    # within 0.02 of the closed form up to t1*+0.1, never more than 0.02
    # below it beyond, wherever the analytic share is on the liquidity grid.
    start = time.perf_counter()
    trades = generate_trades(SyntheticSpec(n_trades=10_000, size_mu=math.log(50.0), seed=2024))
    scenarios = [
        (0.0, 0.1, 0.0, 0.1),
        (0.0, 0.1, 0.0, 0.0),
        (0.167, 0.1, 0.0, 0.0),
        (0.167, 0.1, 0.05, 0.0),
    ]
    worst_below, worst_beyond = 0.0, 0.0
    for t2, s1, s2, d in scenarios:
        base = ModelParams(t1=0.0, t2=t2, s1=s1, s2=s2, d=d, f=0.003)
        t_star, _ = optimal_take_rate(base)
        curve = sweep_take_rate(base, trades, 2e6, seed=7)
        for sample in curve.samples:
            point = replace(base, t1=sample.t1)
            analytic_l1 = equilibrium_share(point)
            if analytic_l1 < 0.005:
                continue  # below grid resolution the share rounds to zero
            analytic_rev = protocol_revenue(point)
            delta = sample.rev1 - analytic_rev
            if sample.t1 <= t_star + 0.1:
                assert abs(delta) <= 0.02, (
                    f"scenario {(t2, s1, s2, d)}, t1={sample.t1}: |{delta:.4f}| > 0.02"
                )
                worst_below = max(worst_below, abs(delta))
            else:
                assert delta >= -0.02, (
                    f"scenario {(t2, s1, s2, d)}, t1={sample.t1}: {delta:.4f} < -0.02"
                )
                worst_beyond = min(worst_beyond, delta)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        6, elapsed, 600,
        f"max |delta| up to t1*+0.1: {worst_below:.4f}; worst shortfall beyond: {worst_beyond:.4f}",
    )


def test_criterion_7_routing_oracle():
    # 200 random instances against a brute-force grid (step 1e-4 * T), plus
    # exact pro-rata splits for balanced pools.
    start = time.perf_counter()
    rng = random.Random(777)
    for _ in range(200):
        fee = rng.choice([0.0, 0.003, 0.01])
        pools = [
            PoolState(rng.uniform(50.0, 5000.0), rng.uniform(50.0, 5000.0), fee=fee),
            PoolState(rng.uniform(50.0, 5000.0), rng.uniform(50.0, 5000.0), fee=fee),
        ]
        direction = rng.choice([A2B, B2A])
        trade = rng.uniform(1.0, 500.0)
        split = optimal_split(pools, trade, direction)
        a1, b1 = pools[0].oriented(direction)
        a2, b2 = pools[1].oriented(direction)
        g = 1.0 - fee
        best = -1.0
        steps = 10_000
        for i in range(steps + 1):
            x1 = trade * i / steps
            x2 = trade - x1
            total = (b1 * g * x1 / (a1 + g * x1)) + (b2 * g * x2 / (a2 + g * x2))
            if total > best:
                best = total
        assert split.total_out >= best - 1e-9 * trade

    for _ in range(50):
        price = rng.uniform(0.5, 2.0)
        sizes = [rng.uniform(100.0, 10_000.0) for _ in range(rng.randint(2, 4))]
        pools = [PoolState(s, s * price, fee=0.003) for s in sizes]
        trade = rng.uniform(1.0, 200.0)
        split = optimal_split(pools, trade, A2B)
        total = sum(sizes)
        for x, s in zip(split.amounts, sizes):
            assert x / trade == pytest.approx(s / total, rel=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(7, elapsed, 10, "200 brute-force instances + 50 pro-rata instances")


def test_criterion_8_arbitrage_oracle():
    # 200 random imbalanced instances against a 1-D brute-force search, and
    # the round trip leaves nothing for a second call.
    start = time.perf_counter()
    rng = random.Random(888)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    checked = 0
    while checked < 200:
        fee = rng.choice([0.0, 0.003, 0.01])
        a1, b1 = rng.uniform(500.0, 20_000.0), rng.uniform(500.0, 20_000.0)
        ratio = rng.uniform(1.05, 2.5)
        pool1 = PoolState(a1, b1, fee=fee)
        pool2 = PoolState(rng.uniform(500.0, 20_000.0), 0.0, fee=fee)
        pool2 = PoolState(pool2.reserve_a, pool2.reserve_a * (b1 / a1) * ratio, fee=fee)
        trade = arbitrage(pool1, pool2)
        assert trade is not None
        assert arbitrage(trade.pool1, trade.pool2) is None

        def profit(x, pool_in=pool2, pool_back=pool1):
            g = 1.0 - pool_in.fee
            gb = 1.0 - pool_back.fee
            mid = pool_in.reserve_b * g * x / (pool_in.reserve_a + g * x)
            out = pool_back.reserve_a * gb * mid / (pool_back.reserve_b + gb * mid)
            return out - x

        hi = 2.0 * max(pool1.reserve_a, pool2.reserve_a)
        grid_best, grid_x = 0.0, 0.0
        for i in range(1, 2001):
            x = hi * i / 2000.0
            p = profit(x)
            if p > grid_best:
                grid_best, grid_x = p, x
        lo, up = max(0.0, grid_x - hi / 2000.0), grid_x + hi / 2000.0
        c, d_ = up - invphi * (up - lo), lo + invphi * (up - lo)
        fc, fd = profit(c), profit(d_)
        for _ in range(90):
            if fc >= fd:
                up, d_, fd = d_, c, fc
                c = up - invphi * (up - lo)
                fc = profit(c)
            else:
                lo, c, fc = c, d_, fd
                d_ = lo + invphi * (up - lo)
                fd = profit(d_)
        brute = profit((lo + up) / 2.0)
        assert trade.profit == pytest.approx(brute, rel=1e-6)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(8, elapsed, 10, "200 brute-force arbitrage instances")


def test_criterion_9_invariant_suite():
    start = time.perf_counter()
    rng = random.Random(999)

    # constant-product conservation under random swaps
    for _ in range(300):
        pool = PoolState(
            rng.uniform(10.0, 1e6), rng.uniform(10.0, 1e6), fee=rng.choice([0.0, 0.003, 0.05])
        )
        product = pool.reserve_a * pool.reserve_b
        _, after = execute_swap(pool, rng.uniform(0.0, pool.reserve_a), rng.choice([A2B, B2A]))
        assert after.reserve_a * after.reserve_b == pytest.approx(product, rel=1e-9)

    # equilibrium fixed point: residual below 1e-9 relative
    checked = 0
    while checked < 200:
        s1 = rng.uniform(0.01, 0.5)
        s2 = rng.uniform(0.0, min(0.45, 1.0 - s1))
        params = ModelParams(
            t1=rng.uniform(0.0, 0.9), t2=rng.uniform(0.0, 0.9),
            s1=s1, s2=s2, d=rng.choice([0.0, 0.1, 0.3]), f=0.003,
        )
        l1 = equilibrium_share(params)
        if not 0.0 < l1 < 1.0:
            continue
        routed = 1.0 - s1 - s2
        r1 = (1.0 - params.t1) * (s1 + routed * l1) * params.f / l1
        r2 = (1.0 - params.t2) * (s2 + routed * (1.0 - l1)) * params.f / (1.0 - l1)
        assert abs(r1 * (1.0 + params.d) - r2) / r2 < 1e-9
        checked += 1

    # branch continuity at the s2=0 boundary: both branches give l1 = 1
    for _ in range(50):
        s1 = rng.uniform(0.01, 0.5)
        t2 = rng.uniform(0.0, 0.5)
        d = rng.uniform(0.0, 0.3)
        t_star = 1.0 - (1.0 - s1) * (1.0 - t2) / (1.0 + d)
        at = ModelParams(t1=t_star, t2=t2, s1=s1, s2=0.0, d=d)
        assert equilibrium_share(at) == pytest.approx(1.0, abs=1e-9)
        assert protocol_revenue(at) == pytest.approx(t_star, abs=1e-9)

    # flat revenue: t2=0, d=0, s2=0 gives rev1 = s1 for every t1 >= s1
    for _ in range(50):
        s1 = rng.uniform(0.01, 0.6)
        t1 = rng.uniform(s1, 1.0)
        params = ModelParams(t1=t1, t2=0.0, s1=s1, s2=0.0, d=0.0)
        assert protocol_revenue(params) == pytest.approx(s1, rel=1e-9)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(9, elapsed, 30, "conservation, fixed point, continuity, flat revenue")
