"""Trade replay and equilibrium-search tests.

Analytical agreement is checked against the closed-form module on synthetic
traces of many small trades; mechanics (sticky selection, rerouting,
arbitrage, determinism, volume conservation) are checked directly.
"""

import math
import random
from dataclasses import replace

import pytest

from takerate import simulation
from takerate.analytical import ModelParams, equilibrium_share, protocol_revenue
from takerate.cpmm import PoolState, arbitrage, execute_swap, optimal_split, quote
from takerate.data_io import ConfigError, ScenarioConfig
from takerate.simulation import (
    SimOutcome,
    TradeEvent,
    TraceScaleError,
    assign_sticky,
    find_equilibrium,
    replay_trades,
    sweep_take_rate,
)


def lognormal_trace(n, median, sigma=1.0, bias=0.5, seed=123):
    rng = random.Random(seed)
    return [
        TradeEvent(
            "a2b" if rng.random() < bias else "b2a",
            rng.lognormvariate(math.log(median), sigma),
        )
        for _ in range(n)
    ]


class TestAssignSticky:
    def test_zero_rates_no_labels(self):
        trades = lognormal_trace(50, 10.0)
        labels = assign_sticky(trades, 0.0, 0.0, seed=1)
        assert labels == [0] * len(trades)

    def test_full_stickiness_labels_everything(self):
        trades = lognormal_trace(50, 10.0)
        labels = assign_sticky(trades, 0.5, 0.5, seed=1)
        assert all(lab in (1, 2) for lab in labels)

    def test_smallest_prefix_rule_by_hand(self):
        # sizes {1,2,3,4,90}: the smallest four reach 10% of the volume 100
        trades = [TradeEvent("a2b", x) for x in (90.0, 3.0, 1.0, 4.0, 2.0)]
        labels = assign_sticky(trades, 0.1, 0.0, seed=5)
        assert labels == [0, 1, 1, 1, 1]

    def test_pool1_share_splits_sticky_volume(self):
        trades = lognormal_trace(2000, 10.0)
        labels = assign_sticky(trades, 0.1, 0.05, seed=7)
        total = sum(ev.amount_in for ev in trades)
        vol1 = sum(ev.amount_in for ev, lab in zip(trades, labels) if lab == 1)
        vol2 = sum(ev.amount_in for ev, lab in zip(trades, labels) if lab == 2)
        assert (vol1 + vol2) / total == pytest.approx(0.15, abs=0.01)
        # discretization slack: one labeled trade at most
        w = max(ev.amount_in for ev, lab in zip(trades, labels) if lab) / total
        assert abs(vol1 / total - 0.1) <= w + 1e-12
        assert abs(vol2 / total - 0.05) <= w + 1e-12

    def test_deterministic_given_seed(self):
        trades = lognormal_trace(500, 25.0)
        first = assign_sticky(trades, 0.2, 0.1, seed=11)
        second = assign_sticky(trades, 0.2, 0.1, seed=11)
        assert first == second

    def test_only_smallest_trades_labeled(self):
        trades = lognormal_trace(1000, 10.0)
        labels = assign_sticky(trades, 0.1, 0.1, seed=13)
        sticky_sizes = [ev.amount_in for ev, lab in zip(trades, labels) if lab]
        loose_sizes = [ev.amount_in for ev, lab in zip(trades, labels) if not lab]
        assert max(sticky_sizes) <= min(loose_sizes)

    def test_validation(self):
        with pytest.raises(ValueError):
            assign_sticky([], 0.1, 0.0)
        with pytest.raises(ValueError):
            assign_sticky([TradeEvent("a2b", 1.0)], 0.7, 0.4)


class TestTradeEvent:
    @pytest.mark.parametrize("amount", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_rejects_non_finite_or_nonpositive_amount(self, amount):
        with pytest.raises(ValueError, match="amount_in must be finite and positive"):
            TradeEvent("a2b", amount)


class TestSimulateTrades:
    def test_zero_trades_zero_outcome(self):
        pools = PoolState(1000.0, 1000.0, fee=0.003), PoolState(1000.0, 1000.0, fee=0.003)
        out = replay_trades(*pools, [], [])[0]
        assert out == SimOutcome(0.0, 0.0, 0.0, 0.0, 0, 0, 0.0, 0.0)

    def test_single_trade_splits_evenly_across_equal_pools(self):
        pools = PoolState(1000.0, 1000.0, fee=0.003), PoolState(1000.0, 1000.0, fee=0.003)
        out = replay_trades(*pools, [TradeEvent("a2b", 50.0)], [0])[0]
        assert out.volume_1 == pytest.approx(25.0, rel=1e-9)
        assert out.volume_2 == pytest.approx(25.0, rel=1e-9)
        assert out.arb_count == 0

    def test_sticky_trade_triggers_single_arbitrage(self):
        # a loyal trade large enough to push pool 1 past the fee band
        pool1 = PoolState(1000.0, 1000.0, fee=0.003)
        pool2 = PoolState(1000.0, 1000.0, fee=0.003)
        out, final1, final2 = replay_trades(pool1, pool2, [TradeEvent("a2b", 100.0)], [1])
        assert out.rerouted_count == 0
        assert out.arb_count == 1
        # afterwards the prices sit inside the no-arbitrage band
        assert arbitrage(final1, final2) is None
        band = 1.0 / (0.997 * 0.997)
        ratio = final1.price / final2.price
        assert 1.0 / band <= ratio <= band

    def test_deviation_threshold_reroutes_bad_sticky_trade(self):
        # pool 1 is tiny: executing there alone is >10% worse than routing
        pool1 = PoolState(100.0, 100.0, fee=0.003)
        pool2 = PoolState(10000.0, 10000.0, fee=0.003)
        out = replay_trades(pool1, pool2, [TradeEvent("a2b", 60.0)], [1])[0]
        assert out.rerouted_count == 1
        # the trade was split, so pool 2 got most of it
        assert out.volume_2 > out.volume_1

    def test_sticky_trade_within_threshold_stays(self):
        # small enough to stay inside the fee band: no reroute, no arbitrage
        pool1 = PoolState(1000.0, 1000.0, fee=0.003)
        pool2 = PoolState(1000.0, 1000.0, fee=0.003)
        out = replay_trades(pool1, pool2, [TradeEvent("a2b", 2.0)], [1])[0]
        assert out.rerouted_count == 0
        assert out.arb_count == 0
        assert out.volume_1 == pytest.approx(2.0, rel=1e-12)
        assert out.volume_2 == 0.0

    def test_bit_identical_replay(self):
        trades = lognormal_trace(800, 50.0)
        labels = assign_sticky(trades, 0.1, 0.05, seed=3)
        pools = PoolState(5e5, 5e5, fee=0.003), PoolState(5e5, 5e5, fee=0.003)
        assert replay_trades(*pools, trades, labels)[0] == replay_trades(*pools, trades, labels)[0]

    def test_fees_proportional_to_volume(self):
        trades = lognormal_trace(1000, 50.0)
        labels = assign_sticky(trades, 0.15, 0.1, seed=9)
        out = replay_trades(
            PoolState(4e5, 4e5, fee=0.003), PoolState(6e5, 6e5, fee=0.003), trades, labels
        )[0]
        assert out.fees_1 == pytest.approx(0.003 * out.volume_1, rel=1e-9)
        assert out.fees_2 == pytest.approx(0.003 * out.volume_2, rel=1e-9)

    def test_volume_conservation_a2b_trace(self):
        # token-0 only trades need no price conversion: executed non-arbitrage
        # volume equals trace volume exactly
        rng = random.Random(31)
        trades = [TradeEvent("a2b", rng.uniform(1.0, 500.0)) for _ in range(500)]
        trades += [TradeEvent("a2b", 40.0) for _ in range(100)]
        labels = [0] * 500 + [1] * 100
        out = replay_trades(
            PoolState(1e5, 1e5, fee=0.003), PoolState(1e5, 1e5, fee=0.003), trades, labels
        )[0]
        executed = out.volume_1 + out.volume_2 - out.arb_volume_1 - out.arb_volume_2
        traced = sum(ev.amount_in for ev in trades)
        assert executed == pytest.approx(traced, rel=1e-9)

    def test_volume_conservation_mixed_trace(self):
        trades = lognormal_trace(2000, 30.0)
        labels = assign_sticky(trades, 0.1, 0.05, seed=17)
        out = replay_trades(
            PoolState(1e6, 1e6, fee=0.003), PoolState(1e6, 1e6, fee=0.003), trades, labels
        )[0]
        executed = out.volume_1 + out.volume_2 - out.arb_volume_1 - out.arb_volume_2
        traced = sum(ev.amount_in for ev in trades)
        # token-1 legs convert at drifting prices, so only near equality holds
        assert executed == pytest.approx(traced, rel=5e-3)

    def test_unbalanced_pools_rejected(self):
        with pytest.raises(ValueError):
            replay_trades(
                PoolState(100.0, 100.0), PoolState(100.0, 150.0), [TradeEvent("a2b", 1.0)], [0]
            )[0]

    def test_no_arbitrage_left_after_each_trade(self):
        # replay manually, checking the no-arb postcondition after every step
        pool1 = PoolState(2000.0, 2000.0, fee=0.003)
        pool2 = PoolState(8000.0, 8000.0, fee=0.003)
        rng = random.Random(61)

        for _ in range(200):
            direction = "a2b" if rng.random() < 0.5 else "b2a"
            target = rng.choice([1, 2])
            amount = rng.uniform(1.0, 150.0)
            if target == 1:
                _, pool1 = execute_swap(pool1, amount, direction)
            else:
                _, pool2 = execute_swap(pool2, amount, direction)
            trade = arbitrage(pool1, pool2)
            if trade is not None:
                pool1, pool2 = trade.pool1, trade.pool2
            assert arbitrage(pool1, pool2) is None


    @pytest.mark.parametrize("labels", [[0], [0, 0, 0]])
    def test_labels_must_match_trades_one_to_one(self, labels):
        pools = PoolState(1000.0, 1000.0, fee=0.003), PoolState(1000.0, 1000.0, fee=0.003)
        trades = [TradeEvent("a2b", 5.0), TradeEvent("b2a", 5.0)]
        with pytest.raises(ValueError, match="labels"):
            replay_trades(*pools, trades, labels)

    @pytest.mark.parametrize("label", [-1, 3, None])
    def test_label_outside_range_rejected(self, label):
        pools = PoolState(1000.0, 1000.0, fee=0.003), PoolState(1000.0, 1000.0, fee=0.003)
        with pytest.raises(ValueError, match="labels"):
            replay_trades(*pools, [TradeEvent("a2b", 5.0)], [label])

    def test_out_of_scale_trace_rejected(self):
        # one trace ended in a math domain error, the other returned a pool
        # whose token-1 reserve had rounded to 0.0
        small = PoolState(1e3, 1e3)
        big_round_trip = [TradeEvent("a2b", 1e22), TradeEvent("b2a", 1e22), TradeEvent("a2b", 5.0)]
        with pytest.raises(TraceScaleError, match="reserves"):
            replay_trades(small, small, big_round_trip, [0, 0, 0])
        with_fee = PoolState(1e3, 1e3, fee=0.003)
        with pytest.raises(TraceScaleError, match="reserves"):
            replay_trades(with_fee, with_fee, [TradeEvent("a2b", 1e200)], [0])


def reference_step(pool1, pool2, trade, label, threshold):
    """One trade of the replay composed from cpmm: route, execute, arbitrage.

    Routing follows the convex formulation of Angeris et al., "Optimal
    Routing for CFMMs" (arXiv:2204.05238), solved by cpmm.optimal_split.  A
    loyal trade reroutes when its own pool's output falls short of the
    optimal route's by more than threshold times the latter.  Volumes are
    token-0: a token-1 leg converts at its pool's pre-trade price.  Returns
    the new pools and the tallies of SimOutcome for this one trade.
    """
    pools = [pool1, pool2]
    split = optimal_split(pools, trade.amount_in, trade.direction)
    amounts = split.amounts
    rerouted = 0
    if label:
        direct = quote(pools[label - 1], trade.amount_in, trade.direction)
        if split.total_out - direct > threshold * split.total_out:
            rerouted = 1
        else:
            amounts = (trade.amount_in, 0.0) if label == 1 else (0.0, trade.amount_in)

    volume = [0.0, 0.0]
    for i, x in enumerate(amounts):
        if x > 0.0:
            pool = pools[i]
            volume[i] += x if trade.direction == "a2b" else x * pool.reserve_a / pool.reserve_b
            pools[i] = execute_swap(pool, x, trade.direction)[1]

    arb_volume = [0.0, 0.0]
    arb = arbitrage(*pools)
    if arb is not None:
        into, back = arb.pool_in - 1, 2 - arb.pool_in
        arb_volume[into] = arb.amount_in
        arb_volume[back] = arb.amount_mid * pools[back].reserve_a / pools[back].reserve_b
        pools = [arb.pool1, arb.pool2]
    volume = [v + a for v, a in zip(volume, arb_volume)]
    outcome = SimOutcome(
        volume_1=volume[0],
        volume_2=volume[1],
        fees_1=pool1.fee * volume[0],
        fees_2=pool2.fee * volume[1],
        arb_count=int(arb is not None),
        rerouted_count=rerouted,
        arb_volume_1=arb_volume[0],
        arb_volume_2=arb_volume[1],
    )
    return outcome, pools[0], pools[1]


class TestReplayAgainstCpmm:
    """The hand-inlined replay kernel equals cpmm's math, trade by trade."""

    @pytest.mark.parametrize("fees", [(0.003, 0.003), (0.003, 0.001)])
    def test_each_trade_matches_reference_step(self, fees):
        rng = random.Random(2204)
        trades = lognormal_trace(300, 50.0, sigma=1.5, seed=5)
        labels = [rng.choice([0, 0, 1, 2]) for _ in trades]
        # pool 1 is small enough that its loyal trades above ~600 reroute
        pool1 = PoolState(5e3, 5e3, fee=fees[0])
        pool2 = PoolState(2e4, 2e4, fee=fees[1])
        tallies = [0, 0]
        for trade, label in zip(trades, labels):
            out, new1, new2 = replay_trades(pool1, pool2, [trade], [label])
            ref, ref1, ref2 = reference_step(pool1, pool2, trade, label, 0.1)
            assert (out.arb_count, out.rerouted_count) == (ref.arb_count, ref.rerouted_count)
            for field in ("volume_1", "volume_2", "fees_1", "fees_2", "arb_volume_1", "arb_volume_2"):
                assert getattr(out, field) == pytest.approx(getattr(ref, field), rel=1e-9), field
            for got, want in ((new1, ref1), (new2, ref2)):
                for field in ("reserve_a", "reserve_b", "fee_ledger_a", "fee_ledger_b"):
                    assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-9), field
            tallies[0] += ref.arb_count
            tallies[1] += ref.rerouted_count
            pool1, pool2 = ref1, ref2
        # both the arbitrage and the reroute branches ran
        assert min(tallies) > 0


class TestFindEquilibrium:
    def test_symmetric_scenario_splits_evenly(self):
        trades = [TradeEvent("a2b" if i % 2 == 0 else "b2a", 10.0) for i in range(2000)]
        params = ModelParams(t1=0.1, t2=0.1, s1=0.4, s2=0.4, d=0.0, f=0.003)
        eq = find_equilibrium(params, trades, 1e6, seed=3)
        assert eq.l1 == pytest.approx(0.5, abs=1e-12)

    def test_winner_take_all_boundaries(self):
        trades = lognormal_trace(400, 50.0)
        low = ModelParams(t1=0.05, t2=0.167, s1=0.0, s2=0.0, d=0.0, f=0.003)
        high = ModelParams(t1=0.3, t2=0.167, s1=0.0, s2=0.0, d=0.0, f=0.003)
        eq_low = find_equilibrium(low, trades, 1e6)
        eq_high = find_equilibrium(high, trades, 1e6)
        assert eq_low.l1 == 1.0
        assert eq_low.r2 is None
        assert eq_high.l1 == 0.0
        assert eq_high.rev1 == 0.0

    def test_interior_matches_analytical(self):
        # analytical oracle gives 4/9; the replay lands nearby
        trades = lognormal_trace(10000, 20.0)
        params = ModelParams(t1=0.2, t2=0.0, s1=0.1, s2=0.0, d=0.0, f=0.003)
        eq = find_equilibrium(params, trades, 1e6)
        assert eq.l1 == pytest.approx(4.0 / 9.0, abs=0.02)
        assert eq.r1 is not None and eq.r2 is not None

    def test_bracketing_matches_full_scan(self):
        trades = lognormal_trace(600, 30.0)
        for t1, s1, s2, d in [(0.2, 0.1, 0.0, 0.0), (0.15, 0.1, 0.05, 0.0), (0.25, 0.2, 0.1, 0.1)]:
            params = ModelParams(t1=t1, t2=0.05, s1=s1, s2=s2, d=d, f=0.003)
            fast = find_equilibrium(params, trades, 1e6, liquidity_step=0.02)
            slow = find_equilibrium(params, trades, 1e6, liquidity_step=0.02, full_scan=True)
            assert fast.l1 == slow.l1
            assert fast.rev1 == slow.rev1

    def test_zero_fee_rejected(self):
        params = ModelParams(t1=0.1, t2=0.0, s1=0.1, f=0.0)
        with pytest.raises(ValueError):
            find_equilibrium(params, lognormal_trace(10, 5.0), 1e6)

    def test_out_of_scale_trace_rejected_before_any_replay(self, monkeypatch):
        def no_replay(*args, **kwargs):
            raise AssertionError("replayed an out-of-scale trace")

        monkeypatch.setattr(simulation, "_replay_two", no_replay)
        monkeypatch.setattr(simulation, "_replay_single", no_replay)
        params = ModelParams(t1=0.1, t2=0.0, s1=0.1)
        # a trade that rounds a 5,000-unit pool away, and one past float range
        for amounts in ([1e20, 30.0], [1e300, 1e300]):
            trades = [TradeEvent("a2b", a) for a in amounts]
            with pytest.raises(TraceScaleError, match="L_total"):
                find_equilibrium(params, trades, 1e6)

    def test_step_errors_name_the_key(self):
        params = ModelParams(t1=0.1, t2=0.0, s1=0.1)
        trades = lognormal_trace(10, 5.0)
        with pytest.raises(ValueError, match="liquidity_step"):
            find_equilibrium(params, trades, 1e6, liquidity_step=0.6)
        with pytest.raises(ValueError, match="take_step"):
            sweep_take_rate(params, trades, 1e6, take_step=0.0)
        for key in ("take_step", "liquidity_step"):
            with pytest.raises(ConfigError, match=key):
                ScenarioConfig(t2=0.0, s1=0.1, f=0.003, L_total=1e6, trace="x", **{key: 0.7})

    def test_result_volumes_sum_to_trace_volume(self):
        # token-0-only trades avoid price conversion: the equilibrium result's
        # per-pool volumes (arbitrage excluded) add up to the trace volume
        rng = random.Random(53)
        trades = [TradeEvent("a2b", rng.uniform(1.0, 200.0)) for _ in range(1500)]
        params = ModelParams(t1=0.2, t2=0.0, s1=0.1, s2=0.0, d=0.0, f=0.003)
        eq = find_equilibrium(params, trades, 1e6)
        assert 0.0 < eq.l1 < 1.0
        traced = sum(ev.amount_in for ev in trades)
        assert eq.v1 + eq.v2 == pytest.approx(traced, rel=1e-9)


class TestSweepTakeRate:
    def test_winner_take_all_curve_shape(self):
        trades = lognormal_trace(400, 30.0)
        params = ModelParams(t1=0.0, t2=0.167, s1=0.0, s2=0.0, d=0.0, f=0.003)
        curve = sweep_take_rate(params, trades, 1e6, take_step=0.02, liquidity_step=0.02)
        for sample in curve.samples:
            if sample.t1 < 0.167:
                assert sample.l1 == 1.0
                assert sample.rev1 == pytest.approx(sample.t1, abs=0.01)
            elif sample.t1 > 0.167:
                assert sample.l1 == 0.0
                assert sample.rev1 == 0.0

    def test_grid_is_strictly_increasing(self):
        trades = lognormal_trace(100, 20.0)
        params = ModelParams(t1=0.0, t2=0.0, s1=0.1, s2=0.0, d=0.0, f=0.003)
        curve = sweep_take_rate(params, trades, 1e5, take_step=0.1, liquidity_step=0.05)
        ts = [s.t1 for s in curve.samples]
        assert ts == sorted(ts)
        assert len(ts) == 11
        steps = [round(b - a, 12) for a, b in zip(ts, ts[1:])]
        assert all(s == pytest.approx(0.1, abs=1e-9) for s in steps)
        assert all(0.0 <= s.l1 <= 1.0 for s in curve.samples)

    def test_argmax_prefers_smaller_take_rate_on_ties(self):
        trades = lognormal_trace(200, 20.0)
        params = ModelParams(t1=0.0, t2=0.0, s1=0.1, s2=0.0, d=0.0, f=0.003)
        curve = sweep_take_rate(params, trades, 1e6, take_step=0.1, liquidity_step=0.05)
        best = curve.argmax()
        assert best in curve.samples
        flat = [s for s in curve.samples if s.rev1 == best.rev1]
        assert best.t1 == min(s.t1 for s in flat)

    def test_full_liquidity_retained_up_to_sticky_rate(self):
        # fork scenario with d=0: the pool keeps every LP while t1 <= s1 and
        # starts bleeding liquidity right above
        trades = lognormal_trace(2000, 20.0)
        params = ModelParams(t1=0.0, t2=0.0, s1=0.1, s2=0.0, d=0.0, f=0.003)
        curve = sweep_take_rate(params, trades, 1e6, take_step=0.01)
        cutoff = max(s.t1 for s in curve.samples if s.l1 == 1.0)
        assert cutoff == pytest.approx(0.1, abs=0.01 + 1e-9)

    def test_sticky_liquidity_argmax_near_closed_form(self):
        # d=0.1 fork scenario: the simulated optimum sits by the analytic
        # 0.1818 (the revenue peak is sharp, so the full grid resolves it)
        trades = lognormal_trace(2000, 20.0)
        params = ModelParams(t1=0.0, t2=0.0, s1=0.1, s2=0.0, d=0.1, f=0.003)
        curve = sweep_take_rate(params, trades, 1e6, take_step=0.01)
        best = curve.argmax()
        assert abs(best.t1 - (1.0 - 0.9 / 1.1)) <= 0.02

    def test_competitor_sticky_volume_blocks_full_capture(self):
        # with s2 > 0 the competitor always retains loyal revenue, so pool 1
        # never ends up holding all liquidity, at any take rate; around the
        # analytic optimum the replayed revenue tracks the closed form
        trades = lognormal_trace(1500, 30.0)
        params = ModelParams(t1=0.0, t2=0.167, s1=0.1, s2=0.05, d=0.0, f=0.003)
        curve = sweep_take_rate(params, trades, 1e6, take_step=0.05, liquidity_step=0.02)
        assert all(s.l1 < 1.0 for s in curve.samples)
        near_opt = next(s for s in curve.samples if abs(s.t1 - 0.25) < 1e-9)
        assert near_opt.rev1 == pytest.approx(0.1295, abs=0.02)
        assert 0.3 < near_opt.l1 < 0.7

    # a sticky fork whose curve holds all liquidity up to t1 = s1 and none at
    # t1 = 1, and a winner-take-all market
    SCENARIOS = [
        ModelParams(t1=0.0, t2=0.0, s1=0.1, s2=0.0, d=0.1, f=0.003),
        ModelParams(t1=0.0, t2=0.167, s1=0.0, s2=0.0, d=0.0, f=0.003),
    ]

    @pytest.mark.parametrize("params", SCENARIOS)
    def test_equals_one_search_per_take_rate(self, params):
        trades = lognormal_trace(400, 30.0)
        curve = sweep_take_rate(params, trades, 1e6, take_step=0.05, liquidity_step=0.02, seed=9)
        expected = []
        for i in range(21):
            t1 = min(1.0, i * 0.05)
            eq = find_equilibrium(replace(params, t1=t1), trades, 1e6, 0.02, seed=9)
            assert eq.t1 == t1
            expected.append(eq)
        assert curve.samples == tuple(expected)
        shares = {s.l1 for s in curve.samples}
        assert {0.0, 1.0} <= shares

    @pytest.mark.parametrize("params", SCENARIOS)
    def test_labels_once_and_replays_each_cell_once(self, params, monkeypatch):
        calls = {}

        def count(name, key):
            fn = getattr(simulation, name)
            calls[name] = []

            def wrapper(*args, **kwargs):
                calls[name].append(key(args, kwargs))
                return fn(*args, **kwargs)

            monkeypatch.setattr(simulation, name, wrapper)

        count("assign_sticky", lambda args, kwargs: None)
        count("_replay_two", lambda args, kwargs: (args[0], args[3]))  # (L1, L2)
        count("_replay_single", lambda args, kwargs: kwargs["own_label"])
        trades = lognormal_trace(400, 30.0)
        sweep_take_rate(params, trades, 1e6, take_step=0.05, liquidity_step=0.02, seed=9)
        assert len(calls["assign_sticky"]) == 1
        splits = calls["_replay_two"]
        assert len(splits) == len(set(splits))
        assert len(splits) <= 49  # the interior grid {0.02, ..., 0.98}
        assert sorted(calls["_replay_single"]) == [1, 2]

    def test_deterministic_curve(self):
        trades = lognormal_trace(300, 25.0)
        params = ModelParams(t1=0.0, t2=0.0, s1=0.1, s2=0.05, d=0.0, f=0.003)
        a = sweep_take_rate(params, trades, 1e6, take_step=0.05, liquidity_step=0.05, seed=5)
        b = sweep_take_rate(params, trades, 1e6, take_step=0.05, liquidity_step=0.05, seed=5)
        assert a == b

    def test_agreement_with_analytical_curve(self):
        # many small trades: the simulated revenue tracks the closed form
        # within 0.01 up to the optimum and never sits more than 0.01 below
        # it, wherever the analytic share is resolvable on the liquidity grid
        # (near t1 = 1 the share rounds to zero and revenue drops, as in the
        # discrete procedure itself)
        trades = lognormal_trace(6000, 20.0)
        params = ModelParams(t1=0.0, t2=0.0, s1=0.1, s2=0.0, d=0.0, f=0.003)
        t_star = 0.1
        curve = sweep_take_rate(params, trades, 1e6, take_step=0.02)
        for sample in curve.samples:
            if equilibrium_share(replace(params, t1=sample.t1)) < 0.005:
                continue
            analytic = protocol_revenue(replace(params, t1=sample.t1))
            if sample.t1 <= t_star:
                assert sample.rev1 == pytest.approx(analytic, abs=0.01)
            else:
                assert sample.rev1 >= analytic - 0.01
