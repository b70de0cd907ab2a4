"""Trade replay and equilibrium-search tests.

Analytical agreement is checked against the closed-form module on synthetic
traces of many small trades; mechanics (sticky selection, rerouting,
arbitrage, determinism, volume conservation) are checked directly.
"""

import marshal
import math
import os
import random
import signal
import threading
from array import array
from dataclasses import replace
from types import SimpleNamespace

import pytest

from takerate import simulation
from takerate.analytical import ModelParams, equilibrium_share, protocol_revenue, take_rate_grid
from takerate.cpmm import PoolState, arbitrage, execute_swap, optimal_split, quote
from takerate.data_io import ConfigError, ScenarioConfig
from takerate.simulation import (
    SimOutcome,
    SweepCurve,
    Trace,
    TraceScaleError,
    assign_sticky,
    find_equilibrium,
    replay_trades,
    sweep_take_rate,
)
from traces import trace_of


def lognormal_trace(n, median, sigma=1.0, bias=0.5, seed=123):
    rng = random.Random(seed)
    a2b = bytearray()
    amounts = array("d")
    for _ in range(n):
        a2b.append(rng.random() < bias)
        amounts.append(rng.lognormvariate(math.log(median), sigma))
    return Trace(bytes(a2b), amounts)


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
        trades = trace_of(*[("a2b", x) for x in (90.0, 3.0, 1.0, 4.0, 2.0)])
        labels = assign_sticky(trades, 0.1, 0.0, seed=5)
        assert labels == [0, 1, 1, 1, 1]

    def test_pool1_share_splits_sticky_volume(self):
        trades = lognormal_trace(2000, 10.0)
        labels = assign_sticky(trades, 0.1, 0.05, seed=7)
        total = sum(trades.amounts)
        vol1 = sum(a for a, lab in zip(trades.amounts, labels) if lab == 1)
        vol2 = sum(a for a, lab in zip(trades.amounts, labels) if lab == 2)
        assert (vol1 + vol2) / total == pytest.approx(0.15, abs=0.01)
        # discretization slack: one labeled trade at most
        w = max(a for a, lab in zip(trades.amounts, labels) if lab) / total
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
        sticky_sizes = [a for a, lab in zip(trades.amounts, labels) if lab]
        loose_sizes = [a for a, lab in zip(trades.amounts, labels) if not lab]
        assert max(sticky_sizes) <= min(loose_sizes)

    @pytest.mark.parametrize("s1, s2", [(0.1, 0.0), (0.3, 0.0), (0.0, 0.2)])
    def test_seed_has_no_effect_with_one_loyal_pool(self, s1, s2):
        trades = lognormal_trace(2000, 10.0)
        first = assign_sticky(trades, s1, s2, seed=1)
        assert set(first) == {0, 1 if s2 == 0.0 else 2}
        assert all(assign_sticky(trades, s1, s2, seed=k) == first for k in (2, 3, 4))

    def test_seed_splits_the_loyal_trades_between_two_pools(self):
        trades = lognormal_trace(2000, 10.0)
        assert assign_sticky(trades, 0.1, 0.1, seed=1) != assign_sticky(trades, 0.1, 0.1, seed=2)

    def test_no_pool2_label_without_pool2_loyalty(self):
        # once a shuffle put the 1e17 trade first, the running sum already
        # equalled the sticky volume, since the 1s are below its rounding,
        # and the trades after it went to pool 2
        trades = trace_of(("a2b", 1.0), ("a2b", 1.0), ("a2b", 1.0), ("b2a", 1e17))
        for seed in range(6):
            assert assign_sticky(trades, 0.5, 0.0, seed) == [1, 1, 1, 1]

    def test_validation(self):
        with pytest.raises(ValueError, match="trace must not be empty"):
            assign_sticky(trace_of(), 0.1, 0.0)
        with pytest.raises(ValueError):
            assign_sticky(trace_of(("a2b", 1.0)), 0.7, 0.4)

    @pytest.mark.parametrize("s1, s2", [(math.nan, 0.0), (0.0, math.nan), (0.1, math.nan)])
    def test_nan_rate_rejected(self, s1, s2):
        # a NaN rate used to label every trade loyal to pool 2
        with pytest.raises(ValueError, match=r"s[12] must lie in \[0, 1\], got nan"):
            assign_sticky(lognormal_trace(20, 10.0), s1, s2)

    @pytest.mark.parametrize(
        "s1, s2",
        [(math.nan, 0.0), (0.1, math.nan), (-0.1, 0.0), (0.0, math.inf), (1.5, 0.0), (0.7, 0.4)],
    )
    def test_same_sticky_rate_rule_as_model_params(self, s1, s2):
        with pytest.raises(ValueError) as model:
            ModelParams(t1=0.0, t2=0.0, s1=s1, s2=s2)
        with pytest.raises(ValueError) as labeller:
            assign_sticky(lognormal_trace(20, 10.0), s1, s2)
        assert str(labeller.value) == str(model.value)


class TestVolume:
    def test_sums_left_to_right(self):
        # compensated summation, as sum() does from Python 3.12 on, gives 1e16 + 2
        assert simulation._volume(array("d", [1e16, 1.0, 1.0])) == 1e16

    def test_every_reader_of_the_volume_sums_left_to_right(self):
        trace = trace_of(("a2b", 1e16), ("b2a", 1.0), ("a2b", 1.0))
        params = ModelParams(t1=0.1, t2=0.0, s1=0.1, f=0.003)
        assert simulation._CellTable(params, trace, 1e14, 0.5, 0, 0.1).total_volume == 1e16


class TestSimulateTrades:
    def test_zero_trades_zero_outcome(self):
        pools = PoolState(1000.0, 1000.0, fee=0.003), PoolState(1000.0, 1000.0, fee=0.003)
        out = replay_trades(*pools, trace_of(), [])[0]
        assert out == SimOutcome(0.0, 0.0, 0, 0, 0.0, 0.0)

    def test_single_trade_splits_evenly_across_equal_pools(self):
        pools = PoolState(1000.0, 1000.0, fee=0.003), PoolState(1000.0, 1000.0, fee=0.003)
        out = replay_trades(*pools, trace_of(("a2b", 50.0)), [0])[0]
        assert out.volume_1 == pytest.approx(25.0, rel=1e-9)
        assert out.volume_2 == pytest.approx(25.0, rel=1e-9)
        assert out.arb_count == 0

    def test_sticky_trade_triggers_single_arbitrage(self):
        # a loyal trade large enough to push pool 1 past the fee band
        pool1 = PoolState(1000.0, 1000.0, fee=0.003)
        pool2 = PoolState(1000.0, 1000.0, fee=0.003)
        out, final1, final2 = replay_trades(pool1, pool2, trace_of(("a2b", 100.0)), [1])
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
        out = replay_trades(pool1, pool2, trace_of(("a2b", 60.0)), [1])[0]
        assert out.rerouted_count == 1
        # the trade was split, so pool 2 got most of it
        assert out.volume_2 > out.volume_1

    def test_sticky_trade_within_threshold_stays(self):
        # small enough to stay inside the fee band: no reroute, no arbitrage
        pool1 = PoolState(1000.0, 1000.0, fee=0.003)
        pool2 = PoolState(1000.0, 1000.0, fee=0.003)
        out = replay_trades(pool1, pool2, trace_of(("a2b", 2.0)), [1])[0]
        assert out.rerouted_count == 0
        assert out.arb_count == 0
        assert out.volume_1 == pytest.approx(2.0, rel=1e-12)
        assert out.volume_2 == 0.0

    def test_bit_identical_replay(self):
        trades = lognormal_trace(800, 50.0)
        labels = assign_sticky(trades, 0.1, 0.05, seed=3)
        pools = PoolState(5e5, 5e5, fee=0.003), PoolState(5e5, 5e5, fee=0.003)
        assert replay_trades(*pools, trades, labels)[0] == replay_trades(*pools, trades, labels)[0]

    def test_volume_conservation_a2b_trace(self):
        # token-0 only trades need no price conversion: executed non-arbitrage
        # volume equals trace volume exactly
        rng = random.Random(31)
        amounts = [rng.uniform(1.0, 500.0) for _ in range(500)] + [40.0] * 100
        trades = Trace(bytes([1] * 600), array("d", amounts))
        labels = [0] * 500 + [1] * 100
        out = replay_trades(
            PoolState(1e5, 1e5, fee=0.003), PoolState(1e5, 1e5, fee=0.003), trades, labels
        )[0]
        executed = out.volume_1 + out.volume_2 - out.arb_volume_1 - out.arb_volume_2
        assert executed == pytest.approx(sum(amounts), rel=1e-9)

    def test_volume_conservation_mixed_trace(self):
        trades = lognormal_trace(2000, 30.0)
        labels = assign_sticky(trades, 0.1, 0.05, seed=17)
        out = replay_trades(
            PoolState(1e6, 1e6, fee=0.003), PoolState(1e6, 1e6, fee=0.003), trades, labels
        )[0]
        executed = out.volume_1 + out.volume_2 - out.arb_volume_1 - out.arb_volume_2
        traced = sum(trades.amounts)
        # token-1 legs convert at drifting prices, so only near equality holds
        assert executed == pytest.approx(traced, rel=5e-3)

    def test_unbalanced_pools_rejected(self):
        with pytest.raises(ValueError):
            replay_trades(
                PoolState(100.0, 100.0), PoolState(100.0, 150.0), trace_of(("a2b", 1.0)), [0]
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
        trades = trace_of(("a2b", 5.0), ("b2a", 5.0))
        with pytest.raises(ValueError, match="labels"):
            replay_trades(*pools, trades, labels)

    @pytest.mark.parametrize("label", [-1, 3, None])
    def test_label_outside_range_rejected(self, label):
        pools = PoolState(1000.0, 1000.0, fee=0.003), PoolState(1000.0, 1000.0, fee=0.003)
        with pytest.raises(ValueError, match="labels"):
            replay_trades(*pools, trace_of(("a2b", 5.0)), [label])

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -0.5])
    def test_deviation_threshold_must_be_finite_and_nonnegative(self, threshold):
        # NaN and inf used to disable rerouting silently
        pools = PoolState(100.0, 100.0, fee=0.003), PoolState(1e4, 1e4, fee=0.003)
        with pytest.raises(ValueError, match="deviation_threshold must be finite and nonnegative"):
            replay_trades(*pools, trace_of(("a2b", 60.0)), [1], deviation_threshold=threshold)

    def test_out_of_scale_trace_rejected(self):
        # one trace ended in a math domain error, the other returned a pool
        # whose token-1 reserve had rounded to 0.0
        small = PoolState(1e3, 1e3)
        big_round_trip = trace_of(("a2b", 1e22), ("b2a", 1e22), ("a2b", 5.0))
        with pytest.raises(TraceScaleError, match="reserves"):
            replay_trades(small, small, big_round_trip, [0, 0, 0])
        with_fee = PoolState(1e3, 1e3, fee=0.003)
        with pytest.raises(TraceScaleError, match="reserves"):
            replay_trades(with_fee, with_fee, trace_of(("a2b", 1e200)), [0])


VOLUMES = ("volume_1", "volume_2", "arb_volume_1", "arb_volume_2")


def replay_two(pool1, pool2, trace, labels, threshold):
    """The two-pool kernel from two pools: the outcome and the end reserves."""
    outcome, end1, end2 = simulation._replay_two(
        pool1.reserve_a, pool1.reserve_b, pool1.fee,
        pool2.reserve_a, pool2.reserve_b, pool2.fee,
        simulation._compile(trace, labels), threshold,
    )
    return outcome, end1 + end2


class TestReplayAgainstCpmm:
    """The inlined kernels equal the cpmm-composed replay, trade by trade.

    replay_trades composes cpmm's routing, swap and arbitrage functions; the
    two-pool kernel is checked against it, and the single-pool kernel
    against a chain of cpmm swaps.
    """

    @pytest.mark.parametrize("fees", [(0.003, 0.003), (0.003, 0.001)])
    def test_each_trade_matches_the_reference_replay(self, fees):
        rng = random.Random(2204)
        trades = lognormal_trace(300, 50.0, sigma=1.5, seed=5)
        labels = [rng.choice([0, 0, 1, 2]) for _ in range(len(trades))]
        # pool 1 is small enough that its loyal trades above ~600 reroute
        pool1 = PoolState(5e3, 5e3, fee=fees[0])
        pool2 = PoolState(2e4, 2e4, fee=fees[1])
        tallies = [0, 0]
        for is_a2b, amount, label in zip(trades.a2b, trades.amounts, labels):
            trade = trace_of(("a2b" if is_a2b else "b2a", amount))
            ref, ref1, ref2 = replay_trades(pool1, pool2, trade, [label])
            out, reserves = replay_two(pool1, pool2, trade, [label], 0.1)
            assert (out.arb_count, out.rerouted_count) == (ref.arb_count, ref.rerouted_count)
            for field in VOLUMES:
                assert getattr(out, field) == pytest.approx(getattr(ref, field), rel=1e-9), field
            want = (ref1.reserve_a, ref1.reserve_b, ref2.reserve_a, ref2.reserve_b)
            assert reserves == pytest.approx(want, rel=1e-9)
            tallies[0] += ref.arb_count
            tallies[1] += ref.rerouted_count
            pool1, pool2 = ref1, ref2
        # both the arbitrage and the reroute branches ran
        assert min(tallies) > 0

    @pytest.mark.parametrize("above", [True, False])
    @pytest.mark.parametrize(
        "pool1, pool2, amount",
        [
            # a large trade into a tiny pool: the kernel solves the split
            (PoolState(100.0, 100.0, fee=0.003), PoolState(1e4, 1e4, fee=0.003), 60.0),
            # a small trade into the dearer pool: when it stays, the kernel
            # skips the split by a hair
            (PoolState(1e6, 1e6, fee=0.01), PoolState(1e6, 1e6, fee=0.003), 0.5),
        ],
    )
    def test_reroute_decision_either_side_of_the_threshold(self, pool1, pool2, amount, above):
        # a trade loyal to pool 1 whose direct / best output lies 1e-6 above
        # or below 1 - threshold: it stays above and reroutes below
        best = optimal_split([pool1, pool2], amount, "a2b").total_out
        direct = quote(pool1, amount, "a2b")
        threshold = 1.0 - direct / best / (1.0 + 1e-6 if above else 1.0 - 1e-6)
        trade = trace_of(("a2b", amount))
        ref = replay_trades(pool1, pool2, trade, [1], threshold)[0]
        out = replay_two(pool1, pool2, trade, [1], threshold)[0]
        assert ref.rerouted_count == (not above)
        assert (out.arb_count, out.rerouted_count) == (ref.arb_count, ref.rerouted_count)
        for field in VOLUMES:
            assert getattr(out, field) == pytest.approx(getattr(ref, field), rel=1e-9), field
        if above and amount < 1.0:
            rates = [p.reserve_b * (1.0 - p.fee) / p.reserve_a for p in (pool1, pool2)]
            bound = (1.0 - threshold + simulation._SKIP_MARGIN) * amount * max(rates)
            assert direct >= bound

    @pytest.mark.parametrize("fee", [0.003, 0.01])
    @pytest.mark.parametrize("own_label", [1, 2])
    def test_single_pool_replay_matches_swap_chain(self, own_label, fee):
        rng = random.Random(2204)
        trades = lognormal_trace(300, 50.0, sigma=1.5, seed=5)
        labels = [rng.choice([0, 0, 1, 2]) for _ in range(len(trades))]
        L = 2e4
        compiled = simulation._compile(trades, labels)
        out = simulation._replay_single(L, L, fee, compiled, own_label=own_label)

        # every trade executes in the one pool; a token-1 leg and its fee
        # convert to token-0 at the pre-trade price
        pool = PoolState(L, L, fee=fee)
        volume = fees = 0.0
        for is_a2b, amount in zip(trades.a2b, trades.amounts):
            price = pool.reserve_a / pool.reserve_b
            before = pool.fee_ledger_a + pool.fee_ledger_b * price
            volume += amount if is_a2b else amount * price
            pool = execute_swap(pool, amount, "a2b" if is_a2b else "b2a")[1]
            fees += pool.fee_ledger_a + pool.fee_ledger_b * price - before
        rerouted = sum(1 for lab in labels if lab not in (0, own_label))

        own, other = (1, 2) if own_label == 1 else (2, 1)
        assert getattr(out, f"volume_{own}") == pytest.approx(volume, rel=1e-9)
        # the fee revenue the search derives, f * volume, is the ledgers' fees
        assert fee * getattr(out, f"volume_{own}") == pytest.approx(fees, rel=1e-9)
        assert out.rerouted_count == rerouted > 0
        assert getattr(out, f"volume_{other}") == 0.0
        assert (out.arb_count, out.arb_volume_1, out.arb_volume_2) == (0, 0.0, 0.0)


class TestFindEquilibrium:
    def test_symmetric_scenario_splits_evenly(self):
        trades = Trace(bytes([1, 0] * 1000), array("d", [10.0] * 2000))
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

    @staticmethod
    def full_scan(params, trades, L_total, liquidity_step):
        """(l1, rev1) of the exhaustive search: every interior cell's residual."""
        table = simulation._CellTable(params, trades, L_total, liquidity_step, 0, 0.1)
        m = table.m

        def residual(i):
            o, l1 = table.cell(i), table.shares[i]
            r1 = (1.0 - params.t1) * (params.f * o.volume_1) / (l1 * L_total)
            r2 = (1.0 - params.t2) * (params.f * o.volume_2) / ((1.0 - l1) * L_total)
            return r1 * (1.0 + params.d) - r2

        res = {i: residual(i) for i in range(1, m)}
        if res[m - 1] > 0.0:
            best = m  # pool 1 still the better deal: full migration
        elif res[1] < 0.0:
            best = 0
        else:
            # ties within 1e-12 go to the larger share
            least = min(abs(r) for r in res.values())
            best = max(i for i, r in res.items() if abs(r) <= least + 1e-12)
        rev1 = params.t1 * table.cell(best).volume_1 / table.total_volume
        return table.shares[best], rev1

    def test_bracketing_matches_full_scan(self):
        trades = lognormal_trace(600, 30.0)
        # three interior equilibria, then full migration to pool 1 and to pool 2
        cases = [(0.2, 0.1, 0.0, 0.0), (0.15, 0.1, 0.05, 0.0), (0.25, 0.2, 0.1, 0.1),
                 (0.02, 0.0, 0.0, 0.0), (0.3, 0.0, 0.0, 0.0)]
        shares = []
        for t1, s1, s2, d in cases:
            params = ModelParams(t1=t1, t2=0.05, s1=s1, s2=s2, d=d, f=0.003)
            fast = find_equilibrium(params, trades, 1e6, liquidity_step=0.02)
            assert (fast.l1, fast.rev1) == self.full_scan(params, trades, 1e6, 0.02)
            shares.append(fast.l1)
        assert all(0.0 < l1 < 1.0 for l1 in shares[:3]) and shares[3:] == [1.0, 0.0]

    @pytest.mark.parametrize("threshold", [-1.0, math.nan, math.inf])
    def test_deviation_threshold_must_be_finite_and_nonnegative(self, threshold):
        # these used to run: -1.0 rerouted every loyal trade and NaN none
        params = ModelParams(t1=0.1, t2=0.0, s1=0.1)
        trades = lognormal_trace(50, 5.0)
        match = "deviation_threshold must be finite and nonnegative"
        with pytest.raises(ValueError, match=match):
            find_equilibrium(params, trades, 1e6, deviation_threshold=threshold)
        with pytest.raises(ValueError, match=match):
            sweep_take_rate(params, trades, 1e6, deviation_threshold=threshold)

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
            trades = trace_of(*[("a2b", a) for a in amounts])
            with pytest.raises(TraceScaleError, match="L_total"):
                find_equilibrium(params, trades, 1e6)

    def test_replays_through_the_module_level_kernels(self, monkeypatch):
        # perfbench's tracer counts replays by wrapping _replay_two and
        # _replay_single by name, and finds the labelled trace as their one
        # list argument
        lists = {"_replay_two": [], "_replay_single": []}
        for name, seen in lists.items():
            def counted(*args, _kernel=getattr(simulation, name), _seen=seen, **kwargs):
                _seen.append([a for a in (*args, *kwargs.values()) if isinstance(a, list)])
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(simulation, name, counted)
        trades = lognormal_trace(400, 50.0)
        # pool 1 is the better deal at every split: cells 1, m-1 and m
        params = ModelParams(t1=0.05, t2=0.167, s1=0.1, s2=0.0, d=0.0, f=0.003)
        assert find_equilibrium(params, trades, 1e6).l1 == 1.0
        assert [len(seen) for seen in lists.values()] == [2, 1]
        compiled = simulation._compile(trades, assign_sticky(trades, 0.1, 0.0))
        for seen in lists.values():
            for found in seen:
                assert len(found) == 1 and found[0] == compiled

    def test_step_errors_name_the_key(self):
        params = ModelParams(t1=0.1, t2=0.0, s1=0.1)
        trades = lognormal_trace(10, 5.0)
        # 1e-310 and 5e-324 lie in (0, 0.5], but their reciprocals overflow
        for step in (0.6, 1e-310):
            with pytest.raises(ValueError, match="liquidity_step"):
                find_equilibrium(params, trades, 1e6, liquidity_step=step)
        for step in (0.0, 5e-324):
            with pytest.raises(ValueError, match="take_step"):
                sweep_take_rate(params, trades, 1e6, take_step=step)
        for key in ("take_step", "liquidity_step"):
            for step in (0.7, 1e-310, math.nan, math.inf):
                with pytest.raises(ConfigError, match=key):
                    ScenarioConfig(t2=0.0, s1=0.1, f=0.003, L_total=1e6, trace="x", **{key: step})

    @pytest.mark.parametrize(
        "L_total, problem", [(math.nan, "finite"), (math.inf, "finite"), (0.0, "positive")]
    )
    def test_L_total_must_be_finite_and_positive(self, L_total, problem):
        # NaN used to fail only as a TraceScaleError about pools "as small as nan"
        params = ModelParams(t1=0.1, t2=0.0, s1=0.1)
        trades = lognormal_trace(10, 5.0)
        with pytest.raises(ValueError, match=f"L_total must be {problem}, got {L_total}"):
            find_equilibrium(params, trades, L_total)
        with pytest.raises(ValueError, match=f"L_total must be {problem}, got {L_total}"):
            sweep_take_rate(params, trades, L_total)

    @pytest.mark.parametrize("step", [0.3, 0.4, 0.45])
    def test_liquidity_grid_reaches_its_last_interior_cell(self, step):
        # steps that do not divide 1 count their cells as the take-rate grid
        # does, so the search also tries 0.9 (0.3 and 0.45) and 0.8 (0.4)
        params = ModelParams(t1=0.1, t2=0.0, s1=0.0722, s2=0.0, d=0.0, f=0.003)
        trades = lognormal_trace(2000, 20.0)
        table = simulation._CellTable(params, trades, 1e6, step, 0, 0.1)
        grid = take_rate_grid(step)
        assert table.shares == grid
        # the closed form puts l1 near 0.7: between the last two interior cells
        assert find_equilibrium(params, trades, 1e6, step).l1 == grid[-2]

    def test_result_volumes_sum_to_trace_volume(self):
        # token-0-only trades avoid price conversion: the equilibrium result's
        # per-pool volumes (arbitrage excluded) add up to the trace volume
        rng = random.Random(53)
        trades = trace_of(*[("a2b", rng.uniform(1.0, 200.0)) for _ in range(1500)])
        params = ModelParams(t1=0.2, t2=0.0, s1=0.1, s2=0.0, d=0.0, f=0.003)
        eq = find_equilibrium(params, trades, 1e6)
        assert 0.0 < eq.l1 < 1.0
        traced = sum(trades.amounts)
        assert eq.v1 + eq.v2 == pytest.approx(traced, rel=1e-9)


class TestSearchTieRule:
    """_search's last step: residuals within 1e-12 of the least go to the larger share."""

    @staticmethod
    def search(gap):
        """The cells read and the result, over a stub table of five cells.

        With L_total = f = 1 and t1 = t2 = d = 0 the residual is
        volume_1/L1 - volume_2/L2: +1 at share 1/4, +2 at 1/2 and -(1 + gap)
        at 3/4, all exact but for gap's rounding.
        """
        shares = [0.0, 0.25, 0.5, 0.75, 1.0]
        rates = {1: (2.0, 1.0), 2: (3.0, 1.0), 3: (1.0, 2.0 + gap)}
        cells = {
            i: SimOutcome(r1 * shares[i], r2 * (1.0 - shares[i]), 0, 0, 0.0, 0.0)
            for i, (r1, r2) in rates.items()
        }
        table = SimpleNamespace(L_total=1.0, f=1.0, shares=shares, m=4, total_volume=1.0,
                                cell=cells.__getitem__)
        params = ModelParams(t1=0.0, t2=0.0, s1=0.0, s2=0.0, d=0.0, f=0.003)
        search = simulation._search(params, table)
        reads = []
        try:
            while True:
                reads.append(next(search))
        except StopIteration as done:
            return reads, done.value

    @pytest.mark.parametrize("gap", [0.0, 5e-13])
    def test_tie_goes_to_the_larger_share(self, gap):
        reads, result = self.search(gap)
        assert reads == [(1, 3), (2,)]
        assert (result.l1, result.r1, result.r2) == (0.75, 1.0, 2.0 + gap)

    def test_a_gap_beyond_the_tolerance_is_no_tie(self):
        reads, result = self.search(1e-9)
        assert reads == [(1, 3), (2,)]
        assert (result.l1, result.r1, result.r2) == (0.25, 2.0, 1.0)


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
    def test_labels_once_and_replays_each_cell_once(self, params, monkeypatch, tables):
        labellings = []
        assign = simulation.assign_sticky

        def count(*args, **kwargs):
            labellings.append(None)
            return assign(*args, **kwargs)

        monkeypatch.setattr(simulation, "assign_sticky", count)
        trades = lognormal_trace(400, 30.0)
        sweep_take_rate(params, trades, 1e6, take_step=0.05, liquidity_step=0.02, seed=9)
        assert len(labellings) == 1
        (table,) = tables
        # the table counts every replay it runs, so one per cell means no repeat
        assert table.replays == len(table.filled)
        assert len([i for i in table.filled if 0 < i < table.m]) <= 49  # {0.02, ..., 0.98}
        assert {0, table.m} <= table.filled

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


@pytest.fixture
def tables(monkeypatch):
    """Every _CellTable the code under test builds, in order."""
    built = []

    class Recording(simulation._CellTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

        @property
        def filled(self):
            return set(self._cells)

    monkeypatch.setattr(simulation, "_CellTable", Recording)
    return built


@pytest.fixture
def forks(monkeypatch):
    """Every os.fork the code under test calls, as the pid it returned."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


# long enough that a sweep's rounds fork (see _FORK_MIN_WORK)
HELPER_TRADES = lognormal_trace(6000, 30.0, seed=17)
HELPER_PARAMS = ModelParams(t1=0.0, t2=0.167, s1=0.1, s2=0.05, d=0.0, f=0.003)


def helper_sweep():
    return sweep_take_rate(HELPER_PARAMS, HELPER_TRADES, 2e6, 0.05, 0.005, seed=4)


@pytest.fixture(scope="module")
def serial():
    """helper_sweep's curve and filled cells, one search after another."""
    table = simulation._CellTable(HELPER_PARAMS, HELPER_TRADES, 2e6, 0.005, 4, 0.1)
    samples = [
        simulation._solve([simulation._search(replace(HELPER_PARAMS, t1=t1), table)], table)[0]
        for t1 in take_rate_grid(0.05)
    ]
    return SweepCurve(samples=tuple(samples)), set(table._cells)


# helper_sweep's rounds ask for 2, 2, 2, 4, 7, 12, 16, 19 and 13 new cells
ROUNDS_THAT_FORK = 6


def assert_no_child():
    with pytest.raises(ChildProcessError):  # every child reaped, none running
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(simulation._usable_cores() < 2, reason="forking needs two cores")
class TestParallelSweep:
    """The sweep's per-round children: same curve, same cells, nothing left running."""

    @pytest.fixture
    def children(self, monkeypatch):
        """Every child the sweep forks: (pid, reply pipe)."""
        started = []
        fork = simulation._CellTable._fork

        def recording(table, lent):
            child = fork(table, lent)
            if child is not None:
                started.append(child)
            return child

        monkeypatch.setattr(simulation._CellTable, "_fork", recording)
        return started

    @pytest.fixture
    def checked_fills(self, monkeypatch):
        """After every fill: its cells held, and no child left running."""
        fill = simulation._CellTable.fill

        def fill_then_check(table, indices):
            indices = set(indices)
            fill(table, indices)
            assert indices <= set(table._cells)
            assert_no_child()

        monkeypatch.setattr(simulation._CellTable, "fill", fill_then_check)

    @staticmethod
    def assert_stopped(children):
        for pid, replies in children:
            with pytest.raises(ChildProcessError):  # reaped, not left running
                os.waitpid(pid, os.WNOHANG)
            assert replies.closed
        assert_no_child()

    def test_equals_serial_search_cell_for_cell(self, serial, tables, children, checked_fills):
        curve = helper_sweep()
        (table,) = tables
        assert len(children) == ROUNDS_THAT_FORK
        assert curve == serial[0]
        assert table.filled == serial[1]
        assert table.replays == len(serial[1])
        self.assert_stopped(children)

    @pytest.mark.parametrize("when", ["before a request", "during a request", "never: bad reply"])
    def test_failed_helper_gives_the_same_curve(
        self, serial, tables, children, checked_fills, monkeypatch, when
    ):
        # the first round's child dies before it replays a cell of its
        # request, or while it replays them; or every child replies badly
        fork = simulation._CellTable._fork
        replay = simulation._CellTable._replay
        killed = []
        parent = os.getpid()

        def fork_then_kill(table, lent):
            child = fork(table, lent)
            if child is not None and not killed:
                pid = child[0]
                os.kill(pid, signal.SIGKILL)
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, left to reap
                killed.append(pid)
            return child

        def replay_then_die(table, i):
            outcome = replay(table, i)
            if os.getpid() != parent and not children:  # in the first round's child
                os.kill(os.getpid(), signal.SIGKILL)
            return outcome

        class BadReply:
            dump = staticmethod(marshal.dump)

            @staticmethod
            def load(stream):
                message = marshal.load(stream)
                return [("not", "an", "outcome")] if os.getpid() == parent else message

        if when == "before a request":
            monkeypatch.setattr(simulation._CellTable, "_fork", fork_then_kill)
        elif when == "during a request":
            monkeypatch.setattr(simulation._CellTable, "_replay", replay_then_die)
        else:
            monkeypatch.setattr(simulation, "marshal", BadReply)
        curve = helper_sweep()
        (table,) = tables
        assert len(children) == ROUNDS_THAT_FORK  # later rounds fork again
        assert curve == serial[0] and table.filled == serial[1]
        assert table.replays == len(serial[1])  # the parent replayed the lost cells
        self.assert_stopped(children)

    def test_ignored_sigchld_gives_the_same_curve(self, serial, children, checked_fills):
        # the system reaps each child itself, before or while fill kills it
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert helper_sweep() == serial[0]
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(children) == ROUNDS_THAT_FORK
        self.assert_stopped(children)

    def test_fork_that_fails_gives_the_same_curve(self, serial, tables, monkeypatch):
        pipes = []
        pipe = os.pipe
        refused = []

        def recording_pipe():
            fds = pipe()
            pipes.extend(fds)
            return fds

        def no_fork():
            refused.append(None)
            raise OSError("fork refused")

        monkeypatch.setattr(os, "pipe", recording_pipe)
        monkeypatch.setattr(os, "fork", no_fork)
        assert helper_sweep() == serial[0]
        assert tables[0].filled == serial[1]
        assert len(refused) == ROUNDS_THAT_FORK
        assert len(pipes) == 2 * len(refused)
        for fd in pipes:
            with pytest.raises(OSError):  # closed again
                os.fstat(fd)
        assert_no_child()

    def test_raising_sweep_leaves_no_process(self, tables, children, monkeypatch):
        replay = simulation._CellTable._replay
        parent = os.getpid()

        def fail_late(self, i):
            # the parent stops in its own replays while a child runs
            if os.getpid() == parent and children and len(self._cells) > 10:
                raise KeyboardInterrupt
            return replay(self, i)

        monkeypatch.setattr(simulation._CellTable, "_replay", fail_late)
        with pytest.raises(KeyboardInterrupt):
            helper_sweep()
        assert len(children) == 2
        self.assert_stopped(children)


class TestWhenToFork:
    """The rules that decide whether a round forks a child."""

    def test_find_equilibrium_never_forks(self, forks):
        eq = find_equilibrium(replace(HELPER_PARAMS, t1=0.2), HELPER_TRADES, 2e6, seed=4)
        assert 0.0 < eq.l1 < 1.0
        assert forks == []

    def test_sweep_beside_another_thread_runs_serially(self, serial, tables, forks):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            curve = helper_sweep()
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert forks == []
        assert curve == serial[0] and tables[0].filled == serial[1]

    def test_sweep_without_os_fork_runs_serially(self, serial, tables, monkeypatch):
        forked = []
        fork = simulation._CellTable._fork

        def recording(table, lent):
            forked.append(fork(table, lent))
            return forked[-1]

        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(simulation._CellTable, "_fork", recording)
        curve = helper_sweep()
        assert len(forked) == ROUNDS_THAT_FORK and set(forked) == {None}
        assert curve == serial[0] and tables[0].filled == serial[1]
        assert tables[0].replays == len(serial[1])
        assert_no_child()
