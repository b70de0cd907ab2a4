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
import tracemalloc
from array import array
from dataclasses import replace
from pathlib import Path

import pytest

from takerate import simulation
from takerate.analytical import (
    IndeterminateEquilibriumError,
    ModelParams,
    equilibrium_share,
    protocol_revenue,
    take_rate_grid,
)
from takerate.cpmm import PoolState, arbitrage, execute_swap, optimal_split, quote
from takerate.data_io import (
    ConfigError,
    ScenarioConfig,
    SyntheticSpec,
    generate_trades,
    load_config,
    load_trades,
    resolve_trades,
    save_trades,
)
from takerate.simulation import (
    SimOutcome,
    Trace,
    TraceScaleError,
    assign_sticky,
    find_equilibrium,
    replay_trades,
    sweep_take_rate,
)
from traces import trace_of

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        assert assign_sticky(trace_of(), 0.1, 0.0) == []
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
        assert trace_of(("a2b", 1e16), ("b2a", 1.0), ("a2b", 1.0)).volume == 1e16

    def test_loaded_and_generated_traces_carry_their_left_to_right_sum(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("direction,amount_in\na2b,1e16\nb2a,1.0\na2b,1.0\n")
        assert load_trades(path).volume == 1e16
        generated = generate_trades(SyntheticSpec(n_trades=2000, size_sigma=2.0, seed=5))
        save_trades(path, generated)
        total = 0.0
        for amount in generated.amounts:
            total += amount
        assert generated.volume == load_trades(path).volume == total
        assert trace_of().volume == 0.0

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
        trace, labels, threshold,
    )
    return outcome, end1 + end2


class TestReplayAgainstCpmm:
    """The inlined kernels equal the cpmm-composed replay, trade by trade.

    replay_trades composes cpmm's routing, swap and arbitrage functions; the
    two-pool kernel is checked against it, and the single-pool kernel
    against a chain of cpmm swaps.
    """

    # with fees of 1e-9 an equalising split leaves a fee band only about
    # 2e-9 wide, where _replay_two skips the arbitrage test
    @pytest.mark.parametrize(
        "fees", [(0.003, 0.003), (0.003, 0.001), (1e-9, 1e-9), (0.003, 1e-9)]
    )
    def test_each_trade_matches_the_reference_replay(self, fees):
        # The kernel restarts from the reference's pools at every trade, so
        # this test cannot see state a replay carries across trades; the
        # whole-trace test below can.
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

    @pytest.mark.parametrize("cell", [1, -2], ids=["cell 1", "cell m-1"])
    def test_a_whole_trace_matches_the_reference_replay(self, cell):
        # a shipped config's 10,000 trades and labels at the grid's most
        # unequal splits, pool 1 holding 0.005 and 0.995 of L_total
        config = load_config(CONFIGS / "established_competitor_sticky.cfg")
        trace = resolve_trades(config)
        threshold = config.deviation_threshold
        table = simulation._CellTable(
            config.params, trace, config.L_total, config.liquidity_step, config.seed, threshold
        )
        L1, L2 = table.sizes[cell]
        pool1, pool2 = PoolState(L1, L1, fee=config.f), PoolState(L2, L2, fee=config.f)
        ref = replay_trades(pool1, pool2, trace, table.labels, threshold)[0]
        out = replay_two(pool1, pool2, trace, table.labels, threshold)[0]
        assert (out.arb_count, out.rerouted_count) == (ref.arb_count, ref.rerouted_count)
        assert out.arb_count > 0
        for field in VOLUMES:
            assert getattr(out, field) == pytest.approx(getattr(ref, field), rel=1e-9), field

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
        out = simulation._replay_single(L, L, fee, trades, labels, own_label=own_label)

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
    def full_table(params, trades, L_total, liquidity_step):
        """A cell table with every cell filled; it serves any t1, t2 and d."""
        table = simulation._CellTable(params, trades, L_total, liquidity_step, 0, 0.1)
        table.fill(range(table.m + 1))
        return table

    @staticmethod
    def residuals(params, table):
        """The residual of every interior cell, as the search computes it."""
        def residual(i):
            o, (L1, L2) = table.cells[i], table.sizes[i]
            r1 = (1.0 - params.t1) * (params.f * o.volume_1) / L1
            r2 = (1.0 - params.t2) * (params.f * o.volume_2) / L2
            return r1 * (1.0 + params.d) - r2

        return {i: residual(i) for i in range(1, table.m)}

    @classmethod
    def full_scan(cls, params, table):
        """(l1, rev1) of the exhaustive search over a full table: every interior cell's residual."""
        m = table.m
        res = cls.residuals(params, table)
        if res[m - 1] > 0.0:
            best = m  # pool 1 still the better deal: full migration
        elif res[1] < 0.0:
            best = 0
        else:
            # ties within 1e-12 go to the larger share
            least = min(abs(r) for r in res.values())
            best = max(i for i, r in res.items() if abs(r) <= least + 1e-12)
        rev1 = params.t1 * table.cells[best].volume_1 / table.total_volume
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
            table = self.full_table(params, trades, 1e6, 0.02)
            assert (fast.l1, fast.rev1) == self.full_scan(params, table)
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
        # _replay_single by name.  It takes their one positional list for the
        # labelled trace and hashes every other argument into a cell key, so
        # that list must be assign_sticky's labels and the rest must hash.
        calls = {"_replay_two": [], "_replay_single": []}
        for name, seen in calls.items():
            def recorded(*args, _kernel=getattr(simulation, name), _seen=seen, **kwargs):
                _seen.append((args, kwargs))
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(simulation, name, recorded)
        trades = lognormal_trace(400, 50.0)
        # pool 1 is the better deal at every split, as the closed form says:
        # cell m-1, then cell m
        params = ModelParams(t1=0.05, t2=0.167, s1=0.1, s2=0.0, d=0.0, f=0.003)
        assert find_equilibrium(params, trades, 1e6).l1 == 1.0
        assert [len(seen) for seen in calls.values()] == [1, 1]
        labels = assign_sticky(trades, 0.1, 0.0)
        for seen in calls.values():
            for args, kwargs in seen:
                assert not any(isinstance(a, list) for a in kwargs.values())
                lists = [a for a in args if isinstance(a, list)]
                assert lists == [labels]
                hash(tuple(a for a in args if a is not lists[0]) + tuple(sorted(kwargs.items())))

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

    def test_empty_trace_has_nothing_to_simulate(self):
        # the cell table is the one place that refuses it; labelling and the
        # reference replay take an empty trace
        params = ModelParams(t1=0.1, t2=0.0, s1=0.1)
        for search in (find_equilibrium, sweep_take_rate):
            with pytest.raises(ValueError, match="^the trace contains no trades; nothing to simulate$"):
                search(params, trace_of(), 1e6)

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


class TestCellTableMemory:
    def test_a_labelled_table_holds_a_list_slot_per_trade(self):
        # the table keeps the caller's trace and assign_sticky's labels, one
        # 8-byte list slot per trade; labelling sorts the indices of the loyal
        # prefix only.  A (bool, float, int) tuple per trade would retain
        # about 96 bytes, and sorting every index peaks near 105.
        trades = lognormal_trace(20_000, 50.0)
        params = ModelParams(t1=0.0, t2=0.167, s1=0.1, s2=0.05, d=0.0, f=0.003)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            table = simulation._CellTable(params, trades, 2e6, 0.005, 7, 0.1)
            retained, peak = (size - before for size in tracemalloc.get_traced_memory())
        finally:
            if started:
                tracemalloc.stop()
        assert retained <= 16 * len(trades)
        assert peak <= 64 * len(trades)
        assert table.trace is trades and table.labels == assign_sticky(trades, 0.1, 0.05, 7)


class TestLoadTradesMemory:
    def test_a_loaded_trace_holds_its_two_columns_only(self, tmp_path):
        # The loader appends each row to the bytearray and the array('d') of
        # its Trace, 9 bytes per trade plus the array's spare room; the
        # bytearray is copied once into bytes at the end.  A list of csv rows
        # would peak above 100 bytes per trade.
        path = tmp_path / "trace.csv"
        save_trades(path, lognormal_trace(20_000, 50.0))
        load_trades(path)  # a first load imports the utf-8-sig codec, about 1 byte per trade here
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            trades = load_trades(path)
            retained, peak = (size - before for size in tracemalloc.get_traced_memory())
        finally:
            if started:
                tracemalloc.stop()
        assert retained <= 10 * len(trades)
        assert peak <= 16 * len(trades)
        assert trades == lognormal_trace(20_000, 50.0)

class HiddenCellTable:
    """A stub _CellTable with L_total = f = V = 1: fill moves cells out of a hidden store.

    _solve sees only the cells filled so far, as with a real table.  A cell
    requested twice is no longer in the store and raises KeyError, and an
    empty request fails.  rounds holds every request, sorted.
    """

    def __init__(self, shares, outcomes):
        self.shares = shares
        self.m = len(shares) - 1
        self.sizes = [(s, 1.0 - s) for s in shares]
        self.f = self.total_volume = 1.0
        self.cells = {}
        self.hidden = dict(enumerate(outcomes))
        self.rounds = []

    def fill(self, indices):
        indices = sorted(indices)
        assert indices, "a round that fills nothing"
        self.rounds.append(indices)
        for i in indices:
            self.cells[i] = self.hidden.pop(i)


class TestSearchTieRule:
    """_solve's last step: the final bracket's end with the smaller |residual|,
    ties within 1e-12 going to the larger share."""

    @staticmethod
    def solve(gap, t1s=(0.0,)):
        """The cells each round fills and the results, over a stub table of five cells.

        With t1 = t2 = d = 0 the residual is volume_1/L1 - volume_2/L2: +2 at
        share 1/4, +1 at 1/2 and -(1 + gap) at 3/4, all exact but for gap's
        rounding, so the final bracket is (1/2, 3/4).  Cell 0 holds pool 2
        alone and cell 4 pool 1.
        """
        shares = [0.0, 0.25, 0.5, 0.75, 1.0]
        rates = [(0.0, 1.0), (3.0, 1.0), (2.0, 1.0), (1.0, 2.0 + gap), (1.0, 0.0)]
        table = HiddenCellTable(shares, [
            SimOutcome(r1 * l1, r2 * (1.0 - l1), 0, 0, 0.0, 0.0)
            for l1, (r1, r2) in zip(shares, rates)
        ])
        params = ModelParams(t1=0.0, t2=0.0, s1=0.0, s2=0.0, d=0.0, f=0.003)
        return table.rounds, simulation._solve(params, t1s, table)

    @pytest.mark.parametrize("gap", [0.0, 5e-13])
    def test_tie_goes_to_the_larger_share(self, gap):
        rounds, (result,) = self.solve(gap)
        assert rounds == [[1, 3], [2]]
        assert (result.l1, result.r1, result.r2) == (0.75, 1.0, 2.0 + gap)

    def test_a_gap_beyond_the_tolerance_is_no_tie(self):
        rounds, (result,) = self.solve(1e-9)
        assert rounds == [[1, 3], [2]]
        assert (result.l1, result.r1, result.r2) == (0.5, 2.0, 1.0)

    def test_take_rates_fill_their_cells_in_shared_rounds(self):
        # at t1 = 0.5 the residual is +0.5 at share 1/4, 0 at 1/2 and -1.5 at
        # 3/4, so the zero closes the bracket (1/4, 1/2); at t1 = 0.9 it is
        # negative at 1/4 already, so that take rate reads cell 0, in the
        # second round beside the cell the other two read
        rounds, results = self.solve(0.0, (0.0, 0.5, 0.9))
        assert rounds == [[1, 3], [0, 2]]
        assert [(r.t1, r.l1, r.r1, r.r2) for r in results] == [
            (0.0, 0.75, 1.0, 2.0), (0.5, 0.5, 1.0, 1.0), (0.9, 0.0, None, 1.0)
        ]


class TestOneSidedBracket:
    """A bracket starts at (0, m), ends not read yet: an edge cell is read
    only once the walk reaches it."""

    @staticmethod
    def solve(monkeypatch, rates):
        """The cells each round fills and the result over a stub table of eleven cells.

        Interior cell i of shares i/10 has LP returns rates[i-1], so with
        t1 = t2 = d = 0 its residual is r1 - r2; the closed form is made to
        put the share at 0.45, so the first round reads cells 4 and 5.
        """
        shares = [i / 10 for i in range(10)] + [1.0]
        rates = [(0.0, 1.0)] + rates + [(1.0, 0.0)]
        table = HiddenCellTable(shares, [
            SimOutcome(r1 * l1, r2 * (1.0 - l1), 0, 0, 0.0, 0.0)
            for l1, (r1, r2) in zip(shares, rates)
        ])
        monkeypatch.setattr(simulation, "_equilibrium_shares", lambda t1s, *args: [0.45])
        params = ModelParams(t1=0.0, t2=0.0, s1=0.0, s2=0.0, d=0.0, f=0.003)
        return table.rounds, simulation._solve(params, (0.0,), table)[0]

    def test_positive_guess_cells_walk_up_to_cell_m(self, monkeypatch):
        rounds, result = self.solve(monkeypatch, [(2.0, 1.0)] * 9)
        assert rounds == [[4, 5], [9], [10]]  # never cell 1
        assert (result.l1, result.r1, result.r2) == (1.0, 1.0, None)

    def test_negative_guess_cells_walk_down_to_cell_0(self, monkeypatch):
        rounds, result = self.solve(monkeypatch, [(1.0, 2.0)] * 9)
        assert rounds == [[4, 5], [1], [0]]  # never cell m-1
        assert (result.l1, result.r1, result.r2) == (0.0, None, 1.0)

    @pytest.mark.parametrize("gap, l1", [(0.0, 0.2), (5e-13, 0.2), (1e-9, 0.1)])
    def test_a_zero_at_cell_1_keeps_the_tie_rule(self, monkeypatch, gap, l1):
        # residual 0 at cell 1, -gap at cell 2 and -1 above.  When every
        # bracket began at (1, m-1), res(m-1) <= 0 and res(1) >= 0 left it
        # open and it narrowed to (1, 2), whose end with the smaller
        # |residual| won, ties within 1e-12 going to cell 2; so here too
        rounds, result = self.solve(monkeypatch, [(1.0, 1.0), (1.0, 1.0 + gap)] + [(1.0, 2.0)] * 7)
        assert rounds[:2] == [[4, 5], [1]]
        assert 0 not in sum(rounds, [])
        assert result.l1 == l1


class TestOneSidedFlowLimit:
    """With every trade a2b, pool 2 takes its liquidity share of all volume.

    Nothing reverts a trade's price impact, and a routed trade first moves
    pool 2 as far as the loyal trades since the last routed one moved pool
    1; moving a CPMM's price costs input in proportion to its liquidity, so
    pool 2's volume is pro rata, (1-l1)V.  Over pool 2's pro-rata routed
    volume (1-s1)(1-l1)V that is 1 + E2 with E2 = s1/(1-s1), and the take
    rate T at which the cell's residual crosses zero is the closed form's
    with no loyal flow, 1 - (1-t2)/(1+d).  Only the loyal trades after the
    last routed one, of volume W, are never matched: pool 2 misses (1-l1)W,
    and the laws become E2 = (s1 - W/V)/(1-s1) and T = 1 - (1-t2)/(1+d)*rho
    with rho = l1(V-W)/(l1 V + (1-l1)W).  One replay per s1 on fork's
    market, near l1 = 1 where pool 2 is smallest.  Measured at trace seeds
    1-8 and 2024, the laws held within 5.94e-12.
    """

    @pytest.mark.parametrize("trace_seed, trailing", [(1, False), (2024, True)])
    def test_pool2_takes_its_liquidity_share_of_all_volume(self, trace_seed, trailing):
        t2, f, L_total, l1 = 0.0, 0.003, 2e6, 1.0 - 1e-4
        trace = generate_trades(
            SyntheticSpec(n_trades=10_000, size_mu=3.912, direction_bias=1.0, seed=trace_seed)
        )
        V, L1, L2 = trace.volume, l1 * L_total, (1.0 - l1) * L_total
        for s1 in (0.05, 0.1, 0.2):
            labels = assign_sticky(trace, s1, 0.0, seed=7)
            last_routed = max(i for i, label in enumerate(labels) if label == 0)
            W = sum(trace.amounts[last_routed + 1:])
            assert (W > 0.0) == trailing
            out = simulation._replay_two(L1, L1, f, L2, L2, f, trace, labels, 0.1)[0]
            assert (out.arb_count, out.rerouted_count) == (0, 0)
            E2 = out.volume_2 / ((1.0 - s1) * (1.0 - l1) * V) - 1.0
            assert E2 == pytest.approx((s1 - W / V) / (1.0 - s1), rel=0, abs=1e-11)
            rho = l1 * (V - W) / (l1 * V + (1.0 - l1) * W)
            for d in (0.0, 0.1):
                T = 1.0 - (1.0 - t2) * (out.volume_2 / L2) / ((1.0 + d) * out.volume_1 / L1)
                assert T == pytest.approx(1.0 - (1.0 - t2) / (1.0 + d) * rho, rel=0, abs=1e-11)


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

    def test_one_result_is_built_per_take_rate(self, monkeypatch):
        # the solve reads residuals from the cells and builds each sample once
        built = []

        class Counting(simulation.EquilibriumResult):
            def __init__(self, **fields):
                super().__init__(**fields)
                built.append(self.t1)

        monkeypatch.setattr(simulation, "EquilibriumResult", Counting)
        trades = lognormal_trace(400, 20.0)
        params = ModelParams(t1=0.0, t2=0.167, s1=0.1, s2=0.05, d=0.0, f=0.003)
        curve = sweep_take_rate(params, trades, 1e6, take_step=0.02, liquidity_step=0.02)
        assert len(curve.samples) == 51
        assert built == [s.t1 for s in curve.samples]

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

    def test_one_table_serves_any_t2_and_d(self):
        # the closed form picks only which cells a solve reads first, and a
        # cell does not depend on t2 or d: a table that one (t2, d) filled
        # serves the next, sample for sample
        trades = lognormal_trace(1500, 30.0)
        base = ModelParams(t1=0.0, t2=0.167, s1=0.1, s2=0.05, d=0.0, f=0.003)
        table = simulation._CellTable(base, trades, 1e6, 0.01, 9, 0.1)
        for t2, d in [(0.167, 0.0), (0.05, 0.1)]:
            params = replace(base, t2=t2, d=d)
            held = set(table.cells)
            solved = simulation._solve(params, take_rate_grid(0.05), table)
            assert set(table.cells) > held  # the table holds cells another solve read
            assert tuple(solved) == sweep_take_rate(params, trades, 1e6, 0.05, 0.01, seed=9).samples

    def test_a_take_rate_without_a_closed_form_share_seeds_no_cell(self, monkeypatch):
        # with no loyal flow and d = 0, every split is a closed-form
        # equilibrium at t1 = t2, which is on this grid; the sweep equals one
        # whose first round reads cells 1 and m-1 alone
        trades = lognormal_trace(400, 30.0)
        params = ModelParams(t1=0.0, t2=0.5, s1=0.0, s2=0.0, d=0.0, f=0.003)
        with pytest.raises(IndeterminateEquilibriumError):
            equilibrium_share(replace(params, t1=0.5))
        curve = sweep_take_rate(params, trades, 1e6, take_step=0.25, liquidity_step=0.02)
        monkeypatch.setattr(simulation, "_equilibrium_shares", lambda t1s, *args: [None] * len(t1s))
        assert sweep_take_rate(params, trades, 1e6, take_step=0.25, liquidity_step=0.02) == curve

    # loyal flow on both sides, a sticky fork with d > 0, and a dear
    # competitor; with s1 = s2 = 0 every crossing rate ties at t2
    CROSSING_SCENARIOS = [
        ModelParams(t1=0.0, t2=0.167, s1=0.1, s2=0.05, d=0.0, f=0.003),
        ModelParams(t1=0.0, t2=0.0, s1=0.1, s2=0.0, d=0.1, f=0.003),
        ModelParams(t1=0.0, t2=0.3, s1=0.2, s2=0.1, d=0.0, f=0.003),
    ]

    @pytest.mark.parametrize("params", CROSSING_SCENARIOS)
    def test_samples_lie_between_their_neighbours_crossing_rates(self, params, tables):
        # a sample at interior cell i has T_{i+1} <= t1 <= T_{i-1}
        trades = lognormal_trace(3000, 30.0)
        curve = sweep_take_rate(params, trades, 1e6, take_step=0.01, liquidity_step=0.01)
        (table,) = tables
        m = table.m
        at = {s.t1: table.shares.index(s.l1) for s in curve.samples if 0.0 < s.l1 < 1.0}
        table.fill({j for i in at.values() for j in (i - 1, i + 1) if 0 < j < m})
        for t1, i in at.items():
            if i + 1 < m:
                assert crossing_rate(params, table, i + 1) - 1e-12 <= t1
            if i - 1 > 0:
                assert t1 <= crossing_rate(params, table, i - 1) + 1e-12
        assert len(at) >= 70

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


def crossing_rate(params, table, j):
    """The take rate at which filled interior cell j's residual crosses zero.

    A replay does not depend on t1, so the residual is linear in t1 and
    crosses zero at T_j = 1 - (1-t2)(vol2_j/L2_j) / ((1+d) vol1_j/L1_j).
    """
    o, (L1, L2) = table.cells[j], table.sizes[j]
    r2 = (1.0 - params.t2) * o.volume_2 / L2
    return 1.0 - r2 / ((1.0 + params.d) * o.volume_1 / L1)


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
            return set(self.cells)

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
    """helper_sweep's curve, filled cells and replay count with every fork refused."""
    built = []

    class Refusing(simulation._CellTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

        def _fork(self, lent):
            return None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "_CellTable", Refusing)
        curve = helper_sweep()
    (table,) = built
    return curve, set(table.cells), table.replays


def new_cells_per_round(monkeypatch):
    """The number of new cells each _CellTable.fill adds, in call order."""
    new_cells = []
    fill = simulation._CellTable.fill

    def counting(table, indices):
        held = len(table.cells)
        fill(table, indices)
        new_cells.append(len(table.cells) - held)

    monkeypatch.setattr(simulation._CellTable, "fill", counting)
    return new_cells


# the new cells of each of helper_sweep's rounds, and the rounds whose share
# for the child reaches _FORK_MIN_WORK trade replays
HELPER_ROUNDS = [39, 25]
ROUNDS_THAT_FORK = sum(
    new // 2 * len(HELPER_TRADES) >= simulation._FORK_MIN_WORK for new in HELPER_ROUNDS
)


def test_helper_sweep_fills_its_rounds(monkeypatch):
    # pinned on every machine: TestParallelSweep needs two cores
    new_cells = new_cells_per_round(monkeypatch)
    helper_sweep()
    assert new_cells == HELPER_ROUNDS


def test_lone_search_rounds_and_replays(monkeypatch, tables):
    # one search on a 10,000-trade sticky trace reads only the two cells
    # around the closed form's share in its first round, and those two hold
    # the crossing; the same on every machine, forked or not
    new_cells = new_cells_per_round(monkeypatch)
    trades = generate_trades(SyntheticSpec(n_trades=10_000, seed=7))
    eq = find_equilibrium(replace(HELPER_PARAMS, t1=0.27), trades, 2e6, seed=4)
    assert 0.0 < eq.l1 < 1.0
    assert new_cells == [2]
    assert tables[0].replays == 2


# The replays of each lone search in the benchmark's seed_ensemble: 20
# traces of 10,000 trades, each searched at t1 = 0.27 on
# established_competitor_sticky's market with its own labelling seed.  A
# table counts a forked child's replays too, so this holds on any number of
# cores.
ENSEMBLE_REPLAYS = [4, 2, 2, 4, 3, 3, 3, 3, 4, 4, 2, 4, 2, 3, 3, 2, 3, 4, 2, 2]


def test_lone_search_schedule_of_the_benchmark_ensemble(tables):
    # the benchmark's inputs: trace and labelling seeds drawn in pairs, and
    # each trace drawn as gen-trace draws it
    params = ModelParams(t1=0.27, t2=0.167, s1=0.1, s2=0.05, d=0.0, f=0.003)
    rng = random.Random(2024)
    for _ in ENSEMBLE_REPLAYS:
        trace_seed, label_seed = rng.randrange(2**31), rng.randrange(2**31)
        spec = SyntheticSpec(
            n_trades=10_000, size_mu=3.912, size_sigma=1.0, direction_bias=0.5, seed=trace_seed
        )
        find_equilibrium(params, generate_trades(spec), 2e6, 0.005, seed=label_seed)
    assert [table.replays for table in tables] == ENSEMBLE_REPLAYS


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
            assert indices <= set(table.cells)
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
        assert table.replays == serial[2]
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
        assert table.replays == serial[2]  # the parent replayed the lost cells
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
            # the parent stops in its own replays while the second round's child runs
            if os.getpid() == parent and children and len(self.cells) > HELPER_ROUNDS[0]:
                raise KeyboardInterrupt
            return replay(self, i)

        monkeypatch.setattr(simulation._CellTable, "_replay", fail_late)
        with pytest.raises(KeyboardInterrupt):
            helper_sweep()
        assert len(children) == 2
        self.assert_stopped(children)


class TestWhenToFork:
    """The rules that decide whether a round forks a child."""

    @pytest.mark.skipif(simulation._usable_cores() < 2, reason="forking needs two cores")
    def test_find_equilibrium_forks_its_two_cell_rounds(self, forks, monkeypatch):
        params = replace(HELPER_PARAMS, t1=0.2)
        new_cells = new_cells_per_round(monkeypatch)
        eq = find_equilibrium(params, HELPER_TRADES, 2e6, seed=4)
        assert 0.0 < eq.l1 < 1.0
        assert len(forks) == sum(new >= 2 for new in new_cells) >= 2
        assert_no_child()
        monkeypatch.setattr(simulation._CellTable, "_fork", lambda table, lent: None)
        assert find_equilibrium(params, HELPER_TRADES, 2e6, seed=4) == eq

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
        assert tables[0].replays == serial[2]
        assert_no_child()
