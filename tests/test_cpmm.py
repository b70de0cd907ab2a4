"""Pool mechanics tests: swap math, routing optimality, arbitrage.

Brute-force oracles are implemented inline and independently of the library
code: routing is checked against a grid scan over splits, arbitrage against a
1-D scan plus golden-section refinement over round-trip sizes.
"""

import math
import random

import pytest

from takerate.cpmm import (
    A2B,
    B2A,
    PoolState,
    arbitrage,
    execute_swap,
    optimal_split,
    quote,
)


def swap_out(a, b, f, x):
    """Reference trade function, kept separate from the library on purpose."""
    return b - a * b / (a + (1.0 - f) * x)


def brute_force_split(pools, trade, direction, steps=10_000):
    """Best total output over a grid of two-pool splits, step trade/steps."""
    (p1, p2) = pools
    a1, b1 = p1.oriented(direction)
    a2, b2 = p2.oriented(direction)
    best_out, best_x1 = -1.0, 0.0
    for i in range(steps + 1):
        x1 = trade * i / steps
        total = swap_out(a1, b1, p1.fee, x1) + swap_out(a2, b2, p2.fee, trade - x1)
        if total > best_out:
            best_out, best_x1 = total, x1
    return best_out, best_x1


def round_trip_profit(pool_in, pool_back, x):
    """Token-0 into pool_in, token-1 proceeds back through pool_back."""
    mid = swap_out(pool_in.reserve_a, pool_in.reserve_b, pool_in.fee, x)
    out = swap_out(pool_back.reserve_b, pool_back.reserve_a, pool_back.fee, mid)
    return out - x


def brute_force_arb_profit(pool1, pool2, steps=4000):
    """Best round-trip profit over sizes in both directions, refined locally."""
    best = 0.0
    for pool_in, pool_back in ((pool1, pool2), (pool2, pool1)):
        hi = 2.0 * max(pool1.reserve_a, pool2.reserve_a)
        grid_best, grid_x = 0.0, 0.0
        for i in range(1, steps + 1):
            x = hi * i / steps
            p = round_trip_profit(pool_in, pool_back, x)
            if p > grid_best:
                grid_best, grid_x = p, x
        if grid_best <= 0.0:
            continue
        lo, up = max(0.0, grid_x - hi / steps), grid_x + hi / steps
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        c, d = up - invphi * (up - lo), lo + invphi * (up - lo)
        fc = round_trip_profit(pool_in, pool_back, c)
        fd = round_trip_profit(pool_in, pool_back, d)
        for _ in range(80):
            if fc >= fd:
                up, d, fd = d, c, fc
                c = up - invphi * (up - lo)
                fc = round_trip_profit(pool_in, pool_back, c)
            else:
                lo, c, fc = c, d, fd
                d = lo + invphi * (up - lo)
                fd = round_trip_profit(pool_in, pool_back, d)
        best = max(best, round_trip_profit(pool_in, pool_back, (lo + up) / 2.0))
    return best


class TestQuote:
    def test_zero_input_returns_zero(self):
        pool = PoolState(100.0, 100.0)
        assert quote(pool, 0.0, A2B) == 0.0

    def test_constant_product_halving(self):
        # 100*100 = 200*50, so feeding 100 must return exactly 50.
        pool = PoolState(100.0, 100.0)
        assert quote(pool, 100.0, A2B) == pytest.approx(50.0, rel=1e-12)

    def test_fee_adjusted_output(self):
        # Frozen from a direct evaluation of the trade function.
        pool = PoolState(1000.0, 1000.0, fee=0.003)
        assert quote(pool, 10.0, A2B) == pytest.approx(9.871580343970663, rel=1e-12)

    def test_direction_orients_reserves(self):
        pool = PoolState(100.0, 400.0)
        assert quote(pool, 100.0, A2B) == pytest.approx(200.0, rel=1e-12)
        assert quote(pool, 400.0, B2A) == pytest.approx(50.0, rel=1e-12)

    def test_output_strictly_below_reserve(self):
        pool = PoolState(50.0, 80.0, fee=0.01)
        assert quote(pool, 1e9, A2B) < 80.0

    def test_tiny_input_gives_positive_output(self):
        # B - A*B / (A + x) rounded this one to -5.8e-11
        a, b, x = 322002.44438555953, 473771.5403992647, 4.226998139594038e-15
        assert 0.0 < quote(PoolState(a, b), x, A2B) <= x * b / a

    def test_negative_input_rejected(self):
        pool = PoolState(100.0, 100.0)
        with pytest.raises(ValueError):
            quote(pool, -1.0, A2B)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            quote(PoolState(0.0, 100.0), 1.0, A2B)


class TestExecuteSwap:
    def test_product_conserved_and_reserves_move(self):
        pool = PoolState(100.0, 100.0)
        out, updated = execute_swap(pool, 100.0, A2B)
        assert out == pytest.approx(50.0, rel=1e-12)
        assert updated.reserve_a == pytest.approx(200.0)
        assert updated.reserve_b == pytest.approx(50.0)
        assert updated.fee_ledger_a == 0.0

    def test_fee_goes_to_ledger(self):
        pool = PoolState(1000.0, 1000.0, fee=0.003)
        out, updated = execute_swap(pool, 10.0, A2B)
        assert out == pytest.approx(9.871580343970663, rel=1e-12)
        assert updated.fee_ledger_a == pytest.approx(0.03, rel=1e-12)
        assert updated.fee_ledger_b == 0.0
        # net input enters reserves, product is untouched
        assert updated.reserve_a == pytest.approx(1009.97, rel=1e-12)
        product = updated.reserve_a * updated.reserve_b
        assert product == pytest.approx(1000.0 * 1000.0, rel=1e-9)

    def test_zero_input_is_identity(self):
        pool = PoolState(123.0, 456.0, fee=0.01)
        out, updated = execute_swap(pool, 0.0, B2A)
        assert out == 0.0
        assert updated == pool

    def test_product_conserved_random_swaps(self):
        rng = random.Random(7)
        for _ in range(300):
            a = rng.uniform(10.0, 1e6)
            b = rng.uniform(10.0, 1e6)
            fee = rng.choice([0.0, 0.001, 0.003, 0.01, 0.3])
            pool = PoolState(a, b, fee=fee)
            direction = rng.choice([A2B, B2A])
            x = rng.uniform(0.0, 2.0 * a)
            _, updated = execute_swap(pool, x, direction)
            assert updated.reserve_a * updated.reserve_b == pytest.approx(
                a * b, rel=1e-9
            )

    def test_ledger_monotone_over_sequence(self):
        pool = PoolState(1000.0, 1000.0, fee=0.01)
        rng = random.Random(3)
        prev_a, prev_b = 0.0, 0.0
        for _ in range(50):
            _, pool = execute_swap(pool, rng.uniform(0.0, 20.0), rng.choice([A2B, B2A]))
            assert pool.fee_ledger_a >= prev_a
            assert pool.fee_ledger_b >= prev_b
            prev_a, prev_b = pool.fee_ledger_a, pool.fee_ledger_b


class TestOptimalSplit:
    def test_proportional_for_balanced_pools(self):
        # Balanced pools with equal fees split pro rata to size: (10, 30).
        pools = [PoolState(100.0, 100.0, fee=0.003), PoolState(300.0, 300.0, fee=0.003)]
        split = optimal_split(pools, 40.0, A2B)
        assert split.amounts[0] == pytest.approx(10.0, rel=1e-12)
        assert split.amounts[1] == pytest.approx(30.0, rel=1e-12)

    def test_single_pool_takes_everything(self):
        split = optimal_split([PoolState(500.0, 400.0)], 25.0, A2B)
        assert split.amounts == (25.0,)

    def test_imbalanced_pools_frozen_value(self):
        # Frozen from a brute-force grid scan (step 1e-4 * T) over splits.
        pools = [PoolState(100.0, 100.0), PoolState(200.0, 180.0)]
        split = optimal_split(pools, 30.0, A2B)
        assert split.amounts[0] == pytest.approx(13.896529505130445, abs=1e-6)
        assert split.amounts[1] == pytest.approx(16.103470494869583, abs=1e-6)

    def test_beats_brute_force_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(25):
            pools = [
                PoolState(rng.uniform(50.0, 2000.0), rng.uniform(50.0, 2000.0), fee=rng.choice([0.0, 0.003, 0.01])),
                PoolState(rng.uniform(50.0, 2000.0), rng.uniform(50.0, 2000.0), fee=rng.choice([0.0, 0.003, 0.01])),
            ]
            trade = rng.uniform(1.0, 300.0)
            direction = rng.choice([A2B, B2A])
            split = optimal_split(pools, trade, direction)
            brute_out, _ = brute_force_split(pools, trade, direction)
            assert split.total_out >= brute_out - 1e-9 * trade
            assert sum(split.amounts) == pytest.approx(trade, rel=1e-9)
            assert all(x >= 0.0 for x in split.amounts)

    def test_proportional_law_many_pools(self):
        # n balanced pools at a common price: exact pro-rata split.
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 6)
            price = rng.uniform(0.2, 5.0)
            sizes = [rng.uniform(10.0, 1e5) for _ in range(n)]
            pools = [PoolState(s, s * price, fee=0.003) for s in sizes]
            trade = rng.uniform(0.1, 100.0)
            split = optimal_split(pools, trade, A2B)
            total = sum(sizes)
            for x, s in zip(split.amounts, sizes):
                assert x / trade == pytest.approx(s / total, rel=1e-12)

    def test_active_set_drops_small_dear_pool(self):
        # Pool 2 prices token-0 so low that a small trade should skip it.
        pools = [PoolState(1000.0, 1000.0), PoolState(1000.0, 500.0)]
        split = optimal_split(pools, 1.0, A2B)
        # the pool left alone takes the whole trade, not a rounding of it
        assert split.amounts == (1.0, 0.0)

    def test_zero_trade(self):
        split = optimal_split([PoolState(10.0, 10.0), PoolState(20.0, 20.0)], 0.0, A2B)
        assert split.amounts == (0.0, 0.0)
        assert split.total_out == 0.0

    def test_empty_pool_list_rejected(self):
        with pytest.raises(ValueError):
            optimal_split([], 1.0, A2B)

    def test_negative_trade_rejected(self):
        with pytest.raises(ValueError):
            optimal_split([PoolState(10.0, 10.0)], -1.0, A2B)


class TestArbitrage:
    def test_equal_prices_no_trade(self):
        assert arbitrage(PoolState(100.0, 100.0), PoolState(100.0, 100.0)) is None
        assert arbitrage(PoolState(100.0, 150.0), PoolState(200.0, 300.0)) is None

    def test_known_gap_frozen_values(self):
        # Closed form gives x = 1000/221 for these reserves at zero fee;
        # profit and the common post-trade price frozen from a scan.
        trade = arbitrage(PoolState(100.0, 100.0), PoolState(100.0, 121.0))
        assert trade is not None
        assert trade.pool_in == 2
        assert trade.amount_in == pytest.approx(1000.0 / 221.0, rel=1e-9)
        assert trade.profit == pytest.approx(0.45248868778280205, rel=1e-9)
        assert trade.pool1.price == pytest.approx(1.1075056689342404, rel=1e-9)
        assert trade.pool2.price == pytest.approx(1.1075056689342404, rel=1e-9)

    def test_gap_inside_fee_band_no_trade(self):
        # 0.1% price gap cannot beat two 0.3% fee legs.
        pool1 = PoolState(1000.0, 1000.0, fee=0.003)
        pool2 = PoolState(1000.0, 1001.0, fee=0.003)
        assert arbitrage(pool1, pool2) is None
        # confirm by sampling: every round trip loses money
        for x in [0.01, 0.1, 1.0, 5.0, 25.0]:
            assert round_trip_profit(pool2, pool1, x) < 0.0
            assert round_trip_profit(pool1, pool2, x) < 0.0

    def test_round_trip_at_the_band_edge_is_no_error(self):
        # the price gap sits a hair outside the fee band, so the round trip
        # is tiny; its token-1 leg used to quote negative and raise
        pool1 = PoolState(392554.1685997493, 426110.89511884924)
        pool2 = PoolState(170066.0626664822, 179065.71308903766, fee=0.03)
        assert arbitrage(pool1, pool2) is None

    def test_profit_matches_simulated_round_trip(self):
        rng = random.Random(23)
        for _ in range(50):
            a1, b1 = rng.uniform(100.0, 1e5), rng.uniform(100.0, 1e5)
            ratio = rng.uniform(1.05, 2.0)
            fee = rng.choice([0.0, 0.003, 0.01])
            pool1 = PoolState(a1, b1, fee=fee)
            pool2 = PoolState(a1, b1 * ratio, fee=fee)
            trade = arbitrage(pool1, pool2)
            assert trade is not None
            pool_in, pool_back = (pool2, pool1) if trade.pool_in == 2 else (pool1, pool2)
            replayed = round_trip_profit(pool_in, pool_back, trade.amount_in)
            assert trade.profit == pytest.approx(replayed, rel=1e-9)
            assert trade.profit > 0.0

    def test_second_call_finds_nothing(self):
        rng = random.Random(41)
        for _ in range(50):
            pool1 = PoolState(rng.uniform(100.0, 1e4), rng.uniform(100.0, 1e4), fee=0.003)
            pool2 = PoolState(rng.uniform(100.0, 1e4), rng.uniform(100.0, 1e4), fee=0.003)
            trade = arbitrage(pool1, pool2)
            if trade is None:
                continue
            assert arbitrage(trade.pool1, trade.pool2) is None

    def test_profit_matches_brute_force(self):
        rng = random.Random(97)
        for _ in range(40):
            pool1 = PoolState(rng.uniform(500.0, 5e4), rng.uniform(500.0, 5e4), fee=rng.choice([0.0, 0.003]))
            pool2 = PoolState(rng.uniform(500.0, 5e4), rng.uniform(500.0, 5e4), fee=pool1.fee)
            trade = arbitrage(pool1, pool2)
            brute = brute_force_arb_profit(pool1, pool2)
            if trade is None:
                assert brute <= 1e-6 * (pool1.reserve_a + pool2.reserve_a)
            else:
                assert trade.profit == pytest.approx(brute, rel=1e-6)

    def test_arb_pays_fees_to_ledgers(self):
        pool1 = PoolState(1000.0, 1000.0, fee=0.003)
        pool2 = PoolState(1000.0, 1200.0, fee=0.003)
        trade = arbitrage(pool1, pool2)
        assert trade is not None
        # token-0 went into pool 2, token-1 into pool 1
        assert trade.pool2.fee_ledger_a == pytest.approx(0.003 * trade.amount_in, rel=1e-12)
        assert trade.pool1.fee_ledger_b == pytest.approx(0.003 * trade.amount_mid, rel=1e-12)


class TestPoolStateValidation:
    def test_rejects_bad_fee(self):
        with pytest.raises(ValueError):
            PoolState(1.0, 1.0, fee=1.0)

    def test_rejects_negative_reserves(self):
        with pytest.raises(ValueError):
            PoolState(-1.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"reserve_a": math.nan, "reserve_b": 1.0},
            {"reserve_a": math.inf, "reserve_b": 1.0},
            {"reserve_a": 1.0, "reserve_b": -math.inf},
            {"reserve_a": 1.0, "reserve_b": 1.0, "fee_ledger_a": math.nan},
            {"reserve_a": 1.0, "reserve_b": 1.0, "fee_ledger_b": math.inf},
        ],
        ids=["nan-reserve_a", "inf-reserve_a", "inf-reserve_b", "nan-ledger_a", "inf-ledger_b"],
    )
    def test_rejects_non_finite_values_by_name(self, kwargs):
        name = next(k for k, v in kwargs.items() if not math.isfinite(v))
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PoolState(**kwargs)
