"""Trace file, synthetic generator and config parsing tests."""

import math

import pytest

from takerate.data_io import (
    ConfigError,
    ScenarioConfig,
    SyntheticSpec,
    TraceFormatError,
    generate_trades,
    load_config,
    load_trades,
    resolve_trades,
    save_trades,
)
from takerate.simulation import TradeEvent


class TestLoadTrades:
    def test_rows_in_file_order(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("direction,amount_in\na2b,10\nb2a,5\n")
        trades = load_trades(p)
        assert trades == [TradeEvent("a2b", 10.0), TradeEvent("b2a", 5.0)]

    def test_header_only_warns_and_returns_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("direction,amount_in\n")
        with pytest.warns(UserWarning):
            assert load_trades(p) == []

    def test_nonpositive_amount_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("direction,amount_in\na2b,-1\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            load_trades(p)

    def test_bad_direction_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("direction,amount_in\na2b,1\nsideways,2\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            load_trades(p)

    def test_unparseable_amount(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("direction,amount_in\na2b,ten\n")
        with pytest.raises(TraceFormatError, match="not a number"):
            load_trades(p)

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("dir,amt\na2b,1\n")
        with pytest.raises(TraceFormatError, match="header"):
            load_trades(p)

    def test_round_trip_identity(self, tmp_path):
        spec = SyntheticSpec(n_trades=500, seed=21)
        trades = generate_trades(spec)
        p = tmp_path / "rt.csv"
        save_trades(p, trades)
        assert load_trades(p) == trades


class TestGenerateTrades:
    def test_deterministic(self):
        spec = SyntheticSpec(n_trades=200, seed=4)
        assert generate_trades(spec) == generate_trades(spec)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_trades=0)

    def test_direction_bias_within_binomial_bound(self):
        spec = SyntheticSpec(n_trades=10_000, direction_bias=0.5, seed=8)
        trades = generate_trades(spec)
        a2b = sum(1 for t in trades if t.direction == "a2b")
        assert abs(a2b - 5000) <= 3 * 50  # 3 sigma, sigma = sqrt(n/4)

    def test_sizes_are_lognormal_scale(self):
        spec = SyntheticSpec(n_trades=20_000, size_mu=math.log(50.0), size_sigma=0.5, seed=2)
        trades = generate_trades(spec)
        mean_log = sum(math.log(t.amount_in) for t in trades) / len(trades)
        assert mean_log == pytest.approx(math.log(50.0), abs=0.02)

    def test_extreme_bias(self):
        only_a = generate_trades(SyntheticSpec(n_trades=100, direction_bias=1.0))
        assert all(t.direction == "a2b" for t in only_a)
        only_b = generate_trades(SyntheticSpec(n_trades=100, direction_bias=0.0))
        assert all(t.direction == "b2a" for t in only_b)


MINIMAL = """
# minimal scenario
t2 = 0.167
s1 = 0.1
f = 0.003
L_total = 1e6
trace = trades.csv
"""


class TestLoadConfig:
    def test_minimal_with_defaults(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(MINIMAL)
        cfg = load_config(p)
        assert cfg.t2 == 0.167
        assert cfg.s1 == 0.1
        assert cfg.s2 == 0.0
        assert cfg.d == 0.0
        assert cfg.take_step == 0.01
        assert cfg.liquidity_step == 0.005
        assert cfg.deviation_threshold == 0.1
        assert cfg.seed == 0
        assert cfg.trace == "trades.csv"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(MINIMAL + "take_rat = 0.1\n")
        with pytest.raises(ConfigError, match="take_rat"):
            load_config(p)

    def test_out_of_range_value_names_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(MINIMAL + "d = -0.1\n")
        with pytest.raises(ConfigError, match="d must be nonnegative"):
            load_config(p)

    @pytest.mark.parametrize(
        "key, value",
        [("d", "nan"), ("L_total", "nan"), ("L_total", "inf"), ("deviation_threshold", "inf")],
    )
    def test_non_finite_value_names_key(self, tmp_path, key, value):
        lines = [line for line in MINIMAL.splitlines() if not line.startswith(f"{key} ")]
        p = tmp_path / "c.cfg"
        p.write_text("\n".join(lines) + f"\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            load_config(p)

    def test_non_finite_synthetic_key_named(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(MINIMAL.replace("trades.csv", "synthetic") + "size_mu = inf\n")
        with pytest.raises(ConfigError, match="size_mu must be finite"):
            load_config(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(MINIMAL + "t2 = 0.2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(p)

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("t2 = 0.1\ns1 = 0.1\nf = 0.003\ntrace = x.csv\n")
        with pytest.raises(ConfigError, match="L_total"):
            load_config(p)

    def test_synthetic_block(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(
            "t2 = 0\ns1 = 0.1\nf = 0.003\nL_total = 1e6\ntrace = synthetic\n"
            "n_trades = 500\nsize_mu = 3.0\nseed = 9\n"
        )
        cfg = load_config(p)
        assert cfg.synthetic == SyntheticSpec(n_trades=500, size_mu=3.0, seed=9)
        trades = resolve_trades(cfg)
        assert len(trades) == 500

    def test_synthetic_keys_without_synthetic_trace(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(MINIMAL + "n_trades = 10\n")
        with pytest.raises(ConfigError, match="synthetic"):
            load_config(p)

    def test_inline_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(
            "t2 = 0.1  # competitor take rate\n\ns1 = 0.1\nf = 0.003\n"
            "L_total = 1e6\ntrace = synthetic\n"
        )
        assert load_config(p).t2 == 0.1

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("t2 0.1\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_config(p)


class TestResolveTrades:
    def test_file_trace_resolves_relative_to_base_dir(self, tmp_path):
        trace = tmp_path / "t.csv"
        save_trades(trace, [TradeEvent("a2b", 1.0)])
        cfg = ScenarioConfig(t2=0.0, s1=0.1, f=0.003, L_total=1e6, trace="t.csv")
        trades = resolve_trades(cfg, base_dir=tmp_path)
        assert len(trades) == 1

    def test_synthetic_default_spec_uses_config_seed(self):
        cfg = ScenarioConfig(t2=0.0, s1=0.1, f=0.003, L_total=1e6, trace="synthetic", seed=5)
        trades = resolve_trades(cfg)
        assert trades == generate_trades(SyntheticSpec(seed=5))


class TestScenarioConfigValidation:
    def test_step_ranges(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(t2=0.0, s1=0.1, f=0.003, L_total=1e6, trace="x", take_step=0.6)
        with pytest.raises(ConfigError):
            ScenarioConfig(t2=0.0, s1=0.1, f=0.003, L_total=1e6, trace="x", liquidity_step=0.0)

    def test_sticky_sum(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(t2=0.0, s1=0.6, s2=0.5, f=0.003, L_total=1e6, trace="x")
