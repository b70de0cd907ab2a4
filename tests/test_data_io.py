"""Trace file, synthetic generator and config parsing tests."""

import csv
import hashlib
import math
import pickle
import re
from array import array
from dataclasses import replace

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
from takerate.cli import main
from takerate.simulation import Trace, check_trade
from traces import trace_of


class TestLoadTrades:
    def test_rows_in_file_order(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("direction,amount_in\na2b,10\nb2a,5\n")
        trades = load_trades(p)
        assert trades == trace_of(("a2b", 10.0), ("b2a", 5.0))

    def test_a_utf8_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # spreadsheets save "CSV UTF-8" with a BOM
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"direction,amount_in\na2b,10\nb2a,5\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_trades(marked) == load_trades(plain)

    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        # the bad byte lies past the first chunk the text reader decodes, so
        # its line is counted in the file, not in the chunk
        p = tmp_path / "t.csv"
        rows = b"a2b,10\n" * 2000
        p.write_bytes(b"\xef\xbb\xbfdirection,amount_in\n" + rows + b"\xff\xfe,1\nb2a,5\n")
        where = re.escape(f"{p}: line 2002: not valid UTF-8: byte 0xff")
        with pytest.raises(TraceFormatError, match=f"^{where}"):
            load_trades(p)
        # lines end at \r\n, \r or \n, as for every other bad row
        p.write_bytes(b"direction,amount_in\r\na2b,10\rb2a,5\n\xff\xfe,1\n")
        with pytest.raises(TraceFormatError, match=": line 4: not valid UTF-8"):
            load_trades(p)

    def test_spaces_around_unquoted_fields_are_padding(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(" direction ,\tamount_in\n a2b , 10 \n\tb2a\t,\t5\t\n")
        assert load_trades(p) == trace_of(("a2b", 10.0), ("b2a", 5.0))

    def test_header_only_warns_and_returns_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("direction,amount_in\n")
        with pytest.warns(UserWarning):
            assert load_trades(p) == trace_of()

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

    def test_quoted_line_break_in_a_direction_is_an_unknown_direction(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text('direction,amount_in\n"a2b\n",1\nb2a,-5\n')
        with pytest.raises(TraceFormatError) as error:
            load_trades(p)
        # the row ends on line 3
        assert str(error.value) == f"{p}: line 3: unknown direction: 'a2b\\n'"

    def test_quoted_line_break_in_the_header_is_no_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text('"direction\n",amount_in\na2b,1\n')
        with pytest.raises(TraceFormatError, match=r"bad\.csv: line 2: expected header"):
            load_trades(p)

    def test_lines_after_a_quoted_line_break_keep_their_numbers(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text('direction,amount_in\na2b,"1\n"\nb2a,-5\n')
        with pytest.raises(TraceFormatError) as error:
            load_trades(p)
        assert str(error.value) == f"{p}: line 4: amount_in must be finite and positive, got -5.0"

    def test_oversized_field_names_line(self, tmp_path):
        # csv's field limit raises csv.Error, which is no ValueError
        p = tmp_path / "big.csv"
        p.write_text("direction,amount_in\na2b,1\nb2a," + "1" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(TraceFormatError, match=r"big\.csv: line 3: field larger than field limit"):
            load_trades(p)

    @pytest.mark.parametrize(
        "direction, amount", [("sideways", "2"), ("a2b", "-1"), ("b2a", "inf"), ("a2b", "nan")]
    )
    def test_row_errors_are_trade_event_errors(self, tmp_path, direction, amount):
        # one rule, check_trade, behind the Trace constructor and every row of a file
        with pytest.raises(ValueError) as rule:
            check_trade(direction, float(amount))
        p = tmp_path / "bad.csv"
        p.write_text(f"direction,amount_in\na2b,1\n{direction},{amount}\n")
        with pytest.raises(TraceFormatError) as row:
            load_trades(p)
        assert str(row.value) == f"{p}: line 3: {rule.value}"


class TestTrace:
    """load_trades and generate_trades hold a trace as two flat columns."""

    def test_columns_hold_nine_bytes_per_trade(self, tmp_path):
        generated = generate_trades(SyntheticSpec(n_trades=1000, seed=3))
        p = tmp_path / "t.csv"
        save_trades(p, generated)
        for trace in (generated, load_trades(p)):
            assert isinstance(trace, Trace) and len(trace) == 1000
            assert isinstance(trace.a2b, bytes) and trace.amounts.typecode == "d"
            assert len(trace.a2b) + trace.amounts.itemsize * len(trace.amounts) <= 9 * 1000

    def test_columns_compare_and_pickle(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("direction,amount_in\na2b,10\nb2a,5\na2b,0.25\n")
        trace = load_trades(p)
        assert trace.a2b == b"\x01\x00\x01" and list(trace.amounts) == [10.0, 5.0, 0.25]
        assert trace == trace_of(("a2b", 10.0), ("b2a", 5.0), ("a2b", 0.25))
        assert trace != trace_of(("a2b", 10.0), ("b2a", 5.0), ("b2a", 0.25))
        assert trace != trace_of(("a2b", 10.0), ("b2a", 5.0))
        copy = pickle.loads(pickle.dumps(trace))
        assert isinstance(copy, Trace) and copy == trace and copy.a2b == trace.a2b
        assert not hasattr(trace, "__dict__")

    def test_equal_traces_hash_equal(self):
        # a frozen Trace hashes by the columns it compares by
        trace = trace_of(("a2b", 10.0), ("b2a", 5.0))
        same = Trace(b"\x01\x00", array("d", [10.0, 5.0]))
        assert same is not trace and hash(same) == hash(trace)
        assert {trace, same} == {trace}
        assert len({trace, same, trace_of(("a2b", 10.0), ("a2b", 5.0))}) == 2

    @pytest.mark.parametrize(
        "a2b, amounts, message",
        [(b"\x02", [1.0], "a2b must hold 1"), (b"\x01\x00", [1.0], "a2b has 2 entries for 1"),
         (b"\x00", [-1.0], "amount_in must be finite and positive, got -1.0"),
         (b"\x01\x00", [1.0, math.nan], "amount_in must be finite and positive, got nan"),
         (b"\x01\xff", [1.0, 1.0], "a2b must hold 1")],
    )
    def test_constructor_checks_every_trade(self, a2b, amounts, message):
        # built by hand, a Trace holds no trade that check_trade would refuse
        with pytest.raises(ValueError, match=message):
            Trace(a2b, array("d", amounts))

    @pytest.mark.parametrize(
        "a2b, amounts, message",
        [(b"\x01\x00", array("f", [1.0, 2.0]), r"amounts must be an array\('d'\), got array\('f'\)"),
         (b"\x01", [1.0], r"amounts must be an array\('d'\), got list"),
         (bytearray(b"\x01"), array("d", [1.0]), "a2b must be bytes, got bytearray")],
        ids=["float_amounts", "list_amounts", "bytearray_a2b"],
    )
    def test_constructor_checks_column_types(self, a2b, amounts, message):
        # such columns compare equal to a Trace's own yet hash apart, or not at all
        with pytest.raises(TypeError, match=message):
            Trace(a2b, amounts)

    @pytest.mark.parametrize("amount", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_constructor_rejects_non_finite_or_nonpositive_amount(self, amount):
        with pytest.raises(ValueError, match="amount_in must be finite and positive"):
            Trace(b"\x01", array("d", [amount]))

    def test_save_writes_the_loaded_bytes_back(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_trades(a, generate_trades(SyntheticSpec(n_trades=500, seed=9)))
        save_trades(b, load_trades(a))
        assert a.read_bytes() == b.read_bytes()

    def test_gen_trace_writes_the_recorded_bytes(self, tmp_path):
        # no golden file covers save_trades, so its bytes are pinned here
        out = tmp_path / "t.csv"
        assert main(["gen-trace", str(out), "--n-trades", "1000", "--seed", "7"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "760963329af864bd8d5c66ed97ecfc99cfa907d1de929e5b54d7b135a9ca8855"
        )


class TestGenerateTrades:
    def test_deterministic(self):
        spec = SyntheticSpec(n_trades=200, seed=4)
        assert generate_trades(spec) == generate_trades(spec)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_trades=0)

    @pytest.mark.parametrize("name, value", [("n_trades", 0), ("size_sigma", -1.0), ("direction_bias", 1.5)])
    def test_bad_field_named_with_its_value(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must .*, got {value}$"):
            SyntheticSpec(**{name: value})

    def test_direction_bias_within_binomial_bound(self):
        spec = SyntheticSpec(n_trades=10_000, direction_bias=0.5, seed=8)
        trades = generate_trades(spec)
        a2b = sum(trades.a2b)
        assert abs(a2b - 5000) <= 3 * 50  # 3 sigma, sigma = sqrt(n/4)

    def test_sizes_are_lognormal_scale(self):
        spec = SyntheticSpec(n_trades=20_000, size_mu=math.log(50.0), size_sigma=0.5, seed=2)
        trades = generate_trades(spec)
        mean_log = sum(math.log(a) for a in trades.amounts) / len(trades)
        assert mean_log == pytest.approx(math.log(50.0), abs=0.02)

    def test_extreme_bias(self):
        only_a = generate_trades(SyntheticSpec(n_trades=100, direction_bias=1.0))
        assert only_a.a2b == bytes([1] * 100)
        only_b = generate_trades(SyntheticSpec(n_trades=100, direction_bias=0.0))
        assert only_b.a2b == bytes(100)


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

    def test_a_utf8_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"\xef\xbb\xbf" + MINIMAL.encode())
        assert load_config(p).t2 == 0.167

    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"\xef\xbb\xbf# caf\xe9\n" + MINIMAL.encode())
        where = re.escape(f"{p}: line 1: not valid UTF-8: byte 0xe9")
        with pytest.raises(ConfigError, match=f"^{where}"):
            load_config(p)
        p.write_bytes(MINIMAL.encode() + b"\n# caf\xe9\n")  # MINIMAL spans lines 1-8
        with pytest.raises(ConfigError, match=": line 9: not valid UTF-8"):
            load_config(p)

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

    def test_key_without_value_names_its_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("t2 =\n" + MINIMAL.replace("t2 = 0.167\n", ""))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: line 1: no value for key 't2'$"):
            load_config(p)

    @pytest.mark.parametrize(
        "key, value, kind", [("t2", "abc", "a number"), ("seed", "1.5", "an integer")]
    )
    def test_value_not_of_the_key_type_named(self, tmp_path, key, value, kind):
        p = tmp_path / "c.cfg"
        lines = [line for line in MINIMAL.splitlines() if not line.startswith(f"{key} ")]
        p.write_text("\n".join(lines) + f"\n{key} = {value}\n")
        message = f"{p}: key '{key}': not {kind}: '{value}'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
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
        save_trades(trace, trace_of(("a2b", 1.0)))
        cfg = ScenarioConfig(t2=0.0, s1=0.1, f=0.003, L_total=1e6, trace="t.csv")
        trades = resolve_trades(cfg, base_dir=tmp_path)
        assert len(trades) == 1

    def test_synthetic_default_spec_uses_config_seed(self):
        cfg = ScenarioConfig(t2=0.0, s1=0.1, f=0.003, L_total=1e6, trace="synthetic", seed=5)
        trades = resolve_trades(cfg)
        assert trades == generate_trades(SyntheticSpec(seed=5))

    def test_replacing_seed_keeps_the_synthetic_trace(self):
        # the spec is fixed when the config is built, so a later seed (as
        # --seed applies it) reseeds the labelling only, as for a file config
        cfg = ScenarioConfig(t2=0.0, s1=0.1, f=0.003, L_total=1e6, trace="synthetic", seed=5)
        reseeded = replace(cfg, seed=7)
        assert reseeded.seed == 7 and reseeded.synthetic == SyntheticSpec(seed=5)
        assert resolve_trades(reseeded) == resolve_trades(cfg)


class TestScenarioConfigValidation:
    def test_step_ranges(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(t2=0.0, s1=0.1, f=0.003, L_total=1e6, trace="x", take_step=0.6)
        with pytest.raises(ConfigError):
            ScenarioConfig(t2=0.0, s1=0.1, f=0.003, L_total=1e6, trace="x", liquidity_step=0.0)
        with pytest.raises(ConfigError, match="liquidity_step is too small"):
            ScenarioConfig(t2=0.0, s1=0.1, f=0.003, L_total=1e6, trace="x", liquidity_step=1e-310)

    @pytest.mark.parametrize("threshold", [-1.0, math.nan, math.inf])
    def test_deviation_threshold_rule(self, threshold):
        # the same rule, and message, as replay_trades and find_equilibrium
        with pytest.raises(ConfigError, match="deviation_threshold must be finite and nonnegative"):
            ScenarioConfig(
                t2=0.0, s1=0.1, f=0.003, L_total=1e6, trace="x", deviation_threshold=threshold
            )

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError, match="^trace must name a CSV file or 'synthetic'$"):
            ScenarioConfig(t2=0.0, s1=0.1, f=0.003, L_total=1e6, trace="")

    def test_sticky_sum(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(t2=0.0, s1=0.6, s2=0.5, f=0.003, L_total=1e6, trace="x")
