"""End-to-end CLI tests: output files, determinism, error reporting."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import takerate
from takerate.analytical import ModelParams
from takerate.cli import cmd_analyze, cmd_simulate, main
from takerate.data_io import (
    SyntheticSpec,
    generate_trades,
    load_config,
    load_trades,
    save_trades,
)

FORK_CFG = """
t2 = 0.0
s1 = 0.1
s2 = 0.0
d = 0.1
f = 0.003
L_total = 1e6
trace = synthetic
n_trades = 800
size_mu = 3.0
seed = 42
"""

NO_STICKY_CFG = """
t2 = 0.167
s1 = 0.0
s2 = 0.0
d = 0.0
f = 0.003
L_total = 1e6
trace = synthetic
n_trades = 400
size_mu = 3.0
seed = 7
"""

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


def write_cfg(tmp_path, text, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestAnalyze:
    def test_fork_with_sticky_liquidity_argmax(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, FORK_CFG))
        report = cmd_analyze(cfg, out_dir=tmp_path / "out")
        assert report.t1_star == pytest.approx(1.0 - 0.9 / 1.1, abs=1e-9)
        assert (tmp_path / "out" / "curve.csv").exists()
        assert (tmp_path / "out" / "report.txt").exists()

    def test_curve_csv_shape(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, FORK_CFG))
        cmd_analyze(replace(cfg, take_step=0.1), out_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "curve.csv").read_text().strip().splitlines()
        assert lines[0] == "t1,l1,rev1"
        assert len(lines) == 12  # header + 11 grid points
        assert "," in lines[1] and "." not in lines[0]

    def test_winner_take_all_curve(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, NO_STICKY_CFG))
        report = cmd_analyze(cfg, out_dir=tmp_path / "out")
        for s in report.curve.samples:
            if s.t1 < 0.167:
                assert s.l1 == 1.0
                assert s.rev1 == pytest.approx(s.t1, rel=1e-12)
            elif s.t1 > 0.167:
                assert s.l1 == 0.0
                assert s.rev1 == 0.0

    def test_argmax_is_on_curve_scale(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, FORK_CFG))
        report = cmd_analyze(cfg, out_dir=tmp_path / "out")
        peak = max(s.rev1 for s in report.curve.samples)
        assert report.rev1_star >= peak - 1e-9

    def test_builds_no_model_params(self, tmp_path, monkeypatch):
        # the curve, the s2 > 0 scan and l1_at_star all run on the config's
        # one ModelParams, even where the optimum is the no-sticky tie
        sticky = load_config(write_cfg(tmp_path, FORK_CFG.replace("s2 = 0.0", "s2 = 0.05")))
        tie = load_config(write_cfg(tmp_path, NO_STICKY_CFG, name="tie.cfg"))
        validate = ModelParams.__post_init__
        calls = []

        def counting(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(ModelParams, "__post_init__", counting)
        cmd_analyze(sticky, out_dir=tmp_path / "sticky")
        report = cmd_analyze(tie, out_dir=tmp_path / "tie")
        assert calls == []
        assert report.l1_at_star == 1.0  # an indeterminate optimum is the full-liquidity edge
        replace(sticky.params, t1=0.5)
        assert len(calls) == 1  # the counter itself is live

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=[c.stem for c in SHIPPED_CONFIGS])
    def test_report_optimum_agrees_with_itself(self, config, tmp_path):
        # rev1 = t1 * v1 with v1 = s1 + (1 - s1 - s2) * l1; the no-sticky tie
        # used to report l1_at_star = 0.5 beside rev1_star = t1_star
        cfg = load_config(config)
        assert main(["analyze", str(config), "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "report.txt").read_text().splitlines()
        star = dict(line.split(" = ") for line in lines if " = " in line)
        t1, rev1, l1 = (float(star[k]) for k in ("t1_star", "rev1_star", "l1_at_star"))
        assert rev1 == pytest.approx(t1 * (cfg.s1 + (1.0 - cfg.s1 - cfg.s2) * l1))


class TestSimulate:
    def test_outputs_and_agreement(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, FORK_CFG))
        report = cmd_simulate(
            replace(cfg, take_step=0.05, liquidity_step=0.02), out_dir=tmp_path / "out"
        )
        assert (tmp_path / "out" / "sweep.csv").exists()
        assert (tmp_path / "out" / "sweep.svg").exists()
        assert (tmp_path / "out" / "report.txt").exists()
        assert report.max_delta_rev1 is not None
        # the optimum lands near the closed form 0.1818 on the 0.05 grid
        assert abs(report.t1_star - 0.18) <= 0.05 + 1e-9
        header = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[0]
        assert header == "t1,l1,rev1,r1,r2,l1_ref,rev1_ref"

    def test_compare_flag_changes_nothing(self, tmp_path, capsys):
        # every run measures the gap to the closed form; --compare still parses
        cfg_path = write_cfg(tmp_path, FORK_CFG)
        runs = {}
        for name, flags in (("plain", []), ("compare", ["--compare"])):
            assert main(["simulate", str(cfg_path), *flags, "--take-step", "0.1",
                         "--liquidity-step", "0.05", "--out-dir", str(tmp_path / name)]) == 0
            runs[name] = capsys.readouterr().out.replace(str(tmp_path / name), "OUT")
        assert runs["plain"] == runs["compare"]
        assert "\ncompare: max |dl1| = " in runs["plain"]
        for name in ("sweep.csv", "sweep.svg", "report.txt"):
            plain = (tmp_path / "plain" / name).read_bytes()
            assert plain == (tmp_path / "compare" / name).read_bytes(), name
        report = (tmp_path / "plain" / "report.txt").read_text().splitlines()
        assert any(line.startswith("max_abs_delta_l1_vs_analytical = ") for line in report)
        assert any(line.startswith("max_abs_delta_rev1_vs_analytical = ") for line in report)

    def test_no_sticky_simulation_matches_analytics_exactly(self, tmp_path):
        # without sticky volume or liquidity the replay reproduces the
        # winner-take-all analytical curve point by point
        cfg = load_config(write_cfg(tmp_path, NO_STICKY_CFG))
        cfg = replace(cfg, take_step=0.05, liquidity_step=0.05)
        sim = cmd_simulate(cfg, out_dir=tmp_path / "s")
        ana = cmd_analyze(cfg, out_dir=tmp_path / "a")
        for s_sim, s_ana in zip(sim.curve.samples, ana.curve.samples):
            if abs(s_sim.t1 - 0.167) < 0.05:
                continue  # the tie cell itself is indeterminate analytically
            assert s_sim.l1 == s_ana.l1
            assert s_sim.rev1 == pytest.approx(s_ana.rev1, abs=1e-3)

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        cfg_path = write_cfg(tmp_path, FORK_CFG)
        r = main(["simulate", str(cfg_path), "--take-step", "0.1",
                  "--liquidity-step", "0.05", "--out-dir", str(tmp_path / "r1")])
        assert r == 0
        r = main(["simulate", str(cfg_path), "--take-step", "0.1",
                  "--liquidity-step", "0.05", "--out-dir", str(tmp_path / "r2")])
        assert r == 0
        for name in ("sweep.csv", "sweep.svg", "report.txt"):
            b1 = (tmp_path / "r1" / name).read_bytes()
            b2 = (tmp_path / "r2" / name).read_bytes()
            assert b1 == b2, name

    def test_file_trace_relative_to_config(self, tmp_path):
        r = main(["gen-trace", str(tmp_path / "trace.csv"), "--n-trades", "200",
                  "--size-mu", "3.0", "--seed", "1"])
        assert r == 0
        cfg_path = write_cfg(
            tmp_path,
            "t2 = 0.0\ns1 = 0.1\nf = 0.003\nL_total = 1e5\ntrace = trace.csv\n",
        )
        r = main(["simulate", str(cfg_path), "--take-step", "0.2",
                  "--liquidity-step", "0.1", "--out-dir", str(tmp_path / "out")])
        assert r == 0


class TestFlagsReplaceConfigKeys:
    """A flag replaces the config key of the same name, and report.txt says so."""

    def test_simulate_report_states_flag_values(self, tmp_path):
        cfg_path = write_cfg(tmp_path, FORK_CFG)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg_path), "--take-step", "0.25",
                     "--liquidity-step", "0.05", "--seed", "3", "--out-dir", str(out)]) == 0
        lines = (out / "report.txt").read_text().splitlines()
        for line in ("take_step = 0.25", "liquidity_step = 0.05", "seed = 3"):
            assert line in lines
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "0.25", "0.5", "0.75", "1"]
        # the same run through the library: the flags are a replaced config
        config = replace(load_config(cfg_path), take_step=0.25, liquidity_step=0.05, seed=3)
        cmd_simulate(config, out_dir=tmp_path / "lib", base_dir=tmp_path)
        for name in ("sweep.csv", "report.txt"):
            assert (out / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()

    def test_seed_flag_keeps_the_synthetic_trace(self, tmp_path):
        cfg_path = write_cfg(tmp_path, FORK_CFG)
        config = replace(load_config(cfg_path), seed=3)
        assert config.seed == 3 and config.synthetic.seed == 42

    def test_analyze_report_states_take_step(self, tmp_path):
        cfg_path = write_cfg(tmp_path, FORK_CFG)
        out = tmp_path / "out"
        assert main(["analyze", str(cfg_path), "--take-step", "0.25", "--out-dir", str(out)]) == 0
        assert "take_step = 0.25" in (out / "report.txt").read_text().splitlines()
        assert len((out / "curve.csv").read_text().splitlines()) == 1 + 5

    def test_bad_flag_fails_before_the_trace_is_read(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, FORK_CFG.replace("trace = synthetic", "trace = missing.csv")
                             .replace("n_trades = 800\nsize_mu = 3.0\n", ""))
        assert main(["simulate", str(cfg_path), "--liquidity-step", "0.7"]) == 1
        err = capsys.readouterr().err
        assert "liquidity_step must lie in (0, 0.5], got 0.7" in err
        assert "missing.csv" not in err


class TestGenTrace:
    def test_writes_loadable_trace(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["gen-trace", str(out), "--n-trades", "100", "--seed", "7"]) == 0
        trades = load_trades(out)
        assert len(trades) == 100

    def test_regeneration_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-trace", str(a), "--n-trades", "150", "--seed", "3"])
        main(["gen-trace", str(b), "--n-trades", "150", "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_default_spec_volume_matches_moments(self, tmp_path):
        # log-normal moments: mean = exp(mu + sigma^2/2), var = (e^{sigma^2}-1)
        # * exp(2 mu + sigma^2); the default trace total stays within 3 sigma
        import math

        out = tmp_path / "t.csv"
        assert main(["gen-trace", str(out), "--seed", "12"]) == 0
        trades = load_trades(out)
        assert len(trades) == 10_000
        mu, sigma = math.log(100.0), 1.0
        mean_total = 10_000 * math.exp(mu + sigma * sigma / 2.0)
        std_total = math.sqrt(
            10_000 * (math.exp(sigma * sigma) - 1.0) * math.exp(2.0 * mu + sigma * sigma)
        )
        total = sum(trades.amounts)
        assert abs(total - mean_total) <= 3.0 * std_total

    def test_defaults_are_synthetic_spec_defaults(self, tmp_path):
        out, ref = tmp_path / "t.csv", tmp_path / "ref.csv"
        assert main(["gen-trace", str(out)]) == 0
        save_trades(ref, generate_trades(SyntheticSpec()))
        assert out.read_bytes() == ref.read_bytes()

    def test_unwritable_path_fails(self, tmp_path):
        r = main(["gen-trace", str(tmp_path / "missing" / "t.csv"), "--n-trades", "5"])
        assert r == 1


class TestErrors:
    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, "t2 = 0.1\nmystery = 1\n")
        assert main(["analyze", str(cfg_path)]) == 1
        assert "mystery" in capsys.readouterr().err

    def test_non_finite_config_value_nonzero_exit(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, FORK_CFG.replace("d = 0.1", "d = nan"))
        assert main(["analyze", str(cfg_path), "--out-dir", str(tmp_path)]) == 1
        assert "d must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("size_mu", ["1000", "-1000"])
    def test_unrepresentable_trade_size_flag(self, tmp_path, capsys, size_mu):
        out = tmp_path / "t.csv"
        assert main(["gen-trace", str(out), "--size-mu", size_mu]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "size_mu" in err and "size_sigma" in err
        assert not out.exists()

    def test_overflowing_trade_size_config(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, FORK_CFG.replace("size_mu = 3.0", "size_mu = 1000"))
        assert main(["simulate", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "size_mu" in err

    @pytest.mark.parametrize("size_mu", ["700", "35"])
    def test_trace_out_of_scale_with_liquidity(self, tmp_path, capsys, size_mu):
        # finite trade sizes far beyond L_total would break the replay's floats
        cfg_path = write_cfg(tmp_path, FORK_CFG.replace("size_mu = 3.0", f"size_mu = {size_mu}"))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg_path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "size_mu" in err and "L_total" in err
        assert not out.exists()

    def test_zero_fee_names_f(self, tmp_path, capsys):
        # analyze accepts f = 0, but simulate compares ROIs made of fees
        cfg_path = write_cfg(tmp_path, FORK_CFG.replace("f = 0.003", "f = 0"))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: f must be positive to simulate, got 0.0\n"
        assert not out.exists()

    def test_header_only_trace_has_nothing_to_simulate(self, tmp_path, capsys):
        (tmp_path / "empty.csv").write_text("direction,amount_in\n")
        cfg_path = write_cfg(tmp_path, "t2 = 0.0\ns1 = 0.1\nf = 0.003\nL_total = 1e5\ntrace = empty.csv\n")
        out = tmp_path / "out"
        assert main(["simulate", str(cfg_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: the trace contains no trades; nothing to simulate\n"
        assert not out.exists()

    def test_file_trace_out_of_scale_names_the_file(self, tmp_path, capsys):
        (tmp_path / "huge.csv").write_text("direction,amount_in\na2b,1e300\n")
        cfg_path = write_cfg(tmp_path, "t2 = 0.0\ns1 = 0.1\nf = 0.003\nL_total = 1e5\ntrace = huge.csv\n")
        out = tmp_path / "out"
        assert main(["simulate", str(cfg_path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trades up to 1e+300 ")
        assert err.endswith("; scale down the amounts in huge.csv or raise L_total\n")
        assert not out.exists()

    def test_oversized_trace_field(self, tmp_path, capsys):
        # csv's field limit raises csv.Error, which used to escape as a traceback
        (tmp_path / "big.csv").write_text("direction,amount_in\nb2a," + "1" * 200_000 + "\n")
        cfg_path = write_cfg(tmp_path, "t2 = 0.0\ns1 = 0.1\nf = 0.003\nL_total = 1e5\ntrace = big.csv\n")
        out = tmp_path / "out"
        assert main(["simulate", str(cfg_path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'big.csv'}: line 2: field larger than field limit")
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.cfg")]) == 1
        assert "error" in capsys.readouterr().err

    def test_out_of_range_flag(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, FORK_CFG)
        assert main(["simulate", str(cfg_path), "--take-step", "0.7"]) == 1
        err = capsys.readouterr().err
        assert "take_step" in err

    @pytest.mark.parametrize(
        "command, key", [("analyze", "take_step"), ("simulate", "take_step"),
                         ("simulate", "liquidity_step")]
    )
    def test_step_with_overflowing_reciprocal(self, tmp_path, capsys, command, key):
        # 1e-310 lies in (0, 0.5], but 1/1e-310 is inf
        cfg_path = write_cfg(tmp_path, FORK_CFG)
        out = tmp_path / "out"
        flag = "--" + key.replace("_", "-")
        assert main([command, str(cfg_path), flag, "1e-310", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "command, key", [("analyze", "take_step"), ("simulate", "take_step"),
                         ("simulate", "liquidity_step")]
    )
    def test_step_too_fine_for_a_grid(self, tmp_path, capsys, command, key):
        # 1e-12 is finite, but its grid would hold 1e12 floats
        cfg_path = write_cfg(tmp_path, FORK_CFG)
        out = tmp_path / "out"
        flag = "--" + key.replace("_", "-")
        assert main([command, str(cfg_path), flag, "1e-12", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} is too small") and "Traceback" not in err
        assert not out.exists()


class TestClosedStdout:
    """A reader that closes stdout early (`| head -0`) does not fail a finished run."""

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize(
        "command, written", [("analyze", ["curve.csv", "report.txt"]),
                             ("simulate", ["sweep.csv", "sweep.svg", "report.txt"])]
    )
    def test_exit_zero_and_files_written(self, tmp_path, command, written, buffered):
        cfg_path = write_cfg(tmp_path, NO_STICKY_CFG)
        out = tmp_path / "out"
        env = dict(os.environ)
        src = str(Path(takerate.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        # buffered stdout fails at the final flush, unbuffered at the first print
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "takerate.cli", command, str(cfg_path),
                 "--take-step", "0.1", "--out-dir", str(out)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert sorted(p.name for p in out.iterdir()) == sorted(written)
