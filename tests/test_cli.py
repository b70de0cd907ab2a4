"""End-to-end CLI tests: output files, determinism, error reporting."""

import pytest

from takerate.cli import cmd_analyze, cmd_simulate, main
from takerate.data_io import load_config, load_trades

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
        cmd_analyze(cfg, take_step=0.1, out_dir=tmp_path / "out")
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


class TestSimulate:
    def test_outputs_and_agreement(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, FORK_CFG))
        report = cmd_simulate(
            cfg, take_step=0.05, liquidity_step=0.02, compare=True,
            out_dir=tmp_path / "out",
        )
        assert (tmp_path / "out" / "sweep.csv").exists()
        assert (tmp_path / "out" / "sweep.svg").exists()
        assert (tmp_path / "out" / "report.txt").exists()
        assert report.max_delta_rev1 is not None
        # the optimum lands near the closed form 0.1818 on the 0.05 grid
        assert abs(report.t1_star - 0.18) <= 0.05 + 1e-9
        header = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[0]
        assert header == "t1,l1,rev1,r1,r2,l1_ref,rev1_ref"

    def test_no_sticky_simulation_matches_analytics_exactly(self, tmp_path):
        # without sticky volume or liquidity the replay reproduces the
        # winner-take-all analytical curve point by point
        cfg = load_config(write_cfg(tmp_path, NO_STICKY_CFG))
        sim = cmd_simulate(cfg, take_step=0.05, liquidity_step=0.05, out_dir=tmp_path / "s")
        ana = cmd_analyze(cfg, take_step=0.05, out_dir=tmp_path / "a")
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
        total = sum(t.amount_in for t in trades)
        assert abs(total - mean_total) <= 3.0 * std_total

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

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.cfg")]) == 1
        assert "error" in capsys.readouterr().err

    def test_out_of_range_flag(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, FORK_CFG)
        assert main(["simulate", str(cfg_path), "--take-step", "0.7"]) == 1
        err = capsys.readouterr().err
        assert "take_step" in err
