"""Tests of the benchmark harness itself (not of takerate).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root 0-10 holds a 1-4 (which holds b 2-3) and c 5-7
        trace = [
            ["root", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["b", 2.0, 3.0, 1],
            ["c", 5.0, 7.0, 0],
        ]
        self.assertEqual(spans.self_times(trace), {"root": 5.0, "a": 2.0, "b": 1.0, "c": 2.0})

    def test_same_name_at_two_depths_sums(self):
        trace = [["x", 0.0, 4.0, -1], ["x", 1.0, 2.0, 0]]
        self.assertEqual(spans.self_times(trace), {"x": 4.0})

    def test_wrapped_calls_record_parents(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock=clock)

        def inner():
            clock.now += 2.0

        wrapped_inner = tracer.wrap("inner", inner, "span")

        def outer():
            clock.now += 1.0
            wrapped_inner()
            wrapped_inner()
            clock.now += 1.0

        tracer.wrap("outer", outer, "span")()
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0])
        self.assertEqual(spans.self_times(tracer.spans), {"outer": 2.0, "inner": 4.0})


def fake_package(drop: str = "") -> dict:
    """Modules shaped like takerate's, with every instrumented name a stub."""
    modules = {name: types.ModuleType(f"fake.{name}") for name in worker.LAYERS}
    for target in spans.TARGETS:
        home, attr = target.split(".", 1)
        if target != drop:
            setattr(modules[home], attr, lambda *a, **k: [])
    quote = lambda: 0.0  # noqa: E731
    quote.__module__ = modules["cpmm"].__name__
    modules["cpmm"].quote = quote
    return modules


class MissingTargetTest(unittest.TestCase):
    def test_missing_name_reads_missing_not_zero(self):
        tracer = spans.Tracer()
        spans.instrument(tracer, fake_package(drop="simulation._replay_single"))
        metrics = spans.layer_metrics(tracer, bytes_written=0)
        self.assertEqual(tracer.missing, {"simulation._replay_single"})
        for name in ("simulation.replays", "simulation.distinct_cell_ratio",
                     "simulation.trades_replayed", "simulation.replay.self_s",
                     "simulation.cells_per_equilibrium"):
            self.assertIsNone(metrics[name], name)
        self.assertEqual(metrics["simulation.find_equilibrium.calls"], 0)

    def test_present_names_count_through_every_binding(self):
        modules = fake_package()
        # cli binds simulation's function under its own name, as takerate does
        modules["cli"].sweep_take_rate = modules["simulation"].sweep_take_rate
        tracer = spans.Tracer()
        spans.instrument(tracer, modules)
        modules["cli"].sweep_take_rate()
        modules["simulation"].sweep_take_rate()
        metrics = spans.layer_metrics(tracer, bytes_written=0)
        self.assertEqual(tracer.counts["simulation.sweep_take_rate"], 2)
        self.assertEqual(metrics["cpmm.calls"], 0)
        self.assertFalse(tracer.missing)
        self.assertTrue(all(v is not None for v in metrics.values()))

    def test_replay_cells_distinct_by_split_and_labels(self):
        tracer = spans.Tracer()
        replay = tracer.wrap("simulation._replay_two", lambda *a: None, "replay")
        labels_a = [(True, 1.0, 0), (False, 2.0, 1)]
        labels_b = [(True, 1.0, 0), (False, 2.0, 2)]
        replay(1.0, 1.0, labels_a, 0.1)
        replay(1.0, 1.0, list(labels_a), 0.1)  # same cell, new list object
        replay(2.0, 2.0, labels_a, 0.1)
        replay(1.0, 1.0, labels_b, 0.1)
        self.assertEqual(tracer.distinct_cells, 3)
        self.assertEqual(tracer.trades_replayed, 8)


class CorrectnessCheckTest(unittest.TestCase):
    def setUp(self):
        self.reference = json.loads((HERE / "reference.json").read_text())["sweep_sticky"]
        self.tmp = tempfile.TemporaryDirectory()
        self.out = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def write_sweep(self, rows, summary):
        def cell(v):
            return "" if v is None else repr(v)
        lines = [",".join(checks.SWEEP_COLUMNS) + ",l1_ref,rev1_ref"]
        lines += [",".join(cell(v) for v in row) + ",0.5,0.1" for row in rows]
        (self.out / "sweep.csv").write_text("\n".join(lines) + "\n")
        (self.out / "report.txt").write_text(
            f"mode = simulate\n\nt1_star = {summary[0]!r}\nrev1_star = {summary[1]!r}\n"
        )

    def check(self):
        return checks.check("sweep_sticky", {}, [0], self.out, self.reference)[1]

    def test_reference_output_passes(self):
        self.write_sweep(self.reference["ops"], self.reference["summary"])
        self.assertEqual(self.check(), {})

    def test_perturbed_rev1_fails_that_sample(self):
        rows = [list(r) for r in self.reference["ops"]]
        rows[40][2] *= 1.0 + 1e-6
        self.write_sweep(rows, self.reference["summary"])
        failures = self.check()
        self.assertEqual(list(failures), [40])
        self.assertEqual(checks.failed_count("sweep_sticky", failures), 1)

    def test_nan_fails_without_reference(self):
        rows = [list(r) for r in self.reference["ops"]]
        rows[7][1] = math.nan
        self.write_sweep(rows, self.reference["summary"])
        failures = checks.check("sweep_sticky", {}, [0], self.out)[1]
        self.assertEqual(list(failures), [7])

    def test_wrong_optimum_fails_every_sample(self):
        t1_star, rev1_star = self.reference["summary"]
        self.write_sweep(self.reference["ops"], [t1_star, rev1_star * 0.5])
        failures = self.check()
        self.assertEqual(checks.failed_count("sweep_sticky", failures), workloads.TAKE_RATES)

    def test_closed_form_optimum_is_checked_when_s2_is_zero(self):
        scenario = {"t2": 0.1, "s1": 0.2, "s2": 0.0, "d": 0.0}
        run_dir = self.out / "000"
        run_dir.mkdir()
        rows = [f"{min(1.0, i * workloads.TAKE_STEP)!r},1.0,0.0" for i in range(workloads.TAKE_RATES)]
        (run_dir / "curve.csv").write_text("t1,l1,rev1\n" + "\n".join(rows) + "\n")
        closed = 1.0 - 0.8 * 0.9
        for t1_star, expect_failure in ((closed, False), (closed + 0.01, True)):
            (run_dir / "report.txt").write_text(
                f"t1_star = {t1_star!r}\nrev1_star = {closed!r}\nl1_at_star = 1\n"
            )
            failures = checks.check("analyze_grid", {"scenarios": [scenario]}, [None], self.out)[1]
            self.assertEqual(bool(failures), expect_failure)


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in manifest["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in manifest["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in manifest["per_layer"]],
            [(name, unit) for name, unit, _ in spans.PER_LAYER],
        )

    def test_inputs_depend_only_on_the_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, b, c = (Path(tmp) / n for n in "abc")
            workloads.generate_inputs("analyze_grid", 5, a)
            workloads.generate_inputs("analyze_grid", 5, b)
            workloads.generate_inputs("analyze_grid", 6, c)
            same = (a / "manifest.json").read_text() == (b / "manifest.json").read_text()
            self.assertTrue(same)
            self.assertNotEqual((a / "manifest.json").read_text(), (c / "manifest.json").read_text())


if __name__ == "__main__":
    unittest.main()
