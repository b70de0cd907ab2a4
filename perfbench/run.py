"""Benchmark of the takerate package: three workloads, measured end to end.

    python3 perfbench/run.py --workload all

prints, for every workload, wall_s, setup_s, peak_rss_mb and failed_frac
with their units; --trace 1 prints the per-layer metrics instead.  Run from
the root of a checkout; see perfbench/README.md for the metrics and why each
workload is there.

Each sample is a fresh worker process (worker.py) that imports takerate from
the checkout's src/, sets up and, for a timed sample, makes one call into
the workload's entry point.  Samples run one after another, never at once,
and new ones start until --seconds have passed.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER
from workloads import WORKLOADS, generate_inputs, sizes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# setup_s is a median over at least this many set-ups per run; workloads
# with fewer timed samples add set-up-only samples.
MIN_SETUPS = 7
# Every run must end within 180 s; a sample still running then is stopped.
RUN_LIMIT_S = 170.0


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(l.split(":", 1)[1].strip() for l in handle if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout if it is a git repository, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """The samples of one workload at one seed."""

    def __init__(self, workload: str, seed: int, reference: dict | None) -> None:
        self.workload = workload
        self.reference = reference
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.samples: list[dict] = []
        self.crashes = 0
        self.started = time.perf_counter()

    def sample(self, op: bool, traced: bool = False) -> None:
        """Start one worker and wait for it; one that fails or overruns is a crash."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        result_file = self.work / "result.json"
        result_file.unlink(missing_ok=True)
        job = {
            "root": str(ROOT), "workload": self.workload,
            "inputs": str(self.work / "in"), "out": str(out), "result": str(result_file),
            "op": op, "traced": traced, "reference": self.reference,
        }
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        # Workers may cache bytecode, as an installed package would.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONHASHSEED"] = "0"
        try:
            job["t0"] = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                stdout=subprocess.DEVNULL, env=env, timeout=max(remaining, 1.0),
            )
        except subprocess.TimeoutExpired:
            print(f"error: {self.workload} sample overran the run limit", file=sys.stderr)
            done = None
        if done is None or done.returncode != 0 or not result_file.is_file():
            self.crashes += 1
            return
        result = json.loads(result_file.read_text())
        result["op"], result["traced"] = op, traced
        self.samples.append(result)
        for reason in result.get("failures", []):
            print(f"{self.workload}: failed check: {reason}", file=sys.stderr)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def timed(self, traced: bool) -> list[dict]:
        return [s for s in self.samples if s["op"] and s["traced"] == traced]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reference: dict | None) -> Run:
    """Generate inputs, then sample for about `seconds`.

    A round is one timed sample (with --trace 1, an untraced and a traced
    one).  A new round starts only if, at the mean round time so far, it
    would end within `seconds`, except that an untraced run always has two.
    """
    run = Run(workload, seed, reference)
    min_rounds = 1 if trace else 2
    try:
        generate_inputs(workload, seed, run.work / "in")
        rounds = 0
        while not run.crashes:
            run.sample(op=True)
            if trace and not run.crashes:
                run.sample(op=True, traced=True)
            rounds += 1
            if rounds >= min_rounds and run.elapsed() * (rounds + 1) / rounds > seconds:
                break
        if not trace:
            while not run.crashes and len(run.samples) < MIN_SETUPS:
                run.sample(op=False)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    return run


def end_to_end(run: Run) -> dict:
    timed = run.timed(traced=False)
    return {
        "wall_s": statistics.median(s["wall_s"] for s in timed),
        "setup_s": statistics.median(s["setup_s"] for s in run.samples if not s["traced"]),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
    }


def per_layer(run: Run) -> tuple[dict, bool]:
    """Per-layer metrics and whether every traced sample gave the same counts."""
    traced = run.timed(traced=True)
    layers = [s["layers"] for s in traced]
    metrics: dict = {}
    steady = True
    for name, _, is_count in PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = (
                statistics.median(s["wall_s"] for s in traced)
                - statistics.median(s["wall_s"] for s in run.timed(traced=False))
            )
        elif is_count:
            values = [layer[name] for layer in layers]
            steady = steady and all(v == values[0] for v in values)
            metrics[name] = values[0]
        else:
            values = [layer[name] for layer in layers]
            metrics[name] = None if None in values else statistics.median(values)
    return metrics, steady


def report(workload: str, seed: int, run: Run, trace: bool, env: dict) -> dict | None:
    """Print one workload's metrics; return its result, or None if it did not run."""
    timed = [s for s in run.samples if s["op"]]
    if run.crashes or not timed:
        print(f"error: {workload}: a worker process failed", file=sys.stderr)
        return None
    attempted = sum(s["attempted"] for s in timed)
    failed = sum(s["failed"] for s in timed)
    correct = failed == 0
    if trace:
        metrics, steady = per_layer(run)
        units = {name: unit for name, unit, _ in PER_LAYER}
        missing = sorted({m for s in timed if s["traced"] for m in s["missing"]})
        if not steady:
            correct = False
            print(f"error: {workload}: counters differ between traced samples", file=sys.stderr)
        if missing:
            print(f"warning: {workload}: missing targets {missing}", file=sys.stderr)
    else:
        metrics, units = end_to_end(run), dict(END_TO_END)

    setups = sum(1 for s in run.samples if not s["traced"])
    print(f"{workload} (seed {seed}, {len(timed)} timed samples, {setups} set-ups, "
          f"{json.dumps(sizes(workload))})")
    for name, value in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:38s} {shown:>14s} {units[name]}")
    if not trace:
        print(f"  {'failed_frac':38s} {failed / attempted:>14.6g} ratio ({failed} of {attempted})")

    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "trace": trace, "environment": env,
        "sizes": sizes(workload), "correct": correct, "attempted": attempted,
        "failed": failed, "metrics": metrics,
        "samples": [{k: v for k, v in s.items() if k not in ("spans", "numbers")}
                    for s in run.samples],
        "spans": next((s["spans"] for s in timed if s["traced"]), []),
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    WORK.joinpath("results", f"{workload}-seed{seed}-trace{int(trace)}-{stamp}.json") \
        .write_text(json.dumps(record))
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's outputs as the reference for its seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "takerate" / "__init__.py").is_file():
        print(f"error: no takerate package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    use_reference = stored.get("seed") == args.seed and not args.record_reference

    env = environment()
    print(f"environment: {json.dumps(env)}")
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in chosen:
        reference = stored.get(workload) if use_reference else None
        run = measure(workload, args.seed, args.seconds, bool(args.trace), reference)
        result = report(workload, args.seed, run, bool(args.trace), env)
        if result is None:
            return 1
        results[workload] = result
        if args.record_reference:
            if stored.get("seed") != args.seed:
                stored = {"seed": args.seed}
            stored[workload] = run.timed(traced=False)[0]["numbers"]
            REFERENCE.write_text(json.dumps(stored, indent=1) + "\n")

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
