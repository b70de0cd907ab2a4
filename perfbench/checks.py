"""Correctness checks on a workload's outputs.

Outputs are parsed back into numbers, never compared as whole files, so a
later change that adds columns or report lines still passes.  Every seed
gets the invariant checks; the recorded reference seed also gets an
element-wise comparison against reference.json, values taken from the seed
commit.

A check returns the parsed numbers and a map from operation index to the
reason it failed.  Index SUMMARY marks a failure of the run's answer as a
whole (say a wrong optimum), which fails every operation of the run.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional

from workloads import TAKE_RATES, TAKE_STEP, ops_per_run

SUMMARY = -1
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Outputs are written with 12 significant digits.
PRINT_TOL = 1e-11

SWEEP_COLUMNS = ("t1", "l1", "rev1", "r1", "r2")
CURVE_COLUMNS = ("t1", "l1", "rev1")
EQUILIBRIUM_FIELDS = ("l1", "v1", "v2", "r1", "r2", "rev1")


def failed_count(workload: str, failures: dict) -> int:
    return ops_per_run(workload) if SUMMARY in failures else len(failures)


def _value(text: str) -> Optional[float]:
    return None if text == "" else float(text)


def _finite(values) -> bool:
    return all(v is None or math.isfinite(v) for v in values)


def read_table(path: Path, columns: tuple[str, ...]) -> list[list[Optional[float]]]:
    """Named columns of a written CSV, as numbers (None for an empty cell)."""
    header, *rows = path.read_text().splitlines()
    names = header.split(",")
    index = [names.index(c) for c in columns]
    return [[_value(row.split(",")[i]) for i in index] for row in rows]


def read_report(path: Path) -> dict[str, str]:
    """The `key = value` lines of a written report.txt."""
    pairs = (line.split("=", 1) for line in path.read_text().splitlines() if "=" in line)
    return {key.strip(): value.strip() for key, value in pairs}


def _check_curve(rows: list, failures: dict) -> None:
    """Invariants on a take-rate curve: finite, exact grid, l1 in [0, 1]."""
    if len(rows) != TAKE_RATES:
        failures[SUMMARY] = f"curve has {len(rows)} rows, expected {TAKE_RATES}"
    for i, (t1, l1, rev1, *_) in enumerate(rows):
        if None in (t1, l1, rev1) or not _finite(rows[i]):
            failures.setdefault(i, f"row {i}: missing or non-finite value")
        elif abs(t1 - min(1.0, i * TAKE_STEP)) > PRINT_TOL:
            failures.setdefault(i, f"row {i}: t1 = {t1} is off the take-rate grid")
        elif not 0.0 <= l1 <= 1.0:
            failures.setdefault(i, f"row {i}: l1 = {l1} outside [0, 1]")


def _check_sweep(results: list, out: Path) -> tuple[dict, dict]:
    failures: dict = {}
    if results[0] != 0:
        return {"ops": [], "summary": []}, {SUMMARY: f"simulate exited {results[0]}"}
    rows = read_table(out / "sweep.csv", SWEEP_COLUMNS)
    report = read_report(out / "report.txt")
    summary = [float(report["t1_star"]), float(report["rev1_star"])]
    _check_curve(rows, failures)
    revenues = [r[2] for r in rows if r[2] is not None and math.isfinite(r[2])]
    if not _finite(summary):
        failures[SUMMARY] = "t1_star or rev1_star is not finite"
    elif revenues and summary[1] < max(revenues) - PRINT_TOL:
        failures[SUMMARY] = "rev1_star is below a revenue on the curve"
    return {"ops": rows, "summary": summary}, failures


def _check_ensemble(results: list) -> tuple[dict, dict]:
    failures: dict = {}
    ops = []
    for k, result in enumerate(results):
        if isinstance(result, Exception):
            failures[k] = f"member {k}: {type(result).__name__}: {result}"
            ops.append([])
            continue
        values = [getattr(result, name) for name in EQUILIBRIUM_FIELDS]
        ops.append(values)
        if None in (values[0], values[-1]) or not _finite(values):
            failures[k] = f"member {k}: missing or non-finite value"
        elif not 0.0 <= values[0] <= 1.0:
            failures[k] = f"member {k}: l1 = {values[0]} outside [0, 1]"
    return {"ops": ops, "summary": []}, failures


def _check_grid(results: list, scenarios: list, out: Path) -> tuple[dict, dict]:
    failures: dict = {}
    ops = []
    for i, (result, scenario) in enumerate(zip(results, scenarios)):
        if isinstance(result, Exception):
            failures[i] = f"scenario {i}: {type(result).__name__}: {result}"
            ops.append([])
            continue
        run = out / f"{i:03d}"
        report = read_report(run / "report.txt")
        optimum = [float(report[k]) for k in ("t1_star", "rev1_star", "l1_at_star")]
        ops.append(optimum)
        curve_failures: dict = {}
        rows = read_table(run / "curve.csv", CURVE_COLUMNS)
        _check_curve(rows, curve_failures)
        t1_star, rev1_star, l1_at_star = optimum
        if curve_failures:
            failures[i] = f"scenario {i}: curve.csv: {next(iter(curve_failures.values()))}"
        elif not _finite(optimum):
            failures[i] = f"scenario {i}: non-finite optimum"
        elif not 0.0 <= l1_at_star <= 1.0:
            failures[i] = f"scenario {i}: l1_at_star = {l1_at_star} outside [0, 1]"
        elif rev1_star < max(r[2] for r in rows) - PRINT_TOL:
            failures[i] = f"scenario {i}: rev1_star is below a revenue on the curve"
        elif scenario["s2"] == 0.0:
            closed = 1.0 - (1.0 - scenario["s1"]) * (1.0 - scenario["t2"]) / (1.0 + scenario["d"])
            if abs(t1_star - closed) > PRINT_TOL or abs(rev1_star - closed) > PRINT_TOL:
                failures[i] = f"scenario {i}: t1* = {t1_star}, closed form gives {closed}"
    return {"ops": ops, "summary": []}, failures


def _same(got: list, want: list) -> bool:
    return len(got) == len(want) and all(
        (g is None and w is None)
        or (g is not None and w is not None and math.isclose(g, w, rel_tol=REL_TOL, abs_tol=ABS_TOL))
        for g, w in zip(got, want)
    )


def compare(numbers: dict, reference: dict, failures: dict) -> None:
    """Flag every operation whose numbers differ from the reference."""
    if len(numbers["ops"]) != len(reference["ops"]):
        failures[SUMMARY] = "operation count differs from the reference"
    for i, (got, want) in enumerate(zip(numbers["ops"], reference["ops"])):
        if got and not _same(got, want):
            failures.setdefault(i, f"operation {i}: {got} differs from reference {want}")
    if not _same(numbers["summary"], reference["summary"]):
        failures[SUMMARY] = f"summary {numbers['summary']} differs from {reference['summary']}"


def check(workload: str, manifest: dict, results: list, out: Path,
          reference: Optional[dict] = None) -> tuple[dict, dict]:
    """Parse and check one timed call's outputs; see the module docstring."""
    try:
        if workload == "sweep_sticky":
            numbers, failures = _check_sweep(results, out)
        elif workload == "seed_ensemble":
            numbers, failures = _check_ensemble(results)
        else:
            numbers, failures = _check_grid(results, manifest["scenarios"], out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {"ops": [], "summary": []}, {SUMMARY: f"unreadable output: {exc!r}"}
    if reference is not None:
        compare(numbers, reference, failures)
    return numbers, failures
