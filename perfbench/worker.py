"""One benchmark process: set up a workload and, optionally, time one call.

run.py starts this script once per sample, in a fresh single-threaded
interpreter, with one JSON argument: the job.  The job carries the parent's
time.perf_counter() reading, taken just before the start, so set-up time
counts from interpreter start.  The result goes to the job's result file as
JSON.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import spans
import workloads

LAYERS = ("analytical", "cli", "cpmm", "data_io", "simulation", "svg")


def import_program(root: Path):
    """Import takerate from the checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(root / "src"))
    import takerate

    for layer in LAYERS:
        importlib.import_module(f"takerate.{layer}")
    where = Path(takerate.__file__).resolve().parent
    if where != (root / "src" / "takerate").resolve():
        raise SystemExit(f"error: imported takerate from {where}, not from the checkout")
    return takerate


def bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(job: dict) -> dict:
    tk = import_program(Path(job["root"]))
    tracer = None
    if job["traced"]:
        tracer = spans.Tracer()
        spans.instrument(tracer, {layer: getattr(tk, layer) for layer in LAYERS} | {"": tk})
    work = Path(job["inputs"])
    inputs = workloads.setup(job["workload"], work, tk)
    result = {"setup_s": time.perf_counter() - job["t0"]}
    if not job["op"]:
        return result

    out = Path(job["out"])
    start = time.perf_counter()
    outputs = workloads.run(job["workload"], inputs, out, tk)
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for output in outputs:
        if isinstance(output, Exception):
            traceback.print_exception(output, file=sys.stderr)

    manifest = json.loads((work / "manifest.json").read_text())
    numbers, failures = checks.check(job["workload"], manifest, outputs, out, job["reference"])
    result.update(
        attempted=workloads.ops_per_run(job["workload"]),
        failed=checks.failed_count(job["workload"], failures),
        failures=[failures[k] for k in sorted(failures)][:5],
        numbers=numbers,
    )
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, bytes_under(out))
        result["missing"] = sorted(tracer.missing)
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    Path(job["result"]).write_text(json.dumps(main(job)))
