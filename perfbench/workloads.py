"""The three benchmark workloads: inputs from a seed, set-up, the timed call.

Input generation runs in the parent process and uses only the standard
library, so the program under test receives nothing but the generated files.
Set-up and the timed call run in a fresh worker process and go through the
package's CLI and public functions.

Why these three (the README repeats this with measurements):

* sweep_sticky: the paper's headline run, ``takerate simulate --compare`` on
  the established_competitor_sticky scenario.  ``simulation`` does nearly
  all the work, and most of its replays repeat a (split, labelled trace)
  cell, so a cross-take-rate cell cache should show here.
* seed_ensemble: the same ``simulation`` layer used differently, one
  equilibrium search per member, each with its own trace and labelling
  seed.  No replay repeats, so a cell cache should show no change here while
  a faster replay kernel or labelling should.  Loading K trace CSVs puts real
  ``data_io`` work into set-up.
* analyze_grid: ``cli.cmd_analyze`` over random scenarios.  ``analytical``
  and the CLI writers do all the work; ``simulation`` is idle.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Market shape of configs/established_competitor_sticky.cfg.
STICKY_SCENARIO = {
    "t2": 0.167,
    "s1": 0.1,
    "s2": 0.05,
    "d": 0.0,
    "f": 0.003,
    "L_total": 2e6,
}
TRADES_PER_TRACE = 10_000
SIZE_MU = 3.912  # median trade ~50 token-0, as in the shipped configs
SIZE_SIGMA = 1.0
DIRECTION_BIAS = 0.5

TAKE_STEP = 0.01
TAKE_RATES = round(1 / TAKE_STEP) + 1
ENSEMBLE_MEMBERS = 20
ENSEMBLE_T1 = 0.27
GRID_SCENARIOS = 200

WORKLOADS = ("sweep_sticky", "seed_ensemble", "analyze_grid")


def sizes(workload: str) -> dict:
    """Workload size as recorded with every result."""
    if workload == "sweep_sticky":
        return {"trades_per_trace": TRADES_PER_TRACE, "take_rates": TAKE_RATES}
    if workload == "seed_ensemble":
        return {"K": ENSEMBLE_MEMBERS, "trades_per_trace": TRADES_PER_TRACE, "t1": ENSEMBLE_T1}
    return {"N": GRID_SCENARIOS, "take_rates": TAKE_RATES}


def ops_per_run(workload: str) -> int:
    """Operations one timed call performs: sweep samples, members, scenarios."""
    if workload == "sweep_sticky":
        return TAKE_RATES
    if workload == "seed_ensemble":
        return ENSEMBLE_MEMBERS
    return GRID_SCENARIOS


# --------------------------------------------------------------------------
# Input generation (parent process, standard library only)


def write_trace(path: Path, seed: int) -> None:
    """Log-normal trace CSV; the same recipe as ``takerate gen-trace``."""
    rng = random.Random(seed)
    lines = ["direction,amount_in"]
    for _ in range(TRADES_PER_TRACE):
        direction = "a2b" if rng.random() < DIRECTION_BIAS else "b2a"
        lines.append(f"{direction},{rng.lognormvariate(SIZE_MU, SIZE_SIGMA)!r}")
    path.write_text("\n".join(lines) + "\n")


def write_config(path: Path, trace: str, seed: int, scenario: dict) -> None:
    lines = [f"{key} = {value!r}" for key, value in scenario.items()]
    lines += [f"trace = {trace}", f"take_step = {TAKE_STEP!r}", f"seed = {seed}"]
    path.write_text("\n".join(lines) + "\n")


def generate_inputs(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's input files under `work`; return their manifest."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "sweep_sticky":
        # Trace and labelling share the workload seed, so seed 2024 reproduces
        # configs/established_competitor_sticky.cfg exactly.
        write_trace(work / "trace.csv", seed)
        write_config(work / "scenario.cfg", "trace.csv", seed, STICKY_SCENARIO)
        manifest = {"config": "scenario.cfg"}
    elif workload == "seed_ensemble":
        rng = random.Random(seed)
        members = []
        for k in range(ENSEMBLE_MEMBERS):
            trace_seed, label_seed = rng.randrange(2**31), rng.randrange(2**31)
            name = f"member_{k:02d}.csv"
            write_trace(work / name, trace_seed)
            members.append({"trace": name, "label_seed": label_seed})
        write_config(work / "scenario.cfg", "synthetic", seed, STICKY_SCENARIO)
        manifest = {"config": "scenario.cfg", "members": members}
    elif workload == "analyze_grid":
        rng = random.Random(seed)
        configs = []
        for i in range(GRID_SCENARIOS):
            scenario = {
                "t2": rng.uniform(0.0, 0.3),
                "s1": rng.uniform(0.02, 0.3),
                # every fourth scenario takes the closed-form s2 = 0 branch
                "s2": 0.0 if i % 4 == 0 else rng.uniform(0.01, 0.2),
                "d": rng.uniform(0.0, 0.2),
                "f": 0.003,
                "L_total": 2e6,
            }
            name = f"scenario_{i:03d}.cfg"
            write_config(work / name, "synthetic", seed, scenario)
            configs.append({"config": name, **scenario})
        manifest = {"scenarios": configs}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (work / "manifest.json").write_text(json.dumps(manifest))
    return manifest


# --------------------------------------------------------------------------
# Set-up and the timed call (worker process, after `import takerate`)


def setup(workload: str, work: Path, tk) -> dict:
    """Parse configs and load traces: everything the timed call needs."""
    manifest = json.loads((work / "manifest.json").read_text())
    if workload == "sweep_sticky":
        tk.data_io.load_config(work / manifest["config"])
        return {"config": str(work / manifest["config"])}
    if workload == "seed_ensemble":
        config = tk.data_io.load_config(work / manifest["config"])
        members = [
            (tk.data_io.load_trades(work / m["trace"]), m["label_seed"])
            for m in manifest["members"]
        ]
        params = tk.analytical.ModelParams(
            t1=ENSEMBLE_T1, t2=config.t2, s1=config.s1, s2=config.s2,
            d=config.d, f=config.f,
        )
        return {"config": config, "params": params, "members": members}
    return {
        "scenarios": [
            tk.data_io.load_config(work / s["config"]) for s in manifest["scenarios"]
        ]
    }


def run(workload: str, inputs: dict, out: Path, tk) -> list:
    """The timed call.  Returns one entry per operation for the checks.

    An operation that raises yields its exception in place of a result, so
    one failure does not hide the others.
    """
    if workload == "sweep_sticky":
        code = tk.cli.main(["simulate", inputs["config"], "--compare", "--out-dir", str(out)])
        return [code]
    if workload == "seed_ensemble":
        config, params = inputs["config"], inputs["params"]
        results = []
        for trades, label_seed in inputs["members"]:
            try:
                results.append(
                    tk.simulation.find_equilibrium(
                        params, trades, config.L_total, config.liquidity_step,
                        seed=label_seed, deviation_threshold=config.deviation_threshold,
                    )
                )
            except Exception as exc:  # counted as a failed operation
                results.append(exc)
        return results
    results = []
    for i, config in enumerate(inputs["scenarios"]):
        try:
            tk.cli.cmd_analyze(config, out_dir=out / f"{i:03d}")
            results.append(None)
        except Exception as exc:  # counted as a failed operation
            results.append(exc)
    return results
