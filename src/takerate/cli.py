"""Command-line front end: scenario runs to CSV tables and SVG charts.

Three commands:

* ``analyze CONFIG``: closed-form liquidity share and revenue over the
  take-rate grid, plus the optimal take rate.  Writes curve.csv, report.txt.
* ``simulate CONFIG``: the trade-level sweep on the config's trace beside
  the closed-form curve, and the largest gap between the two.  Writes
  sweep.csv, sweep.svg, report.txt.
* ``gen-trace OUT``: synthesize a trace CSV for later runs.

A flag named after a config key replaces that key in the run's one
ScenarioConfig, which checks it like a file value, so report.txt lists what
ran; --seed reseeds the labelling, not a synthetic trace.  gen-trace flags
replace SyntheticSpec fields.  Exit status is 0 only for a completed run;
validation problems report the offending key or flag and exit nonzero.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .analytical import equilibrium_curve, optimal_take_rate, take_rate_grid
from .data_io import (
    CONFIG_KEYS,
    KEY_TYPES,
    ConfigError,
    ScenarioConfig,
    SyntheticSpec,
    generate_trades,
    load_config,
    resolve_trades,
    save_trades,
)
from .simulation import SweepCurve, TraceScaleError, sweep_take_rate
from .svg import write_line_chart

if TYPE_CHECKING:
    import argparse

# Share reported at an indeterminate grid point, where every split is an
# equilibrium (the no-sticky tie t1 = t2); the midpoint marks indifference.
_INDETERMINATE_SHARE = 0.5

# Flags that replace the config key or SyntheticSpec field of the same name.
_CONFIG_FLAGS = ("take_step", "liquidity_step", "seed")
_SPEC_FLAGS = tuple(f.name for f in fields(SyntheticSpec))


@dataclass(frozen=True)
class RunReport:
    """What a CLI run produced: the curve, its optimum, a simulation's gaps."""

    mode: str
    config: ScenarioConfig
    curve: SweepCurve
    t1_star: float
    rev1_star: float
    l1_at_star: float
    max_delta_l1: Optional[float] = None
    max_delta_rev1: Optional[float] = None


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return ""
    return f"{value:.12g}"


def _analytic_curve(config: ScenarioConfig, t1s: Sequence[float]) -> SweepCurve:
    samples = equilibrium_curve(config.params, t1s, _INDETERMINATE_SHARE)
    return SweepCurve(samples=tuple(samples))


def _write_curve_csv(path: Path, curve: SweepCurve, reference: Optional[SweepCurve]) -> None:
    """A closed-form curve alone, or a simulated one beside its reference."""
    lines = ["t1,l1,rev1" if reference is None else "t1,l1,rev1,r1,r2,l1_ref,rev1_ref"]
    for i, s in enumerate(curve.samples):
        row = [_fmt(s.t1), _fmt(s.l1), _fmt(s.rev1)]
        if reference is not None:
            ref = reference.samples[i]
            row += [_fmt(s.r1), _fmt(s.r2), _fmt(ref.l1), _fmt(ref.rev1)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _write_report(path: Path, report: RunReport) -> None:
    lines = [f"mode = {report.mode}"]
    for key, kind in CONFIG_KEYS.items():
        value = getattr(report.config, key)
        lines.append(f"{key} = {_fmt(value) if kind is float else value}")
    lines += [
        "",
        f"t1_star = {_fmt(report.t1_star)}",
        f"rev1_star = {_fmt(report.rev1_star)}",
        f"l1_at_star = {_fmt(report.l1_at_star)}",
    ]
    if report.max_delta_l1 is not None:
        lines += [
            "",
            f"max_abs_delta_l1_vs_analytical = {_fmt(report.max_delta_l1)}",
            f"max_abs_delta_rev1_vs_analytical = {_fmt(report.max_delta_rev1)}",
        ]
    path.write_text("\n".join(lines) + "\n")


def _write_chart(path: Path, curve: SweepCurve, title: str) -> None:
    share = [(s.t1, s.l1) for s in curve.samples]
    revenue = [(s.t1, s.rev1) for s in curve.samples]
    write_line_chart(
        path,
        title,
        x_label="take rate of pool 1",
        series=[("liquidity share l1", share), ("protocol revenue rev1", revenue)],
    )


def cmd_analyze(config: ScenarioConfig, out_dir: str | Path = ".") -> RunReport:
    """Closed-form sweep: l1(t1), rev1(t1) and the optimal take rate."""
    curve = _analytic_curve(config, take_rate_grid(config.take_step))
    t1_star, rev1_star = optimal_take_rate(config.params)
    # the s2 = 0 closed form puts an indeterminate optimum on the edge of the
    # full-liquidity branch, l1 = 1, where rev1 = t1
    l1_at_star = equilibrium_curve(config.params, (t1_star,), 1.0)[0].l1
    report = RunReport(
        mode="analyze",
        config=config,
        curve=curve,
        t1_star=t1_star,
        rev1_star=rev1_star,
        l1_at_star=l1_at_star,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_curve_csv(out / "curve.csv", curve, reference=None)
    _write_report(out / "report.txt", report)
    return report


def cmd_simulate(
    config: ScenarioConfig,
    out_dir: str | Path = ".",
    base_dir: str | Path | None = None,
) -> RunReport:
    """Trade-level sweep over the take-rate grid, measured against the closed form."""
    trades = resolve_trades(config, base_dir=base_dir)
    try:
        curve = sweep_take_rate(
            config.params, trades, config.L_total, config.take_step, config.liquidity_step,
            seed=config.seed, deviation_threshold=config.deviation_threshold,
        )
    except TraceScaleError as exc:
        if config.trace == "synthetic":
            remedy = "lower size_mu or size_sigma, or raise L_total"
        else:
            remedy = f"scale down the amounts in {config.trace} or raise L_total"
        raise ConfigError(f"{exc}; {remedy}") from None
    best = curve.argmax()
    reference = _analytic_curve(config, take_rate_grid(config.take_step))
    pairs = list(zip(curve.samples, reference.samples))
    report = RunReport(
        mode="simulate",
        config=config,
        curve=curve,
        t1_star=best.t1,
        rev1_star=best.rev1,
        l1_at_star=best.l1,
        max_delta_l1=max(abs(s.l1 - r.l1) for s, r in pairs),
        max_delta_rev1=max(abs(s.rev1 - r.rev1) for s, r in pairs),
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_curve_csv(out / "sweep.csv", curve, reference=reference)
    _write_chart(out / "sweep.svg", curve, title="Simulated liquidity share and protocol revenue")
    _write_report(out / "report.txt", report)
    return report


def cmd_gen_trace(spec: SyntheticSpec, out_path: str | Path) -> Path:
    """Write a synthetic trace CSV loadable by the simulate command."""
    out = Path(out_path)
    if out.parent and not out.parent.exists():
        raise OSError(f"output directory does not exist: {out.parent}")
    save_trades(out, generate_trades(spec))
    return out


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only a command-line run needs it, not `import takerate.cli`

    parser = argparse.ArgumentParser(
        prog="takerate",
        description="Optimal take rates for competing constant-product pools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="closed-form sweep from a scenario config")
    analyze.add_argument("config", help="scenario config file")
    _add_flags(analyze, ("take_step",))
    analyze.add_argument("--out-dir", default=".")

    simulate = sub.add_parser("simulate", help="trade-level sweep from a scenario config")
    simulate.add_argument("config", help="scenario config file")
    _add_flags(simulate, _CONFIG_FLAGS)
    # Nothing reads --compare: every run measures the gap to the closed form.
    # It stays, hidden, so that command lines that pass it, the benchmark's
    # sweep_sticky among them, run unchanged and write the same bytes.
    simulate.add_argument("--compare", action="store_true", help=argparse.SUPPRESS)
    simulate.add_argument("--out-dir", default=".")

    gen = sub.add_parser("gen-trace", help="generate a synthetic trace CSV")
    gen.add_argument("out", help="output CSV path")
    _add_flags(gen, _SPEC_FLAGS)
    return parser


def _add_flags(parser: argparse.ArgumentParser, names: Sequence[str]) -> None:
    """One --flag per config key or SyntheticSpec field, of the key's type."""
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), type=KEY_TYPES[name])


def _given(args: argparse.Namespace, names: Sequence[str]) -> dict:
    """The flags among names that were passed, keyed by field name."""
    return {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen-trace":
            spec = SyntheticSpec(**_given(args, _SPEC_FLAGS))
            out = cmd_gen_trace(spec, args.out)
            print(f"wrote {out} ({spec.n_trades} trades)")
        else:
            config = replace(load_config(args.config), **_given(args, _CONFIG_FLAGS))
            out_dir = Path(args.out_dir)
            if args.command == "analyze":
                report = cmd_analyze(config, out_dir)
                written = f"{out_dir / 'curve.csv'} and report.txt"
            else:
                report = cmd_simulate(config, out_dir, Path(args.config).parent)
                written = f"{out_dir / 'sweep.csv'}, sweep.svg and report.txt"
            print(
                f"{report.mode}: t1* = {report.t1_star:.6f}, rev1* = {report.rev1_star:.6f}, "
                f"l1 at optimum = {report.l1_at_star:.4f}"
            )
            if report.max_delta_rev1 is not None:
                print(
                    f"compare: max |dl1| = {report.max_delta_l1:.4f}, "
                    f"max |drev1| = {report.max_delta_rev1:.4f}"
                )
            print(f"wrote {written}")
        # a closed stdout must fail here, inside the try, not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (say, `| head`) after every file was
        # written.  Point stdout at devnull so the exit-time flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    # ConfigError, TraceFormatError and TraceScaleError are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
