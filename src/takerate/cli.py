"""Command-line front end: scenario runs to CSV tables and SVG charts.

Three commands:

* ``analyze CONFIG``: closed-form liquidity share and revenue over the
  take-rate grid, plus the optimal take rate.  Writes curve.csv, report.txt.
* ``simulate CONFIG``: the trade-level sweep on the config's trace; with
  --compare the analytical values ride along.  Writes sweep.csv, sweep.svg,
  report.txt.
* ``gen-trace OUT``: synthesize a trace CSV for later runs.

Flags mirror config keys and take precedence over them.  Exit status is 0
only for a completed run; validation problems report the offending key or
flag and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .analytical import (
    EquilibriumResult,
    IndeterminateEquilibriumError,
    ModelParams,
    lp_roi,
    optimal_take_rate,
    pool_volumes,
    revenue_at,
    solve_equilibrium,
    take_rate_grid,
)
from .data_io import (
    ConfigError,
    ScenarioConfig,
    SyntheticSpec,
    TraceFormatError,
    generate_trades,
    load_config,
    resolve_trades,
    save_trades,
)
from .simulation import SweepCurve, TraceScaleError, sweep_take_rate
from .svg import write_line_chart

# Share reported at an indeterminate grid point, where every split is an
# equilibrium (the no-sticky tie t1 = t2); the midpoint marks indifference.
_INDETERMINATE_SHARE = 0.5


@dataclass(frozen=True)
class RunReport:
    """What a CLI run produced: the curve, its optimum, optional deltas."""

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


def _analytic_point(params: ModelParams, L_total: float) -> EquilibriumResult:
    try:
        return solve_equilibrium(params, L_total)
    except IndeterminateEquilibriumError:
        l1 = _INDETERMINATE_SHARE
        v1, v2 = pool_volumes(params, l1)
        r1, r2 = lp_roi(params, l1, L_total)
        return EquilibriumResult(
            t1=params.t1, l1=l1, v1=v1, v2=v2, r1=r1, r2=r2, rev1=revenue_at(params, l1)
        )


def _analytic_curve(base: ModelParams, L_total: float, take_step: float) -> SweepCurve:
    samples = tuple(
        _analytic_point(replace(base, t1=t1), L_total) for t1 in take_rate_grid(take_step)
    )
    return SweepCurve(samples=samples, grid_step=take_step)


def _write_curve_csv(path: Path, curve: SweepCurve, reference: Optional[SweepCurve], simulated: bool) -> None:
    columns = ["t1", "l1", "rev1"]
    if simulated:
        columns += ["r1", "r2"]
    if reference is not None:
        columns += ["l1_ref", "rev1_ref"]
    lines = [",".join(columns)]
    for i, s in enumerate(curve.samples):
        row = [_fmt(s.t1), _fmt(s.l1), _fmt(s.rev1)]
        if simulated:
            row += [_fmt(s.r1), _fmt(s.r2)]
        if reference is not None:
            ref = reference.samples[i]
            row += [_fmt(ref.l1), _fmt(ref.rev1)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _write_report(path: Path, report: RunReport) -> None:
    cfg = report.config
    lines = [
        f"mode = {report.mode}",
        f"t2 = {_fmt(cfg.t2)}",
        f"s1 = {_fmt(cfg.s1)}",
        f"s2 = {_fmt(cfg.s2)}",
        f"d = {_fmt(cfg.d)}",
        f"f = {_fmt(cfg.f)}",
        f"L_total = {_fmt(cfg.L_total)}",
        f"trace = {cfg.trace}",
        f"take_step = {_fmt(report.curve.grid_step)}",
        f"liquidity_step = {_fmt(cfg.liquidity_step)}",
        f"deviation_threshold = {_fmt(cfg.deviation_threshold)}",
        f"seed = {cfg.seed}",
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


def cmd_analyze(
    config: ScenarioConfig,
    take_step: Optional[float] = None,
    out_dir: str | Path = ".",
) -> RunReport:
    """Closed-form sweep: l1(t1), rev1(t1) and the optimal take rate."""
    step = take_step if take_step is not None else config.take_step
    curve = _analytic_curve(config.params, config.L_total, step)
    t1_star, rev1_star = optimal_take_rate(config.params)
    l1_at_star = _analytic_point(replace(config.params, t1=t1_star), config.L_total).l1
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
    _write_curve_csv(out / "curve.csv", curve, reference=None, simulated=False)
    _write_report(out / "report.txt", report)
    return report


def cmd_simulate(
    config: ScenarioConfig,
    take_step: Optional[float] = None,
    liquidity_step: Optional[float] = None,
    seed: Optional[int] = None,
    compare: bool = False,
    out_dir: str | Path = ".",
    base_dir: str | Path | None = None,
) -> RunReport:
    """Trade-level sweep over the take-rate grid; optional analytical overlay."""
    step = take_step if take_step is not None else config.take_step
    liq_step = liquidity_step if liquidity_step is not None else config.liquidity_step
    run_seed = seed if seed is not None else config.seed
    trades = resolve_trades(config, base_dir=base_dir)
    if not trades:
        raise ConfigError("the trace contains no trades; nothing to simulate")
    try:
        curve = sweep_take_rate(
            config.params,
            trades,
            config.L_total,
            take_step=step,
            liquidity_step=liq_step,
            seed=run_seed,
            deviation_threshold=config.deviation_threshold,
        )
    except TraceScaleError as exc:
        if config.trace == "synthetic":
            remedy = "lower size_mu or size_sigma, or raise L_total"
        else:
            remedy = f"scale down the amounts in {config.trace} or raise L_total"
        raise ConfigError(f"{exc}; {remedy}") from None
    best = curve.argmax()

    reference = None
    max_dl1 = max_drev = None
    if compare:
        reference = _analytic_curve(config.params, config.L_total, step)
        max_dl1 = max(
            abs(s.l1 - r.l1) for s, r in zip(curve.samples, reference.samples)
        )
        max_drev = max(
            abs(s.rev1 - r.rev1) for s, r in zip(curve.samples, reference.samples)
        )

    report = RunReport(
        mode="simulate",
        config=config,
        curve=curve,
        t1_star=best.t1,
        rev1_star=best.rev1,
        l1_at_star=best.l1,
        max_delta_l1=max_dl1,
        max_delta_rev1=max_drev,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_curve_csv(out / "sweep.csv", curve, reference=reference, simulated=True)
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
    parser = argparse.ArgumentParser(
        prog="takerate",
        description="Optimal take rates for competing constant-product pools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="closed-form sweep from a scenario config")
    analyze.add_argument("config", help="scenario config file")
    analyze.add_argument("--take-step", type=float, default=None)
    analyze.add_argument("--out-dir", default=".")

    simulate = sub.add_parser("simulate", help="trade-level sweep from a scenario config")
    simulate.add_argument("config", help="scenario config file")
    simulate.add_argument("--take-step", type=float, default=None)
    simulate.add_argument("--liquidity-step", type=float, default=None)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--compare", action="store_true",
                          help="add analytical reference columns and deltas")
    simulate.add_argument("--out-dir", default=".")

    gen = sub.add_parser("gen-trace", help="generate a synthetic trace CSV")
    gen.add_argument("out", help="output CSV path")
    gen.add_argument("--n-trades", type=int, default=10_000)
    gen.add_argument("--size-mu", type=float, default=SyntheticSpec().size_mu)
    gen.add_argument("--size-sigma", type=float, default=1.0)
    gen.add_argument("--direction-bias", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            config = load_config(args.config)
            report = cmd_analyze(config, take_step=args.take_step, out_dir=args.out_dir)
            print(
                f"analyze: t1* = {report.t1_star:.6f}, rev1* = {report.rev1_star:.6f}, "
                f"l1 at optimum = {report.l1_at_star:.4f}"
            )
            print(f"wrote {Path(args.out_dir) / 'curve.csv'} and report.txt")
        elif args.command == "simulate":
            config = load_config(args.config)
            report = cmd_simulate(
                config,
                take_step=args.take_step,
                liquidity_step=args.liquidity_step,
                seed=args.seed,
                compare=args.compare,
                out_dir=args.out_dir,
                base_dir=Path(args.config).parent,
            )
            print(
                f"simulate: t1* = {report.t1_star:.6f}, rev1* = {report.rev1_star:.6f}, "
                f"l1 at optimum = {report.l1_at_star:.4f}"
            )
            if report.max_delta_rev1 is not None:
                print(
                    f"compare: max |dl1| = {report.max_delta_l1:.4f}, "
                    f"max |drev1| = {report.max_delta_rev1:.4f}"
                )
            print(f"wrote {Path(args.out_dir) / 'sweep.csv'}, sweep.svg and report.txt")
        else:
            spec = SyntheticSpec(
                n_trades=args.n_trades,
                size_mu=args.size_mu,
                size_sigma=args.size_sigma,
                direction_bias=args.direction_bias,
                seed=args.seed,
            )
            out = cmd_gen_trace(spec, args.out)
            print(f"wrote {out} ({spec.n_trades} trades)")
    except (ConfigError, TraceFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
