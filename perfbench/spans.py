"""In-memory spans and counters around the calls into each takerate layer.

A Tracer replaces a function by a wrapper in every takerate module that binds
it, so a call is seen wherever its caller looks the name up (for example
``cli.sweep_take_rate`` and ``simulation.find_equilibrium``).  Each timed
wrapper records a span: name, start, end and the index of the enclosing
span.  Spans stay in memory; the worker writes them out when it ends.

A target that no longer exists is recorded as missing, and every metric
that depends on it reads as missing (None), never as 0.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from types import ModuleType
from typing import Callable, Optional

# Instrumented names, as module.attr of the defining module, and what the
# wrapper records: "span" (timed), "count" (call count only), "replay"
# (span plus replay counters) or "rows" (span plus rows returned).
TARGETS = {
    "cli.main": "span",
    "cli.cmd_simulate": "span",
    "cli.cmd_analyze": "span",
    "simulation.sweep_take_rate": "span",
    "simulation.find_equilibrium": "span",
    "simulation.assign_sticky": "span",
    "simulation._replay_two": "replay",
    "simulation._replay_single": "replay",
    "data_io.load_trades": "rows",
    "analytical.optimal_take_rate": "span",
    "analytical.equilibrium_share": "count",
    "svg.write_line_chart": "span",
}
REPLAY = ("simulation._replay_two", "simulation._replay_single")
CLI = ("cli.main", "cli.cmd_simulate", "cli.cmd_analyze")
# cpmm runs on no CLI path (simulation inlines its math); its public
# functions are counted so that the trace shows this rather than assumes it.
CPMM = "cpmm"

# Per-layer metrics in output order: name, unit, and whether the value is a
# deterministic count (identical on every run of one seed) or a time.
PER_LAYER = (
    ("simulation.replays", "count", True),
    ("simulation.distinct_cell_ratio", "ratio", True),
    ("simulation.cells_per_equilibrium", "count", True),
    ("simulation.trades_replayed", "count", True),
    ("simulation.replay.self_s", "s", False),
    ("simulation.replay.ns_per_trade", "ns", False),
    ("simulation.assign_sticky.calls", "count", True),
    ("simulation.assign_sticky.self_s", "s", False),
    ("simulation.find_equilibrium.calls", "count", True),
    ("simulation.find_equilibrium.self_s", "s", False),
    ("simulation.sweep_take_rate.self_s", "s", False),
    ("data_io.load_trades.calls", "count", True),
    ("data_io.load_trades.self_s", "s", False),
    ("data_io.rows_loaded", "count", True),
    ("analytical.optimal_take_rate.calls", "count", True),
    ("analytical.optimal_take_rate.self_s", "s", False),
    ("analytical.equilibrium_share.calls", "count", True),
    ("cli.self_s", "s", False),
    ("svg.write_line_chart.self_s", "s", False),
    ("cli.bytes_written", "bytes", True),
    ("cpmm.calls", "count", True),
    ("trace.overhead_s", "s", False),
)


class Tracer:
    """Spans and counters of one worker process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self.rows_loaded = 0
        self.trades_replayed = 0
        self._cells: set = set()
        self._stack: list[int] = []
        self._last_trace: Optional[list] = None
        self._last_trace_key = 0

    def start(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = self.clock()

    def wrap(self, name: str, fn: Callable, kind: str) -> Callable:
        """Wrapper for fn that counts calls and, unless kind is "count", times them."""
        counts = self.counts
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            counts[name] += 1
            index = self.start(name)
            try:
                result = fn(*args, **kwargs)
                if kind == "replay":
                    self._observe_replay(args, kwargs)
                elif kind == "rows":
                    self.rows_loaded += len(result)
                return result
            finally:
                self.end(index)
        return timed

    def _observe_replay(self, args: tuple, kwargs: dict) -> None:
        """Count a replay and the (split, labelled trace) cell it evaluated.

        The labelled trace is the one list argument; every other argument
        (reserves, fees, threshold, own label) is part of the cell.  The content
        key of the last trace is cached, since one equilibrium search replays
        the same list many times.
        """
        trace = next(a for a in args if isinstance(a, list))
        if trace is not self._last_trace:
            self._last_trace = trace
            self._last_trace_key = hash(tuple(trace))
        self.trades_replayed += len(trace)
        self._cells.add(
            tuple(a for a in args if a is not trace)
            + tuple(sorted(kwargs.items()))
            + (len(trace), self._last_trace_key)
        )

    @property
    def distinct_cells(self) -> int:
        return len(self._cells)


def instrument(tracer: Tracer, modules: dict[str, ModuleType]) -> None:
    """Wrap every target in every module of `modules` that binds it.

    `modules` maps short names ("cli", "simulation", ...) to the package's
    modules; the package itself may be included under any other name.
    """
    def rebind(original: Callable, wrapper: Callable) -> None:
        for module in modules.values():
            for key in [k for k, v in vars(module).items() if v is original]:
                setattr(module, key, wrapper)

    for name, kind in TARGETS.items():
        home, attr = name.split(".", 1)
        original = getattr(modules.get(home), attr, None)
        if not callable(original):
            tracer.missing.add(name)
            continue
        rebind(original, tracer.wrap(name, original, kind))

    cpmm = modules.get(CPMM)
    functions = [
        fn for key, fn in vars(cpmm).items()
        if not key.startswith("_") and callable(fn) and not isinstance(fn, type)
        and getattr(fn, "__module__", None) == cpmm.__name__
    ] if cpmm is not None else []
    if not functions:
        tracer.missing.add(CPMM)
    for fn in functions:
        rebind(fn, tracer.wrap(CPMM, fn, "count"))


def self_times(spans: list) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's.

    Spans of one process nest without overlap, so the children of a span
    cover exactly the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, start, end, _), child in zip(spans, covered):
        totals[name] += (end - start) - child
    return dict(totals)


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, Optional[float]]:
    """Every per-layer metric but trace.overhead_s; None where a target is missing."""
    own = self_times(tracer.spans)
    counts = tracer.counts

    def present(*names: str) -> bool:
        return not tracer.missing.intersection(names)

    def calls(name: str) -> Optional[int]:
        return counts[name] if present(name) else None

    def self_s(*names: str) -> Optional[float]:
        return sum(own.get(n, 0.0) for n in names) if present(*names) else None

    metrics: dict[str, Optional[float]] = {}
    if present(*REPLAY):
        replays = sum(counts[n] for n in REPLAY)
        replay_s = self_s(*REPLAY)
        metrics["simulation.replays"] = replays
        # 0 when the workload replays nothing (analyze_grid)
        metrics["simulation.distinct_cell_ratio"] = (
            tracer.distinct_cells / replays if replays else 0.0
        )
        metrics["simulation.trades_replayed"] = tracer.trades_replayed
        metrics["simulation.replay.self_s"] = replay_s
        metrics["simulation.replay.ns_per_trade"] = (
            1e9 * replay_s / tracer.trades_replayed if tracer.trades_replayed else 0.0
        )
    else:
        for key in ("replays", "distinct_cell_ratio", "trades_replayed",
                    "replay.self_s", "replay.ns_per_trade"):
            metrics["simulation." + key] = None
    searches = calls("simulation.find_equilibrium")
    replays = metrics["simulation.replays"]
    if searches is None or replays is None:
        metrics["simulation.cells_per_equilibrium"] = None
    else:
        metrics["simulation.cells_per_equilibrium"] = replays / searches if searches else 0.0
    for name in ("simulation.assign_sticky", "simulation.find_equilibrium",
                 "data_io.load_trades", "analytical.optimal_take_rate"):
        metrics[name + ".calls"] = calls(name)
        metrics[name + ".self_s"] = self_s(name)
    metrics["simulation.sweep_take_rate.self_s"] = self_s("simulation.sweep_take_rate")
    metrics["data_io.rows_loaded"] = (
        tracer.rows_loaded if present("data_io.load_trades") else None
    )
    metrics["analytical.equilibrium_share.calls"] = calls("analytical.equilibrium_share")
    metrics["cli.self_s"] = self_s(*CLI)
    metrics["svg.write_line_chart.self_s"] = self_s("svg.write_line_chart")
    metrics["cli.bytes_written"] = bytes_written
    metrics["cpmm.calls"] = calls(CPMM)
    return metrics
