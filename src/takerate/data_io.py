"""Trade-trace files, synthetic trace generation and scenario configuration.

Traces are two-column CSV files with the exact header ``direction,amount_in``,
directions ``a2b``/``b2a`` and positive decimal amounts.  Scenarios are flat
text files of ``key = value`` lines with ``#`` comments; unknown keys are
rejected so typos surface immediately.
"""

from __future__ import annotations

import csv
import math
import random
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from .simulation import TradeEvent


class TraceFormatError(ValueError):
    """A trace file row could not be parsed or failed validation."""


class ConfigError(ValueError):
    """A scenario config is malformed, has unknown keys or bad values."""


TRACE_HEADER = ["direction", "amount_in"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic trace recipe: log-normal sizes, biased coin for direction.

    size_mu/size_sigma parameterize the underlying normal, so the median
    trade size is exp(size_mu) token-0 units.
    """

    n_trades: int = 10_000
    size_mu: float = math.log(100.0)
    size_sigma: float = 1.0
    direction_bias: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("size_mu", "size_sigma", "direction_bias"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.n_trades < 1:
            raise ValueError("n_trades must be at least 1")
        if self.size_sigma < 0.0:
            raise ValueError("size_sigma must be nonnegative")
        if not 0.0 <= self.direction_bias <= 1.0:
            raise ValueError("direction_bias must lie in [0, 1]")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one model run needs: market shape, sweep grids, trace source.

    trace is either a path to a CSV file or the literal ``synthetic``, in
    which case the synthetic field describes the generator.
    """

    t2: float
    s1: float
    f: float
    L_total: float
    trace: str
    s2: float = 0.0
    d: float = 0.0
    take_step: float = 0.01
    liquidity_step: float = 0.005
    deviation_threshold: float = 0.1
    seed: int = 0
    synthetic: Optional[SyntheticSpec] = None

    def __post_init__(self) -> None:
        for name in ("t2", "s1", "s2", "d", "f", "L_total",
                     "take_step", "liquidity_step", "deviation_threshold"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")
        for name in ("t2", "s1", "s2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if self.s1 + self.s2 > 1.0:
            raise ConfigError("s1 + s2 must not exceed 1")
        if self.d < 0.0:
            raise ConfigError(f"d must be nonnegative, got {self.d}")
        if not 0.0 <= self.f < 1.0:
            raise ConfigError(f"f must lie in [0, 1), got {self.f}")
        if self.L_total <= 0.0:
            raise ConfigError(f"L_total must be positive, got {self.L_total}")
        for name in ("take_step", "liquidity_step"):
            v = getattr(self, name)
            if not 0.0 < v <= 0.5:
                raise ConfigError(f"{name} must lie in (0, 0.5], got {v}")
        if self.deviation_threshold < 0.0:
            raise ConfigError("deviation_threshold must be nonnegative")
        if not self.trace:
            raise ConfigError("trace must name a CSV file or 'synthetic'")


def load_trades(path: Union[str, Path]) -> list[TradeEvent]:
    """Read a trace CSV, validating every row; row numbers count the header."""
    path = Path(path)
    trades: list[TradeEvent] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError(f"{path}: empty file, expected header "
                                   f"{','.join(TRACE_HEADER)}") from None
        if [h.strip() for h in header] != TRACE_HEADER:
            raise TraceFormatError(
                f"{path}: line 1: expected header {','.join(TRACE_HEADER)}, "
                f"got {','.join(header)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise TraceFormatError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            direction, raw_amount = row[0].strip(), row[1].strip()
            if direction not in ("a2b", "b2a"):
                raise TraceFormatError(
                    f"{path}: line {lineno}: direction must be a2b or b2a, got {direction!r}"
                )
            try:
                amount = float(raw_amount)
            except ValueError:
                raise TraceFormatError(
                    f"{path}: line {lineno}: amount_in is not a number: {raw_amount!r}"
                ) from None
            if not amount > 0.0 or not math.isfinite(amount):
                raise TraceFormatError(
                    f"{path}: line {lineno}: amount_in must be positive, got {raw_amount}"
                )
            trades.append(TradeEvent(direction, amount))
    if not trades:
        warnings.warn(f"trace file {path} contains no trades")
    return trades


def save_trades(path: Union[str, Path], trades: Sequence[TradeEvent]) -> None:
    """Write a trace CSV that load_trades reads back bit-identically."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_HEADER)
        for ev in trades:
            writer.writerow([ev.direction, repr(ev.amount_in)])


def generate_trades(spec: SyntheticSpec) -> list[TradeEvent]:
    """Draw a synthetic trace; identical specs give identical traces."""
    rng = random.Random(spec.seed)
    trades = []
    for _ in range(spec.n_trades):
        direction = "a2b" if rng.random() < spec.direction_bias else "b2a"
        amount = rng.lognormvariate(spec.size_mu, spec.size_sigma)
        trades.append(TradeEvent(direction, amount))
    return trades


_FLOAT_KEYS = {
    "t2", "s1", "s2", "d", "f", "L_total",
    "take_step", "liquidity_step", "deviation_threshold",
    "size_mu", "size_sigma", "direction_bias",
}
_INT_KEYS = {"seed", "n_trades"}
_STR_KEYS = {"trace"}
_REQUIRED_KEYS = ("t2", "s1", "f", "L_total", "trace")
_SYNTHETIC_KEYS = {"n_trades", "size_mu", "size_sigma", "direction_bias"}


def load_config(path: Union[str, Path]) -> ScenarioConfig:
    """Parse and validate a flat key = value scenario file."""
    path = Path(path)
    raw: dict[str, str] = {}
    with path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = text.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _FLOAT_KEYS | _INT_KEYS | _STR_KEYS:
                raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
            if not value:
                raise ConfigError(f"{path}: line {lineno}: no value for key {key!r}")
            raw[key] = value

    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"{path}: missing required key {key!r}")

    values: dict[str, object] = {}
    for key, text in raw.items():
        if key in _FLOAT_KEYS:
            try:
                values[key] = float(text)
            except ValueError:
                raise ConfigError(f"{path}: key {key!r}: not a number: {text!r}") from None
        elif key in _INT_KEYS:
            try:
                values[key] = int(text)
            except ValueError:
                raise ConfigError(f"{path}: key {key!r}: not an integer: {text!r}") from None
        else:
            values[key] = text

    trace = str(values["trace"])
    synthetic_given = _SYNTHETIC_KEYS & values.keys()
    if trace != "synthetic" and synthetic_given:
        raise ConfigError(
            f"{path}: keys {sorted(synthetic_given)} require 'trace = synthetic'"
        )

    synthetic = None
    if trace == "synthetic":
        spec_kwargs = {k: values[k] for k in _SYNTHETIC_KEYS if k in values}
        spec_kwargs["seed"] = values.get("seed", 0)
        try:
            synthetic = SyntheticSpec(**spec_kwargs)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    config_kwargs = {
        k: v for k, v in values.items() if k not in _SYNTHETIC_KEYS | {"trace"}
    }
    try:
        return ScenarioConfig(trace=trace, synthetic=synthetic, **config_kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def resolve_trades(config: ScenarioConfig, base_dir: Union[str, Path, None] = None) -> list[TradeEvent]:
    """Produce the trace a config describes: generated or loaded from disk.

    Relative trace paths resolve against base_dir (the config file's
    directory, typically).
    """
    if config.trace == "synthetic":
        spec = config.synthetic or SyntheticSpec(seed=config.seed)
        return generate_trades(spec)
    trace_path = Path(config.trace)
    if base_dir is not None and not trace_path.is_absolute():
        trace_path = Path(base_dir) / trace_path
    return load_trades(trace_path)
