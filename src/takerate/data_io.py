"""Trade-trace files, synthetic trace generation and scenario configuration.

Traces are two-column CSV files with the exact header ``direction,amount_in``,
directions ``a2b``/``b2a`` and positive decimal amounts; in memory they are
simulation.Trace columns.  Scenarios are flat text files of ``key = value``
lines with ``#`` comments; unknown keys are rejected so typos surface
immediately.
"""

from __future__ import annotations

import csv
import math
import random
import warnings
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

from .analytical import ModelParams, check_L_total, check_step
from .simulation import Trace, check_deviation_threshold, check_trade


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
    which case the synthetic field describes the generator; left out, it
    becomes SyntheticSpec(seed=seed), so that replacing seed later reseeds
    the labelling but keeps the trace.  params is the
    ModelParams (t1 = 0) the market keys describe; building it validates them.
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
    params: ModelParams = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            params = ModelParams(
                t1=0.0, t2=self.t2, s1=self.s1, s2=self.s2, d=self.d, f=self.f
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "params", params)
        try:
            check_L_total(self.L_total)
            check_step("take_step", self.take_step)
            check_step("liquidity_step", self.liquidity_step)
            check_deviation_threshold(self.deviation_threshold)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.trace:
            raise ConfigError("trace must name a CSV file or 'synthetic'")
        if self.trace == "synthetic" and self.synthetic is None:
            object.__setattr__(self, "synthetic", SyntheticSpec(seed=self.seed))


def load_trades(path: Union[str, Path]) -> Trace:
    """Read a trace CSV, validating every row; a row's errors name the file line it ends on."""
    path = Path(path)
    a2b = bytearray()
    amounts = array("d")
    with path.open(newline="") as handle:
        parser = csv.reader(handle)
        reader = _rows(path, parser)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError(f"{path}: empty file, expected header "
                                   f"{','.join(TRACE_HEADER)}") from None
        # spaces and tabs pad a field; a quoted line break is part of it
        if [h.strip(" \t") for h in header] != TRACE_HEADER:
            raise TraceFormatError(
                f"{path}: line {parser.line_num}: expected header {','.join(TRACE_HEADER)}, "
                f"got {','.join(header)}"
            )
        for row in reader:
            lineno = parser.line_num
            if not row:
                continue
            if len(row) != 2:
                raise TraceFormatError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            direction, raw_amount = row[0].strip(" \t"), row[1].strip()
            try:
                amount = float(raw_amount)
            except ValueError:
                raise TraceFormatError(
                    f"{path}: line {lineno}: amount_in is not a number: {raw_amount!r}"
                ) from None
            try:
                check_trade(direction, amount)
            except ValueError as exc:
                raise TraceFormatError(f"{path}: line {lineno}: {exc}") from None
            a2b.append(direction == "a2b")
            amounts.append(amount)
    if not amounts:
        warnings.warn(f"trace file {path} contains no trades")
    # every row passed check_trade above
    return Trace._of_checked(bytes(a2b), amounts)


def _rows(path: Path, reader) -> Iterator[list[str]]:
    """The reader's rows; a csv.Error, which is no ValueError, becomes a TraceFormatError.

    The csv module raises one for a field over csv.field_size_limit(), for
    instance.
    """
    try:
        yield from reader
    except csv.Error as exc:
        raise TraceFormatError(f"{path}: line {reader.line_num}: {exc}") from None


def save_trades(path: Union[str, Path], trace: Trace) -> None:
    """Write a trace's columns as a CSV that load_trades reads back bit-identically."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_HEADER)
        for is_a2b, amount in zip(trace.a2b, trace.amounts):
            writer.writerow(["a2b" if is_a2b else "b2a", repr(amount)])


def generate_trades(spec: SyntheticSpec) -> Trace:
    """Draw a synthetic trace; identical specs give identical traces."""
    rng = random.Random(spec.seed)
    a2b = bytearray()
    amounts = array("d")
    try:
        for _ in range(spec.n_trades):
            a2b.append(rng.random() < spec.direction_bias)
            amounts.append(rng.lognormvariate(spec.size_mu, spec.size_sigma))
        return Trace(bytes(a2b), amounts)
    except (OverflowError, ValueError):
        # exp() overflowed, or Trace's check_trade rejected a size of inf or 0.0
        raise ValueError(
            f"size_mu = {spec.size_mu} with size_sigma = {spec.size_sigma} draws "
            "trade sizes outside the positive finite float range"
        ) from None


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


def resolve_trades(config: ScenarioConfig, base_dir: Union[str, Path, None] = None) -> Trace:
    """Produce the trace a config describes: generated or loaded from disk.

    Relative trace paths resolve against base_dir (the config file's
    directory, typically).
    """
    if config.trace == "synthetic":
        return generate_trades(config.synthetic)
    trace_path = Path(config.trace)
    if base_dir is not None and not trace_path.is_absolute():
        trace_path = Path(base_dir) / trace_path
    return load_trades(trace_path)
