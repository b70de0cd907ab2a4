"""Trade-trace files, synthetic trace generation and scenario configuration.

Traces are two-column CSV files with the exact header ``direction,amount_in``,
directions ``a2b``/``b2a`` and positive decimal amounts; in memory they are
simulation.Trace columns.  Scenarios are flat text files of ``key = value``
lines with ``#`` comments; unknown keys are rejected so typos surface
immediately.  The keys and their types are the init fields of ScenarioConfig
and SyntheticSpec (KEY_TYPES), as are the CLI's flags and report.txt's lines.
"""

from __future__ import annotations

import csv
import math
import random
from array import array
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional, Union

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
            raise ValueError(f"n_trades must be at least 1, got {self.n_trades}")
        if self.size_sigma < 0.0:
            raise ValueError(f"size_sigma must be nonnegative, got {self.size_sigma}")
        if not 0.0 <= self.direction_bias <= 1.0:
            raise ValueError(f"direction_bias must lie in [0, 1], got {self.direction_bias}")


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """Everything one model run needs: market shape, sweep grids, trace source.

    trace is either a path to a CSV file or the literal ``synthetic``, in
    which case the synthetic field describes the generator; left out, it
    becomes SyntheticSpec(seed=seed), so that replacing seed later reseeds
    the labelling but keeps the trace.  params is the
    ModelParams (t1 = 0) the market keys describe; building it validates them.
    The init fields but synthetic are the config keys, in the order
    report.txt lists them; a field without a default is a required key.
    """

    t2: float
    s1: float
    s2: float = 0.0
    d: float = 0.0
    f: float
    L_total: float
    trace: str
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
            check_L_total(self.L_total)
            check_step("take_step", self.take_step)
            check_step("liquidity_step", self.liquidity_step)
            check_deviation_threshold(self.deviation_threshold)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "params", params)
        if not self.trace:
            raise ConfigError("trace must name a CSV file or 'synthetic'")
        if self.trace == "synthetic" and self.synthetic is None:
            object.__setattr__(self, "synthetic", SyntheticSpec(seed=self.seed))


def load_trades(path: Union[str, Path]) -> Trace:
    """Read a trace CSV, validating every row; a row's errors name the file line it ends on.

    A file with only its header gives an empty Trace.
    """
    path = Path(path)
    a2b = bytearray()
    amounts = array("d")
    push_a2b, push_amount, inf = a2b.append, amounts.append, math.inf
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        # The csv module raises a csv.Error, which is no ValueError, for a
        # field over csv.field_size_limit(), for instance.
        try:
            header = next(reader, None)
            if header is None:
                raise TraceFormatError(f"{path}: empty file, expected header "
                                       f"{','.join(TRACE_HEADER)}")
            # spaces and tabs pad a field; a quoted line break is part of it
            if [h.strip(" \t") for h in header] != TRACE_HEADER:
                raise TraceFormatError(
                    f"{path}: line {reader.line_num}: expected header {','.join(TRACE_HEADER)}, "
                    f"got {','.join(header)}"
                )
            for row in reader:
                # A bare row that passes check_trade's rule, copied inline, is
                # taken at once; test_properties holds the copy to check_trade.
                try:
                    direction, raw_amount = row
                    amount = float(raw_amount)
                except ValueError:
                    pass
                else:
                    if (direction == "a2b" or direction == "b2a") and 0.0 < amount < inf:
                        push_a2b(direction == "a2b")
                        push_amount(amount)
                        continue
                # Any other row gets every check in turn.  str.strip() also
                # removes \x1c-\x1f, which float() does not.
                if not row:
                    continue
                lineno = reader.line_num
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
                push_a2b(direction == "a2b")
                push_amount(amount)
        except csv.Error as exc:
            raise TraceFormatError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"{path}: {_not_utf8(path, exc)}") from None
    try:
        return Trace(bytes(a2b), amounts)
    except ValueError as exc:  # every row passed, so the amounts' total overflowed
        raise TraceFormatError(f"{path}: {exc}") from None


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> str:
    """Which line of path holds its first byte that is not UTF-8, and why.

    A text file decodes in chunks, so exc.start counts from its chunk; the
    file's bytes are decoded again to find the byte.  Its line is the count
    of line breaks before it plus 1, each of \r\n, \r and \n ending a line
    as it does for the csv reader and for a text-mode file.
    """
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        before = data[:whole.start]
        breaks = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        return f"line {breaks + 1}: not valid UTF-8: byte {data[whole.start]:#04x}: {whole.reason}"
    return f"not valid UTF-8: {exc.reason}"  # the file changed since it was read


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
        # exp() overflowed, or the Trace constructor rejected a size of inf
        # or 0.0, or a total of inf
        raise ValueError(
            f"size_mu = {spec.size_mu} with size_sigma = {spec.size_sigma} draws "
            "trade sizes, or a total of them, outside the positive finite float range"
        ) from None


_TYPES = {"float": float, "int": int, "str": str}
_NOT_A = {float: "a number", int: "an integer"}


def _keys(cls: type, not_a_key: str) -> dict[str, type]:
    """cls's init fields but not_a_key, in field order, with the types they annotate."""
    return {f.name: _TYPES[f.type] for f in fields(cls) if f.init and f.name != not_a_key}


# The one scenario schema: a config key is an init field of ScenarioConfig
# (synthetic aside) or of SyntheticSpec (seed aside, which ScenarioConfig has).
CONFIG_KEYS = _keys(ScenarioConfig, "synthetic")
_SPEC_KEYS = _keys(SyntheticSpec, "seed")
KEY_TYPES = {**CONFIG_KEYS, **_SPEC_KEYS}
_REQUIRED = [f.name for f in fields(ScenarioConfig) if f.init and f.default is MISSING]


def load_config(path: Union[str, Path]) -> ScenarioConfig:
    """Parse and validate a flat key = value scenario file."""
    path = Path(path)
    raw: dict[str, str] = {}
    with path.open(encoding="utf-8-sig") as handle:
        try:
            lines = handle.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {_not_utf8(path, exc)}") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEY_TYPES:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}: line {lineno}: no value for key {key!r}")
        raw[key] = value

    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"{path}: missing required key {key!r}")

    values: dict[str, object] = {}
    for key, text in raw.items():
        kind = KEY_TYPES[key]
        try:
            values[key] = kind(text)
        except ValueError:
            raise ConfigError(f"{path}: key {key!r}: not {_NOT_A[kind]}: {text!r}") from None

    spec_kwargs = {k: values.pop(k) for k in _SPEC_KEYS if k in values}
    synthetic = None
    if values["trace"] == "synthetic":
        try:
            synthetic = SyntheticSpec(**spec_kwargs, seed=values.get("seed", 0))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    elif spec_kwargs:
        raise ConfigError(f"{path}: keys {sorted(spec_kwargs)} require 'trace = synthetic'")

    try:
        return ScenarioConfig(synthetic=synthetic, **values)
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
