"""Minimal self-contained SVG line charts for sweep results.

Hand-rolled rather than pulling in a plotting stack: the output is a static
figure of a few polylines, and byte-for-byte deterministic output keeps
repeated runs diffable.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence, Union

Series = tuple[str, Sequence[tuple[float, float]]]

_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728"]

_WIDTH = 720
_HEIGHT = 440
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 24
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 48
_TICKS = 5  # grid intervals per axis


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_values(top: float) -> list[float]:
    return [top * i / _TICKS for i in range(_TICKS + 1)]


def write_line_chart(
    path: Union[str, Path], title: str, x_label: str, series: Sequence[Series]
) -> None:
    """Render (x, y) series over x in [0, 1] as an SVG chart with legend and grid."""
    peak = max((y for _, pts in series for _, y in pts), default=1.0)
    y_max = max(1.0, peak)
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return _MARGIN_LEFT + plot_w * x

    def sy(y: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - y / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]

    for x in _tick_values(1.0):
        px = sx(x)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_MARGIN_TOP}" x2="{_fmt(px)}" '
            f'y2="{_MARGIN_TOP + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_MARGIN_TOP + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x:.2g}</text>'
        )
    for y in _tick_values(y_max):
        py = sy(y)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{_fmt(py)}" x2="{_MARGIN_LEFT + plot_w}" '
            f'y2="{_fmt(py)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{y:.2g}</text>'
        )

    parts.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.0f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )

    for idx, (label, points) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in points)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{coords}"/>'
        )
        ly = _MARGIN_TOP + 14 + 18 * idx
        lx = _MARGIN_LEFT + plot_w - 130
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" font-size="12">{label}</text>'
        )

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
