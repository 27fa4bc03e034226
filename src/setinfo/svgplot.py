"""Self-contained SVG line plots of rolling-mean MI trajectories.

No plotting dependency: the figure is a single hand-assembled SVG document
with axes, ticks, a legend, and one polyline per (agent, series) curve.
Single-point series degenerate to a marker so they stay visible.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence


class EmptySelection(ValueError):
    """The series selection resolved to nothing."""


_PALETTE = (
    "#1b6ca8", "#c23b22", "#2e8b57", "#8a2be2",
    "#d4870f", "#16848c", "#a6325b", "#556b2f",
)

_WIDTH, _HEIGHT = 900, 480  # the figure's size in pixels
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 180
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 55


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def selected_series(series: Sequence[str] | str) -> list[str]:
    """The nonempty names in a comma-separated string or a sequence; EmptySelection if none."""
    if isinstance(series, str):
        names = [s.strip() for s in series.split(",") if s.strip()]
    else:
        names = [s for s in series if s]
    if not names:
        raise EmptySelection("no series selected")
    return names


def write_svg(
    results: Mapping[str, Mapping[str, Sequence[float]]],
    series: Sequence[str] | str,
    path: str | Path,
    title: str = "",
) -> None:
    """Render the selected series of every agent into one SVG.

    ``results`` maps each agent to its rolling-mean series by name.  The x
    axis labels each point with the step its window starts at: point i of
    ``rolling_mean`` covers steps i+1 .. i+window.
    """
    if not results:
        raise ValueError("write_svg needs at least one result")
    names = selected_series(series)

    curves: list[tuple[str, list[float]]] = []
    for agent, rolling in results.items():
        for name in names:
            if name not in rolling:
                raise ValueError(f"unknown series {name!r}; known: {sorted(rolling)}")
            values = list(rolling[name])
            if values:
                curves.append((f"{agent}: {name}", values))
    if not curves:
        raise EmptySelection("selected series contain no points")

    x_max = max(len(values) for _, values in curves)
    y_lo = min(min(values) for _, values in curves)
    y_hi = max(max(values) for _, values in curves)
    if y_hi == y_lo:
        y_lo -= 0.5
        y_hi += 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(i: int) -> float:
        frac = i / (x_max - 1) if x_max > 1 else 0.5
        return _MARGIN_LEFT + frac * plot_w

    def sy(v: float) -> float:
        frac = (v - y_lo) / (y_hi - y_lo)
        return _MARGIN_TOP + (1.0 - frac) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'font-size="15">{_esc(title)}</text>'
        )

    axis_color = "#333333"
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="{axis_color}"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{_MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="{axis_color}"/>'
    )
    for i in sorted({round(tick) for tick in _ticks(0, x_max - 1)}):
        tx = sx(i)
        parts.append(f'<line x1="{tx:.1f}" y1="{y0}" x2="{tx:.1f}" y2="{y0 + 5}" stroke="{axis_color}"/>')
        parts.append(f'<text x="{tx:.1f}" y="{y0 + 18}" text-anchor="middle">{i + 1}</text>')
    for tick in _ticks(y_lo, y_hi):
        ty = sy(tick)
        parts.append(f'<line x1="{x0 - 5}" y1="{ty:.1f}" x2="{x0}" y2="{ty:.1f}" stroke="{axis_color}"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{ty + 4:.1f}" text-anchor="end">{tick:.3g}</text>'
        )
    parts.append(
        f'<text x="{x0 + plot_w / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle">step k</text>'
    )
    parts.append(
        f'<text x="20" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {_MARGIN_TOP + plot_h / 2:.1f})">MI (nats)</text>'
    )

    legend_x = _MARGIN_LEFT + plot_w + 16
    for idx, (label, values) in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        if len(values) == 1:
            parts.append(
                f'<circle cx="{sx(0):.1f}" cy="{sy(values[0]):.1f}" r="4" fill="{color}"/>'
            )
        else:
            points = " ".join(f"{sx(i):.1f},{sy(v):.1f}" for i, v in enumerate(values))
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.6"/>'
            )
        ly = _MARGIN_TOP + 14 + idx * 18
        parts.append(
            f'<line x1="{legend_x}" y1="{ly - 4}" x2="{legend_x + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{legend_x + 28}" y="{ly}">{_esc(label)}</text>')

    parts.append("</svg>")
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text("\n".join(parts) + "\n", encoding="utf-8")
