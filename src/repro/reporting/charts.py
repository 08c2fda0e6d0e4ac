"""Terminal chart rendering.

The experiment harnesses print their figures; these helpers render the
paper's time series and scatter plots as aligned ASCII so
`repro figure NAME` output reads like the evaluation section.
"""

from __future__ import annotations

import math

_BLOCKS = " .:-=+*#%@"
_SPARKS = "▁▂▃▄▅▆▇█"


def scatter_plot(
    points: list[tuple[float, float]],
    width: int = 60,
    height: int = 14,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Density scatter: darker cells hold more points.

    The y axis grows upward (top row = max y), matching the paper's
    latency-vs-quality panels where "top-left is good".
    """
    if not points:
        return "  (no points)"
    if width < 2 or height < 2:
        raise ValueError("grid too small")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[0] * width for _ in range(height)]
    for x, y in points:
        col = min(int((x - x_lo) / x_span * (width - 1)), width - 1)
        row = min(int((y - y_lo) / y_span * (height - 1)), height - 1)
        grid[height - 1 - row][col] += 1
    peak = max(max(row) for row in grid)
    lines = [f"  {y_label} {y_hi:.2f}"]
    for row in grid:
        cells = "".join(
            _BLOCKS[min(int(math.ceil(c / peak * (len(_BLOCKS) - 1))), len(_BLOCKS) - 1)]
            if c else " "
            for c in row
        )
        lines.append(f"  |{cells}|")
    lines.append(f"  {y_label} {y_lo:.2f}  ({x_label}: {x_lo:.2f} .. {x_hi:.2f})")
    return "\n".join(lines)


def series_chart(
    series: dict[str, list[tuple[float, float]]], width: int = 50
) -> str:
    """Sparkline per named series, resampled onto a common grid."""
    if not series:
        raise ValueError("nothing to chart")
    label_width = max(len(name) for name in series)
    lines = []
    for name, points in series.items():
        values = [v for _, v in points]
        if len(values) > width:
            step = len(values) / width
            values = [values[int(i * step)] for i in range(width)]
        lo = min(values) if values else 0.0
        hi = max(values) if values else 0.0
        lines.append(
            f"  {name:<{label_width}} {_sparkline(values)}  "
            f"[{lo:.1f} .. {hi:.1f}]"
        )
    return "\n".join(lines)


def _sparkline(values: list[float]) -> str:
    """One-line trend: values mapped onto eight block heights."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _SPARKS[0] * len(values)
    return "".join(
        _SPARKS[min(int((v - lo) / span * len(_SPARKS)), len(_SPARKS) - 1)]
        for v in values
    )
