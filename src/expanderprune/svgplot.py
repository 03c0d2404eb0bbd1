"""Dependency-free SVG rendering of pruning trajectories.

One panel per pruned layer: test accuracy on the left axis, spectral
gaps on the right axis, both against the remaining-edge percentage
(decreasing left to right, mirroring pruning progress).  Dashed
vertical rules mark the first zero crossing of each gap series, one
rule per crossed gap kind.  A CSV with the plotted table is always
emitted next to the SVG.
"""

from __future__ import annotations

import csv
import math
import os

from .errors import DomainError
from .pruning import GAP_KINDS, LAYERS, PruneRecord, first_zero_crossing

_PANEL_W = 640
_PANEL_H = 240
_MARGIN_L = 64
_MARGIN_R = 64
_MARGIN_T = 36
_MARGIN_B = 42
_GAP_COLORS = {
    "unweighted_delta_r": "#d62728",
    "unweighted_delta_s": "#2ca02c",
    "weighted_delta_s": "#9467bd",
}
_ACC_COLOR = "#1f77b4"


def _finite(values):
    return [v for v in values if v is not None and math.isfinite(v)]


def _clamp(v, lo, hi):
    return max(lo, min(hi, v))


class _Axis:
    """Affine map from data values to pixel coordinates."""

    def __init__(self, lo, hi, pix_lo, pix_hi):
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi = lo, hi
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def __call__(self, v):
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)


def _polyline(points, color, dasharray=""):
    if len(points) < 2:
        return ""
    attr = f' stroke-dasharray="{dasharray}"' if dasharray else ""
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{attr} points="{coords}"/>\n'


def trajectory_table(records: list[PruneRecord]) -> tuple[list[str], list[list]]:
    """Header and rows of the plotted quantities, one row per record."""
    pairs = [(layer, kind) for layer in LAYERS for kind in GAP_KINDS]
    header = ["round", *(f"q_{layer}_pct" for layer in LAYERS), "test_accuracy",
              *(f"{layer}_{kind}" for layer, kind in pairs)]
    rows = [[record.round, *(100.0 * record.q[layer] for layer in LAYERS), record.test_accuracy,
             *(record.gap(layer, kind) for layer, kind in pairs)] for record in records]
    return header, rows


def table_path(svg_path) -> str:
    """The path of the CSV table written beside the figure at ``svg_path``."""
    return os.path.splitext(svg_path)[0] + ".csv"


def render_trajectory(records: list[PruneRecord], svg_path) -> str:
    """Write the dual-axis SVG figure and its CSV table beside it (at
    table_path(svg_path)); returns the CSV path.
    Each panel plots its columns of that table, found by header name."""
    if not records:
        raise DomainError("trajectory is empty")
    csv_path = table_path(svg_path)
    if csv_path == svg_path:
        raise DomainError(f"{svg_path}: the figure would overwrite its own CSV table")
    header, rows = trajectory_table(records)
    columns = dict(zip(header, zip(*rows)))

    height = _MARGIN_T + len(LAYERS) * (_PANEL_H + _MARGIN_B) + 8
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PANEL_W}" height="{height}" '
        f'viewBox="0 0 {_PANEL_W} {height}" font-family="sans-serif" font-size="11">\n'
    ]
    for panel_index, layer in enumerate(LAYERS):
        top = _MARGIN_T + panel_index * (_PANEL_H + _MARGIN_B)
        parts.append(_render_panel(columns, layer, top))
    parts.append("</svg>\n")
    # The SVG goes first, so an SVG path that cannot be written leaves no CSV.
    with open(svg_path, "w") as f:
        f.write("".join(parts))
    with open(csv_path, "w", newline="") as f:
        csv.writer(f).writerows([repr(v) if isinstance(v, float) else v for v in row]
                                for row in [header, *rows])
    return csv_path


def _render_panel(columns: dict[str, tuple], layer: str, top: float) -> str:
    qs = columns[f"q_{layer}_pct"]
    accs = columns["test_accuracy"]
    gap_series = {kind: columns[f"{layer}_{kind}"] for kind in GAP_KINDS}

    left, right = _MARGIN_L, _PANEL_W - _MARGIN_R
    bottom = top + _PANEL_H
    # x decreases left to right: pruning proceeds rightward
    x_axis = _Axis(min(qs), max(qs), right, left)
    acc_axis = _Axis(0.0, 1.0, bottom, top)
    finite_gaps = _finite([v for series in gap_series.values() for v in series])
    gap_lo = min(finite_gaps + [0.0])
    gap_hi = max(finite_gaps + [0.0])
    pad = 0.05 * (gap_hi - gap_lo or 1.0)
    gap_axis = _Axis(gap_lo - pad, gap_hi + pad, bottom, top)

    out = [f'<g class="panel panel-{layer}">\n']
    out.append(
        f'<rect x="{left}" y="{top}" width="{right - left}" height="{_PANEL_H}" '
        'fill="none" stroke="#999"/>\n'
    )
    out.append(f'<text x="{left}" y="{top - 8}" font-weight="bold">{layer}</text>\n')
    # zero line of the gap axis
    zero_y = gap_axis(0.0)
    if top <= zero_y <= bottom:
        out.append(_polyline([(left, zero_y), (right, zero_y)], "#bbb", dasharray="2,3"))

    out.append(_polyline(list(zip(map(x_axis, qs), map(acc_axis, accs))), _ACC_COLOR))
    for kind, series in gap_series.items():
        pts = []
        for q, v in zip(qs, series):
            if v is None or not math.isfinite(v):
                # infinite gaps are drawn pinned to the axis top
                pts.append((x_axis(q), top))
            else:
                pts.append((x_axis(q), _clamp(gap_axis(v), top, bottom)))
        out.append(_polyline(pts, _GAP_COLORS[kind]))
        crossing = first_zero_crossing(series)
        if crossing is not None:
            cx = x_axis(qs[crossing])
            out.append(
                f'<line class="zero-crossing zero-crossing-{kind}" x1="{cx:.2f}" y1="{top}" '
                f'x2="{cx:.2f}" y2="{bottom}" stroke="{_GAP_COLORS[kind]}" '
                'stroke-width="1" stroke-dasharray="4,3"/>\n'
            )

    # axis labels and legend
    out.append(f'<text x="{left - 46}" y="{(top + bottom) / 2:.0f}" fill="{_ACC_COLOR}" '
               f'transform="rotate(-90 {left - 46} {(top + bottom) / 2:.0f})">accuracy</text>\n')
    out.append(f'<text x="{right + 40}" y="{(top + bottom) / 2:.0f}" '
               f'transform="rotate(90 {right + 40} {(top + bottom) / 2:.0f})">gap</text>\n')
    out.append(f'<text x="{(left + right) / 2 - 50}" y="{bottom + 30}">remaining edges %</text>\n')
    for tick in (0.0, 0.5, 1.0):
        out.append(f'<text x="{left - 28}" y="{acc_axis(tick) + 4:.0f}" fill="{_ACC_COLOR}">'
                   f"{tick:.1f}</text>\n")
    for tick in (gap_lo, 0.0, gap_hi):
        out.append(f'<text x="{right + 4}" y="{_clamp(gap_axis(tick), top, bottom) + 4:.0f}">'
                   f"{tick:.2f}</text>\n")
    for q in (qs[0], qs[-1]):
        out.append(f'<text x="{x_axis(q) - 8:.0f}" y="{bottom + 14}">{q:.1f}</text>\n')
    legend_x = left + 8
    legend_y = top + 14
    out.append(f'<text x="{legend_x}" y="{legend_y}" fill="{_ACC_COLOR}">accuracy</text>\n')
    for i, kind in enumerate(GAP_KINDS):
        out.append(f'<text x="{legend_x + 70 + i * 150}" y="{legend_y}" '
                   f'fill="{_GAP_COLORS[kind]}">{kind}</text>\n')
    out.append("</g>\n")
    return "".join(out)
