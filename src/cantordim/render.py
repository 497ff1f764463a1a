"""SVG rendering of construction stages and operator grid sheets.

Outputs are pure functions of their inputs (fixed float formatting, no
timestamps), so identical calls produce identical bytes. Grid sheets take
each operator's D formula and domain predicate from ``arith.OPERATOR_TABLE``
and evaluate them on whole arrays; this module only samples them and draws
the SVG. ``serialize.format_grid`` writes a sheet's CSV text.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .arith import operator_row
from .core import check_arity, check_index
from .errors import CapExceeded
from .geometry import DEFAULT_CAP, CantorParams, check_params, construct_prefractal
from .serialize import format_grid

# ---------------------------------------------------------------------------
# stage rendering

_W, _MARGIN_L, _MARGIN_R = 900, 70, 30
_BAR_H, _ROW_GAP, _TOP = 26, 34, 24


def _x(t: float) -> str:
    return format(_MARGIN_L + t * (_W - _MARGIN_L - _MARGIN_R), ".4f")


def _wd(t: float) -> str:
    return format(t * (_W - _MARGIN_L - _MARGIN_R), ".4f")


def render_stages_svg(params: CantorParams, max_stage: int, cap: int = DEFAULT_CAP) -> str:
    """One bar row per stage 0..max_stage with the scale factor (and, when it
    plays a role, the outermost gap) annotated on the stage-1 row."""
    check_params(params)
    max_stage = check_index(max_stage, "max_stage")
    # deepest stage first, so a stage over the cap or too deep fails before any row is built
    rows = [
        construct_prefractal(CantorParams(params.n, params.gamma, params.epsilon, s), cap=cap)
        for s in range(max_stage, -1, -1)
    ][::-1]

    height = _TOP + (max_stage + 1) * (_BAR_H + _ROW_GAP)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{height}" viewBox="0 0 {_W} {height}">',
        f'<rect x="0" y="0" width="{_W}" height="{height}" fill="white"/>',
    ]
    for s, intervals in enumerate(rows):
        y = _TOP + s * (_BAR_H + _ROW_GAP)
        out.append(
            f'<text x="10" y="{y + _BAR_H - 8}" font-family="monospace" '
            f'font-size="14" fill="black">S = {s}</text>'
        )
        for a, b in zip(intervals.starts, intervals.ends):
            out.append(
                f'<rect x="{_x(a)}" y="{y}" width="{_wd(b - a)}" '
                f'height="{_BAR_H}" fill="black"/>'
            )
    if max_stage >= 1:
        y = _TOP + 1 * (_BAR_H + _ROW_GAP) + _BAR_H
        out += _measure(0.0, params.gamma, y + 6, "&#947;")  # gamma under the first copy
        if params.n >= 4 and params.epsilon > 0.0:
            out += _measure(
                params.gamma, params.gamma + params.epsilon, y + 6, "&#949;"
            )  # epsilon under the outermost gap
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _measure(t0: float, t1: float, y: float, label: str) -> list[str]:
    ys = format(y, ".4f")
    mid = _x((t0 + t1) / 2.0)
    return [
        f'<line x1="{_x(t0)}" y1="{ys}" x2="{_x(t1)}" y2="{ys}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_x(t0)}" y1="{format(y - 4, ".4f")}" x2="{_x(t0)}" '
        f'y2="{format(y + 4, ".4f")}" stroke="black" stroke-width="1"/>',
        f'<line x1="{_x(t1)}" y1="{format(y - 4, ".4f")}" x2="{_x(t1)}" '
        f'y2="{format(y + 4, ".4f")}" stroke="black" stroke-width="1"/>',
        f'<text x="{mid}" y="{format(y + 16, ".4f")}" font-family="monospace" '
        f'font-size="13" fill="black" text-anchor="middle">{label}</text>',
    ]


# ---------------------------------------------------------------------------
# operator grid sheets

class GridSheet(NamedTuple):
    """Operator surface sampled at cell centers of an R x R grid over (0,1)^2.

    values[i, j] holds op(centers[i], centers[j]); cells outside the
    operator's validity domain hold NaN.
    """

    op: str
    resolution: int
    centers: np.ndarray
    values: np.ndarray


def emit_operator_grid(op_tag: str, resolution: int, n: int) -> tuple[GridSheet, str]:
    """Sample an operator over (0,1)^2 and render the da,db,dc CSV stream.

    Cell centers (k+0.5)/R avoid the degenerate boundary dimensions 0 and 1.
    Undefined cells are emitted as nan; rows are produced in row-major order
    (da outer, db inner), every value with 17 significant digits. The R*R
    cells may not exceed DEFAULT_CAP. ``n`` is checked as an arity but does
    not change the sheet: the operators' dimensions do not depend on N.

    A cell is defined where the operator's rounded domain predicate holds.
    The scalar ``sub`` also tests its exact bound; the grid has no need to.
    A center is (2i+1)/(2R) and the bound at db = (2j+1)/(2R) is
    (2j+1)/(2R+2j+1), so the cross-products (2i+1)(2R+2j+1), odd, and
    (2j+1)(2R), even, differ by a nonzero integer. A center therefore lies
    at least 1/(8R**2) from the bound, at least 1e-8 for R <= 3162, far
    beyond the few ulps where the rounded and the exact tests can disagree.
    """
    check_arity(n)
    row = operator_row(op_tag)
    resolution = check_index(resolution, "resolution", 2)
    if resolution**2 > DEFAULT_CAP:
        raise CapExceeded(f"resolution**2 = {resolution**2} exceeds the cap of {DEFAULT_CAP} cells")
    centers = (np.arange(resolution) + 0.5) / resolution
    da = centers[:, None]
    db = centers[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        values = row.d(da, db)
    if row.domain is not None:
        values[~row.domain(da, db)] = np.nan
    values.flags.writeable = False
    return GridSheet(op_tag, resolution, centers, values), format_grid(centers, values)
