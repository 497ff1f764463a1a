"""Pure-Python (numpy) kernels.

``prefractal_starts`` performs the same float operations in the same order as
the compiled kernel, so their positions agree bitwise. ``box_count`` is the
only box-count kernel. For every box size down to ``estimation.DELTA_FLOOR``
it returns the count of the sequential sweep kept in the tests as the slow
reference, in one pass over the intervals where the set allows. The parity
tests compare positions bitwise and counts exactly.
"""

import math
from typing import NamedTuple

import numpy as np

BACKEND_NAME = "python"

#: intervals per block of the one-pass count: small temporaries are reused by
#: the allocator, large ones cost fresh pages on every call
BLOCK = 16384

#: absolute slack on the thin test: it covers the rounding of a = start + snap,
#: b = end - snap and the interval midpoint (a few ulp of 1) many times over
THIN_SLACK = 1e-14


def prefractal_starts(offsets, gamma, stage):
    """Left endpoints of all n**stage intervals, most-significant digit first.

    Level s adds offsets[digit_s] * gamma**(s-1) with the gamma powers formed
    by successive multiplication, so position i carries the base-n digit
    expansion of i evaluated left-to-right.
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.float64)
    out = np.zeros(1, dtype=np.float64)
    pw = 1.0
    for _ in range(stage):
        out = (out[:, None] + offsets * pw).ravel()
        pw *= gamma
    return out


class SetLayout(NamedTuple):
    """Facts about one interval set that ``box_count`` reuses at every box size."""

    ordered: bool  # starts and ends non-decreasing, ends >= starts, all inside [0, 1]
    min_len: float
    max_len: float


def set_layout(starts, ends):
    """The SetLayout of a set: a few linear passes, made once per set."""
    if len(starts) == 0:
        return SetLayout(False, 0.0, 0.0)
    lengths = ends - starts
    min_len, max_len = float(lengths.min()), float(lengths.max())
    ordered = bool(
        starts[0] >= 0.0
        and ends[-1] <= 1.0
        and min_len >= 0.0
        and (starts[1:] >= starts[:-1]).all()
        and (ends[1:] >= ends[:-1]).all()
    )
    return SetLayout(ordered, min_len, max_len)


def box_count(starts, ends, delta, eta, layout=None):
    """Occupied cells of the grid [k*delta, (k+1)*delta) over sorted intervals.

    A cell is occupied when its overlap with an interval exceeds eta*delta;
    intervals thinner than the snap band are assigned their midpoint cell.
    ``layout`` is the set's SetLayout when the caller keeps one.

    Interval i covers cells lo_i..hi_i, where lo_i is the largest k with
    fl(k*delta) <= start_i + snap and hi_i the largest k with
    fl(k*delta) < end_i - snap. For an ordered set both are non-decreasing.
    If every interval is wider than the snap band (thin-free), the count is
    the size of the union of those ranges. If every interval is clearly
    thinner (all-thin), each sits inside its midpoint cell with room to
    spare, so the count is the number of distinct midpoint cells. Both take
    one pass over the intervals. Sets in neither class, or not ordered,
    take the general sweep.
    """
    if len(starts) == 0:
        return 0
    if layout is None:
        layout = set_layout(starts, ends)
    snap = eta * delta
    if layout.ordered:
        if layout.min_len > 2.0 * snap + THIN_SLACK:
            return _count_ranges(starts, ends, delta, snap)
        if layout.max_len < 2.0 * snap - THIN_SLACK:
            return _count_midpoints(starts, ends, delta)
    return _sweep(starts, ends, delta, snap)


def _cell_ranges(starts, ends, delta, snap):
    """Per-interval lo and hi cells, as exact integers held in float64.

    floor(x / delta) is at most one cell off. Comparing x with the rounded
    boundaries fl(k*delta) on either side finds the few that are: the snap
    keeps most endpoints far from a boundary. Both ends share one array, so
    each step is one numpy call.
    """
    m = len(starts)
    x = np.empty(2 * m)
    np.add(starts, snap, out=x[:m])
    np.subtract(ends, snap, out=x[m:])
    k = x / delta
    np.floor(k, out=k)
    edge = k * delta
    fix = np.empty(4 * m, dtype=bool)
    high, low = fix[: 2 * m], fix[2 * m :]
    np.greater(edge[:m], x[:m], out=high[:m])
    np.greater_equal(edge[m:], x[m:], out=high[m:])
    np.add(k, 1.0, out=edge)
    edge *= delta
    np.less_equal(edge[:m], x[:m], out=low[:m])
    np.less(edge[m:], x[m:], out=low[m:])
    if np.count_nonzero(fix):
        k -= high
        k += low
    return k[:m], k[m:]


def _count_ranges(starts, ends, delta, snap):
    """Thin-free count in one pass: the cells in the union of the ranges [lo_i, hi_i].

    With lo <= hi and hi non-decreasing, range i adds the cells above its
    predecessor's hi, hi_i - max(hi_{i-1}, lo_i - 1). Blocks of BLOCK
    intervals keep the temporaries small.
    """
    total, prev_hi = 0.0, -math.inf
    for i in range(0, len(starts), BLOCK):
        lo, hi = _cell_ranges(starts[i:i + BLOCK], ends[i:i + BLOCK], delta, snap)
        lo -= 1.0
        lo[0] = max(lo[0], prev_hi)
        np.maximum(lo[1:], hi[:-1], out=lo[1:])
        np.subtract(hi, lo, out=lo)
        total += lo.sum()
        prev_hi = hi[-1]
    return int(total)


def _sweep(starts, ends, delta, snap):
    """The sequential sweep for any input: new cells above the running maximum."""
    lo, hi = _cell_ranges(starts, ends, delta, snap)
    thin = hi < lo
    if thin.any():
        mid = _midpoint_cells(starts, ends, delta)
        lo = np.where(thin, mid, lo)
        hi = np.where(thin, mid, hi)
    total = hi[0] - lo[0] + 1.0
    if len(lo) > 1:
        lo_eff = np.maximum.accumulate(hi)[:-1]
        lo_eff += 1.0
        np.maximum(lo_eff, lo[1:], out=lo_eff)
        gain = hi[1:] - lo_eff
        gain += 1.0
        np.maximum(gain, 0.0, out=gain)
        total += gain.sum()
    return int(total)


def _midpoint_cells(starts, ends, delta):
    cells = starts + ends
    cells *= 0.5
    cells /= delta
    return np.floor(cells, out=cells)


def _count_midpoints(starts, ends, delta):
    """All-thin count in one pass: distinct midpoint cells, which are non-decreasing."""
    cells = _midpoint_cells(starts, ends, delta)
    return 1 + int(np.count_nonzero(cells[1:] != cells[:-1]))
