"""The numpy kernels, the only kernel implementation (``BACKEND``).

``prefractal_starts`` builds positions with a fixed sequence of float
operations, so a construction is reproducible bit for bit. ``box_count``
returns, for every box size down to ``estimation.DELTA_FLOOR``, the count of
the sequential sweep kept in the tests as the slow reference, in one blocked
pass over the intervals for every set, ordered or not; the tests compare
counts exactly.
"""

import math
import sys
from typing import NamedTuple

import numpy as np

BACKEND = "python"


def available_backends():
    """Name -> kernel module; the numpy kernel is the only one."""
    return {BACKEND: sys.modules[__name__]}

#: intervals per block of the count: small temporaries are reused by
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
    """Occupied cells of the grid [k*delta, (k+1)*delta) over the intervals.

    A cell is occupied when its overlap with an interval exceeds eta*delta;
    intervals thinner than the snap band are assigned their midpoint cell.
    ``layout`` is the set's SetLayout when the caller keeps one.

    Interval j covers the cells lo_j..hi_j by one of three rules:
    - thin-free set (every interval wider than the snap band): lo_j is the
      largest k with fl(k*delta) <= start_j + snap and hi_j the largest k
      with fl(k*delta) < end_j - snap, so lo_j <= hi_j;
    - all-thin set (every interval clearly thinner): each interval sits inside
      its midpoint cell with room to spare, and lo_j = hi_j = that cell;
    - mixed set: lo_j and hi_j as for a thin-free set, and the rows with
      hi_j < lo_j (the thin ones) take lo_j = hi_j = their midpoint cell.
    The count is the sequential sweep's: range j adds
    max(0, hi_j - max(lo_j - 1, reach_j)) cells, where reach_j is the highest
    cell of any earlier range. One loop sums it over blocks of BLOCK
    intervals, carrying reach from block to block. In an ordered set that is
    thin-free or all-thin, hi never decreases, so reach_j is hi_{j-1} and no
    term is negative; other sets take the running maximum and the clip.
    """
    if len(starts) == 0:
        return 0
    if layout is None:
        layout = set_layout(starts, ends)
    snap = eta * delta
    thin_free = layout.min_len > 2.0 * snap + THIN_SLACK
    all_thin = layout.max_len < 2.0 * snap - THIN_SLACK
    monotone = layout.ordered and (thin_free or all_thin)
    total, reach = 0.0, -math.inf
    for i in range(0, len(starts), BLOCK):
        s, e = starts[i:i + BLOCK], ends[i:i + BLOCK]
        if all_thin:
            hi = _midpoint_cells(s, e, delta)
            lo = hi.copy()
        else:
            lo, hi = _cell_ranges(s, e, delta, snap)
            if not thin_free:
                thin = hi < lo
                mid = _midpoint_cells(s, e, delta)
                lo, hi = np.where(thin, mid, lo), np.where(thin, mid, hi)
        if monotone:
            top = hi
        else:
            top = np.maximum.accumulate(hi)
            np.maximum(top, reach, out=top)
        lo -= 1.0
        lo[0] = max(lo[0], reach)
        np.maximum(lo[1:], top[:-1], out=lo[1:])
        np.subtract(hi, lo, out=lo)
        if not monotone:
            np.maximum(lo, 0.0, out=lo)
        total += lo.sum()
        reach = top[-1]
    return int(total)


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


def _midpoint_cells(starts, ends, delta):
    cells = starts + ends
    cells *= 0.5
    cells /= delta
    return np.floor(cells, out=cells)

