"""The numpy kernels, the only kernel implementation (``BACKEND``).

``prefractal_starts`` builds positions with a fixed sequence of float
operations, so a construction is reproducible bit for bit. ``box_count``
returns, for every box size down to ``estimation.DELTA_FLOOR``, the count of
the sequential sweep kept in the tests as the slow reference; the tests
compare counts exactly. It takes the arrays of an IntervalSet, whose starts
and ends are both sorted. ``set_layout`` gathers, once per set, what every
box size reuses: the shortest interval, and the gaps sorted by width (by a
16-bit key), with the interval on either side of each. Every set is counted
from its gaps at least half a cell wide, one sorted suffix of those rows;
at a size where some interval may be thinner than the snap band, each row
also tests its two neighbours for thinness.
"""

import struct
import sys
from typing import NamedTuple

import numpy as np

BACKEND = "python"


def available_backends():
    """Name -> kernel module; the numpy kernel is the only one."""
    return {BACKEND: sys.modules[__name__]}

#: gap rows per block of the count: small temporaries are reused by
#: the allocator, large ones cost fresh pages on every call
BLOCK = 16384

#: absolute slack on the thin-free test: an interval wider than 2*snap + THIN_SLACK
#: has a = start + snap below b = end - snap, whose rounding costs a few ulp of 1
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


#: a gap's sort key is the sign, exponent and 10 leading mantissa bits of its
#: width's binary64 pattern, less those of 2**-52 and clipped to [0, KEY_TOP]:
#: non-decreasing in the width, and 16 bits wide, so that one radix sort
#: orders the gaps (a float64 argsort costs several times more)
KEY_SHIFT = 42
KEY_BASE = int(np.float64(2.0**-52).view(np.int64)) >> KEY_SHIFT
KEY_TOP = 2**16 - 2  # above every width up to 1; 2**16 - 1 keys the sentinel


def _gathered(values, order, last):
    out = np.empty(len(values) + 1, dtype=values.dtype)
    np.take(values, order, out=out[:-1])
    out[-1] = last
    return out


class SetLayout(NamedTuple):
    """Facts about one IntervalSet that ``box_count`` reuses at every box size.

    ``keys`` holds the sort keys of the gap widths starts[1:] - ends[:-1] in
    ascending order and then the sentinel 2**16 - 1. In the same order,
    ``after_start`` and ``after_end`` hold the interval after each gap and
    ``before_start`` and ``before_end`` the interval before it; under the
    sentinel they hold the first and the last interval.
    """

    min_len: float
    keys: np.ndarray
    after_start: np.ndarray
    after_end: np.ndarray
    before_start: np.ndarray
    before_end: np.ndarray


def set_layout(starts, ends):
    """The SetLayout of a set: a few linear passes and one radix sort of the gap keys."""
    if len(starts) == 0:
        return SetLayout(0.0, *(np.empty(0),) * 5)
    keys = (starts[1:] - ends[:-1]).view(np.int64)
    keys >>= KEY_SHIFT
    keys -= KEY_BASE
    keys = np.clip(keys, 0, KEY_TOP, out=keys).astype(np.uint16)
    order = np.argsort(keys, kind="stable")  # a radix sort for 16-bit keys
    return SetLayout(
        float((ends - starts).min()),
        _gathered(keys, order, KEY_TOP + 1),
        _gathered(starts[1:], order, starts[0]),
        _gathered(ends[1:], order, ends[0]),
        _gathered(starts[:-1], order, starts[-1]),
        _gathered(ends[:-1], order, ends[-1]),
    )


def box_count(starts, ends, delta, eta, layout=None):
    """Occupied cells of the grid [k*delta, (k+1)*delta) over the intervals.

    A cell is occupied when its overlap with an interval exceeds eta*delta;
    intervals thinner than the snap band are assigned their midpoint cell.
    The intervals must lie in [0, 1] with starts and ends both
    non-decreasing, as those of an IntervalSet do. ``layout`` is the set's
    SetLayout when the caller keeps one.

    Interval j covers the cells lo_j..hi_j. With a = fl(start_j + snap) and
    b = fl(end_j - snap), the ends rule takes lo_j, the largest k with
    fl(k*delta) <= a, and hi_j, the largest k with fl(k*delta) < b; a row
    with hi_j < lo_j is thin and takes lo_j = hi_j = its midpoint cell, the
    others are wide. The count is the sequential sweep's: range j adds
    max(0, hi_j - max(lo_j - 1, reach_j)) cells, where reach_j is the
    highest cell of any earlier range.

    Proof that hi never decreases. Rounding is monotone, so a, b, the lo and
    hi of a wide row and the midpoint cell fl(fl(start + end)*0.5 / delta)
    are non-decreasing in start and end. A thin row straddles the boundary
    K = lo_j: fl(K*delta) <= a, and fl(K*delta) >= b since K > hi_j. Its
    endpoints lie within snap + 2u of K*delta (u = 2**-53 bounds one
    rounding of a value in (-2, 2)), its computed midpoint m within
    snap + 3u, and fl(m/delta) within eta + 4u/delta + 2u < 0.45 of K for
    every delta >= DELTA_FLOOR, so its midpoint cell is K - 1 or K. For
    consecutive rows i = j - 1 and j:
    - wide -> wide: b_i <= b_j, so hi_i <= hi_j;
    - thin -> thin: both take their midpoint cells, non-decreasing;
    - wide -> thin: fl(hi_i*delta) < b_i <= b_j <= fl(K*delta), so
      hi_i < K, and the midpoint cell of j is at least K - 1 >= hi_i;
    - thin -> wide: the midpoint cell of i is at most K = lo_i <= lo_j <= hi_j.

    So reach_j = hi_{j-1}, and as lo_j <= hi_j on every row, range j + 1
    adds hi_{j+1} - hi_j - e_j and the sum telescopes:

        count = (hi_last - lo_first + 1) - sum over gaps j of e_j,
        e_j = max(0, lo_{j+1} - hi_j - 1),

    the empty cells between interval j and interval j+1. Only a gap whose
    computed width g = fl(s - e) is at least delta/2 can have e_j > 0
    (s = start_{j+1}, e = end_j), so one searchsorted finds the suffix of
    the gap rows to count, and the sentinel row gives the span.

    Proof, for ends-rule cells first. Let K = lo_{j+1} >= hi_j + 2. By the
    definitions of lo and hi, fl(K*delta) <= a = fl(s + snap), and
    fl((K-1)*delta) >= b = fl(e - snap) since K-1 > hi_j. The four values
    K*delta, (K-1)*delta, s + snap and e - snap lie in (-2, 2), so
    s - e = a - b - 2*snap ± 2u >= delta - 2*snap - 4u; and s - e <= 1, so
    g >= s - e - u/2. With snap <= eta*delta*(1 + u):

        g >= delta*(1 - 2*eta*(1 + u)) - 4.5u,

    which is at least delta/2 when delta*(1/2 - 2*eta*(1 + u)) >= 4.5u,
    that is for every delta >= 9.993e-16 at eta = SNAP_ETA = 1e-6. That
    covers every admitted box size: at DELTA_FLOOR = 1e-15, about 4.5 ulps
    of 1, with 0.08% to spare. A thin neighbour only shrinks e_j: a thin
    interval j+1 takes K - 1 or K for its ends-rule lo K, never more, and a
    thin interval j takes at least its ends-rule lo minus 1, which is at
    least its ends-rule hi. So a gap with e_j > 0 has a positive ends-rule
    e_j as well, and the bound holds for every row.

    The keys are non-decreasing in the width, so every gap at least delta/2
    wide has a key at least that of delta/2 (which lies in [1152, 52224]
    for delta in [DELTA_FLOOR, 1], so no clip applies to it), and the suffix
    from searchsorted(keys, key(delta/2)) holds all of them. It may also
    hold gaps narrower than delta/2 by less than 2**-10 of it, the ones
    sharing its key; like every narrower gap (and the ulp-negative gaps of
    touching intervals, keyed 0) they have e_j = 0 and add nothing.

    A row reads its gap's neighbours from the layout. At a thin-free size,
    where every interval is wider than 2*snap + THIN_SLACK, no row is thin
    and the ends rule on s and e gives lo_{j+1} and hi_j. At every other
    size the row also finds hi_{j+1} and lo_j and runs the sweep's thin
    test on both neighbours. The rows are counted in blocks of BLOCK. Each
    row gives hi - lo + 1, which is -e_j for a gap and the span (at least 1)
    for the sentinel, so the count is the span plus the sum of
    min(0, hi - lo + 1) over the rows. Every partial sum is an integer
    below 2**53, so the sum is exact.
    """
    if len(starts) == 0:
        return 0
    if layout is None:
        layout = set_layout(starts, ends)
    snap = eta * delta
    thin_free = layout.min_len > 2.0 * snap + THIN_SLACK
    bits = struct.unpack("<q", struct.pack("<d", 0.5 * delta))[0]
    first = int(layout.keys.searchsorted(np.uint16((bits >> KEY_SHIFT) - KEY_BASE)))
    total, span = 0.0, 0.0
    for i in range(first, len(layout.keys), BLOCK):
        rows = slice(i, i + BLOCK)
        lo, hi = _cell_ranges(layout.after_start[rows], layout.before_end[rows], delta, snap)
        if not thin_free:
            before_lo, after_hi = _cell_ranges(
                layout.before_start[rows], layout.after_end[rows], delta, snap
            )
            mid = _midpoint_cells(layout.after_start[rows], layout.after_end[rows], delta)
            np.copyto(lo, mid, where=after_hi < lo)
            mid = _midpoint_cells(layout.before_start[rows], layout.before_end[rows], delta)
            np.copyto(hi, mid, where=hi < before_lo)
        hi -= lo
        hi += 1.0
        span = hi[-1]  # the sentinel is the last row of the last block
        total += np.minimum(hi, 0.0, out=hi).sum()
    return int(total + span)


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

