"""The numpy kernels, the only kernel implementation (``BACKEND``).

``prefractal_starts`` builds positions with a fixed sequence of float
operations, so a construction is reproducible bit for bit. ``box_count``
returns, for every box size down to ``estimation.DELTA_FLOOR``, the count of
the sequential sweep kept in the tests as the slow reference; the tests
compare counts exactly. It takes the arrays of an IntervalSet, whose starts
and ends are both sorted, and is the one-size case of ``box_counts``, which
counts a whole ladder of box sizes in one call. ``set_layout`` gathers, once
per set, what every box size reuses: the shortest interval, and the gaps
sorted by width (by a 16-bit key), with the interval on either side of
each. Every set is counted from its gaps at least half a cell wide, one
sorted suffix of those rows; at a size where some interval may be thinner
than the snap band, each row also tests its two neighbours for thinness.
A row finds its cells with one multiply by fl(1/delta), and compares with
the rounded cell boundaries only where the quotient lies near one.
"""

import sys
from typing import NamedTuple

import numpy as np

BACKEND = "python"


def available_backends():
    """Name -> kernel module; the numpy kernel is the only one."""
    return {BACKEND: sys.modules[__name__]}

#: cells per block of the count (box sizes times gap rows): every block of a
#: call reuses one scratch of this many cells
BLOCK = 16384

#: numpy's ufunc buffer, in elements, while a ladder's (r, 1) columns broadcast
#: over its blocks: rows at least this long run without a copy through it
ROW_BUFFER = 1024

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


def box_count(starts, ends, delta, eta):
    """Occupied cells of the grid [k*delta, (k+1)*delta) over the intervals.

    A cell is occupied when its overlap with an interval exceeds eta*delta;
    intervals thinner than the snap band are assigned their midpoint cell.
    The intervals must lie in [0, 1] with starts and ends both
    non-decreasing, as those of an IntervalSet do.

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
    test on both neighbours. Each row gives hi - lo + 1, which is -e_j for a
    gap and the span (at least 1) for the sentinel, so the count is the span
    plus the sum of min(0, hi - lo + 1) over the rows, that is the span plus
    the number of rows plus the sum of min(hi - lo, -1): one pass over the
    rows. Every partial sum is an integer below 2**53, so the sum is exact in
    any order. ``_cell_ranges`` finds the lo and hi cells with one multiply:
    q = floor(fl(x * fl(1/delta))) is the exact cell of x wherever the
    fraction of that quotient lies at least eps = 2**-50 * (fl(1/delta) + 1)
    from 0 and from 1, because eps bounds in cells the rounding of the
    quotient and of the boundaries fl(k*delta); the other entries, at most
    one cell off, take the sweep's two comparisons (derived there).

    ``box_counts`` counts a whole ladder this way, several sizes per numpy
    call, and this function is its one-size case, which skips the planning
    and runs on 1-D (2, rows) blocks. A ladder orders its sizes by the
    length of their suffixes and packs neighbours greedily into groups:
    r sizes share blocks of the rows of the longest suffix among them, as
    (r, rows) arrays with delta and snap as (r, 1) columns, while
    r * rows <= BLOCK. A size whose suffix is longer than BLOCK forms a
    group alone and runs BLOCK rows at a time. Two facts make the counts
    those of one size at a time. A row before a size's own suffix adds
    exactly 0: its gap is narrower than delta/2, so e_j = 0 by the bound
    above, with or without the thin test. And the thin test is a no-op at a
    thin-free size: there every interval has a < b, so fl(lo*delta) <= a < b
    gives hi >= lo, and no neighbour is thin. So a group runs the thin test
    when any of its sizes needs it; 2*fl(eta*delta) + THIN_SLACK is
    non-decreasing in delta, so that is when its largest size needs it.
    """
    return box_counts(set_layout(starts, ends), (delta,), eta)[0]


def box_counts(layout, deltas, eta):
    """``box_count`` at every box size of ``deltas``, in one call on the set's SetLayout.

    The sizes may come in any order and repeat; the counts, Python ints, come
    in the same order. How the sizes share blocks is set out in ``box_count``.
    """
    deltas = np.array(deltas, dtype=np.float64)
    n, end = len(deltas), len(layout.keys)
    if n == 0 or end == 0:
        return [0] * n
    keys = ((0.5 * deltas).view(np.int64) >> KEY_SHIFT) - KEY_BASE
    lengths = end - layout.keys.searchsorted(keys.astype(np.uint16))  # of each size's suffix
    if n == 1:
        return _count_groups(layout, deltas, [((0,), int(lengths[0]))], eta)
    # numpy runs a ufunc with an (r, 1) column operand over rows shorter than
    # its buffer by copying them through the buffer, which costs several times
    # the arithmetic; a buffer of ROW_BUFFER lets most rows run in place
    with np.errstate():  # restores the buffer size on exit
        np.setbufsize(ROW_BUFFER)
        return _count_groups(layout, deltas, _groups(lengths.tolist()), eta)


def _count_groups(layout, deltas, groups, eta):
    """The counts of ``box_counts``, group by group: (sizes, rows) as ``_groups`` gives them."""
    end = len(layout.keys)
    width = max(len(sizes) * min(rows, BLOCK // len(sizes)) for sizes, rows in groups)
    # one scratch for every block: fresh temporaries for each block of a
    # ladder cost more in page faults than the arithmetic
    scratch, flags = np.empty(8 * width), np.empty(4 * width, dtype=bool)
    counts = [0] * len(deltas)
    for sizes, rows in groups:
        r = len(sizes)
        if r == 1:  # scalars and 1-D blocks take numpy's fastest loops
            delta = coarsest = float(deltas[sizes[0]])
        else:  # (r, 1) columns against the (r, rows) arrays
            delta = deltas[list(sizes)][:, None]
            coarsest = float(delta.max())
        thin_test = not layout.min_len > 2.0 * (eta * coarsest) + THIN_SLACK
        inv = 1.0 / delta
        eps = 2.0**-50 * (inv + 1.0)
        grid = (delta, eta * delta, inv, eps, 1.0 - eps)
        step = BLOCK // r
        total = float(rows)  # min(0, hi - lo + 1) = min(hi - lo, -1) + 1 on each row
        for first in range(end - rows, end, step):
            block = slice(first, first + step)
            m = min(step, end - first)
            shape = (2, m) if r == 1 else (2, r, m)
            work = scratch[: 8 * r * m].reshape(4, *shape)
            fix = flags[: 4 * r * m].reshape(2, *shape)
            lo, hi = work[2]
            _cell_ranges(layout.after_start[block], layout.before_end[block], grid,
                         work, fix, work[2])
            if thin_test:
                before_lo, after_hi = work[3]
                _cell_ranges(layout.before_start[block], layout.after_end[block], grid,
                             work, fix, work[3])
                thin, mid = fix[0, 0], work[1, 0]
                np.less(after_hi, lo, out=thin)
                _midpoint_cells(layout.after_start[block], layout.after_end[block], delta, mid)
                np.copyto(lo, mid, where=thin)
                np.less(hi, before_lo, out=thin)
                _midpoint_cells(layout.before_start[block], layout.before_end[block], delta, mid)
                np.copyto(hi, mid, where=thin)
            hi -= lo
            span = hi[..., -1] + 1.0  # the sentinel is the last row of the last block
            total += np.add.reduce(np.minimum(hi, -1.0, out=hi), axis=-1)
        found = (total + span).tolist()  # a float, or a list of r
        for k, count in zip(sizes, found if r > 1 else [found]):
            counts[k] = int(count)
    return counts


def _groups(lengths):
    """(sizes, rows) for each group of a ladder whose suffixes have these lengths.

    The sizes go in order of suffix length, the shortest first; each group
    takes the next sizes while r sizes of the longest suffix among them fit
    r * rows <= BLOCK, and at least one.
    """
    n = len(lengths)
    order = sorted(range(n), key=lengths.__getitem__)
    groups, i = [], 0
    while i < n:
        j = i + 1
        while j < n and (j + 1 - i) * lengths[order[j]] <= BLOCK:
            j += 1
        groups.append((order[i:j], lengths[order[j - 1]]))
        i = j
    return groups


def _cell_ranges(starts, ends, grid, work, fix, out):
    """Lo and hi cells of the rows at one or more box sizes, as exact integers held in float64.

    ``grid`` is (delta, snap, inv, eps, 1 - eps), each a scalar or an (r, 1)
    column of r sizes, with inv = fl(1/delta) and eps = 2**-50 * (inv + 1).
    ``out`` (2, ..., rows) gets lo, then hi; ``work[0]``, ``work[1]``
    (float), ``fix[0]`` and ``fix[1]`` (bool) are scratch of its shape. Both
    ends share one array, so each step is one numpy call.

    Each endpoint x (a = fl(start + snap) or b = fl(end - snap)) takes
    t = fl(x * inv), q = floor(t) and f = fl(t - q), the fraction of t. Let
    u = 2**-53, T = x/delta exactly, and measure in cells; |x| < 2, and x*inv
    is 0 or far above the subnormal range (x is 0 or at least about
    2**-55 * snap), so every rounding below is relative:
    - t is two roundings from T: |t - T| <= (2u + u**2)|T| < 4.001u/delta;
    - fl(k*delta) is one rounding from k*delta, so fl(k*delta)/delta is
      within u|k| of k, and |q|, |q + 1| < 2/delta + 2;
    - f is exact when t >= 0 or t <= -1 (q = 0, or q and t within a factor
      of 2); for t in (-1, 0), which only a thin row's b below 0 reaches,
      f = fl(t + 1) is within u.
    An entry is flagged when f < eps or f > 1 - eps, with
    eps >= 8u/delta * (1 - 2u) + 7u > 6.001u/delta + 3u, the sum of the
    three errors. At an entry that is not, T - q and q + 1 - T both exceed
    the error of the boundary, so fl(q*delta) < x < fl((q + 1)*delta)
    strictly: q is both the ends-rule lo (the largest k with
    fl(k*delta) <= a) and hi (the largest k with fl(k*delta) < b).

    A flagged entry is set exactly by ``_exact_cells``, which needs q within
    one cell of that k: the exact k lies in (T - 1 - u|k + 1|, T + u|k|] and
    q in (T - 1 - 4.001u/delta, T + 4.001u/delta], so they differ by less
    than 1 + 6.001u/delta + 2u < 2 for every delta >= DELTA_FLOOR. Near
    ``DELTA_FLOOR`` eps exceeds 0.5, every entry is flagged, and the count
    is still exact; at 2**-40 eps is about 2**-10, and at coarser sizes few
    entries are flagged.
    """
    delta, snap, inv, eps, upper = grid
    x, frac = work[0], work[1]
    np.add(starts, snap, out=x[0])
    np.subtract(ends, snap, out=x[1])
    np.multiply(x, inv, out=frac)
    np.floor(frac, out=out)
    frac -= out
    flagged, above = fix
    np.less(frac, eps, out=flagged)
    np.greater(frac, upper, out=above)
    flagged |= above
    if np.count_nonzero(flagged):
        _exact_cells(x[0], delta, flagged[0], out[0], np.less_equal)
        _exact_cells(x[1], delta, flagged[1], out[1], np.less)


def _exact_cells(x, delta, flagged, out, below):
    """Where ``flagged``, move the cell q in ``out`` to the largest k with below(fl(k*delta), x).

    That k is q - 1, q or q + 1 (see ``_cell_ranges``), and the two
    comparisons are the reference sweep's: ``below`` is ``np.less_equal``
    for lo and ``np.less`` for hi. ``delta`` is a scalar or an (r, 1)
    column against the (r, rows) ``x`` and ``out``.
    """
    at = np.flatnonzero(flagged)
    if len(at) == 0:
        return
    xs, q = x.reshape(-1)[at], out.reshape(-1)[at]
    if np.ndim(delta):
        delta = delta.reshape(-1)[at // out.shape[-1]]
    up = below((q + 1.0) * delta, xs)
    down = ~below(q * delta, xs)
    out.reshape(-1)[at] = q + up - down


def _midpoint_cells(starts, ends, delta, out):
    """The cell of each row's midpoint, into ``out``."""
    half = starts + ends
    half *= 0.5
    np.divide(half, delta, out=out)
    np.floor(out, out=out)
