"""The numpy kernels, the only kernel implementation (``BACKEND``).

``prefractal_starts`` builds positions with a fixed sequence of float
operations, so a construction is reproducible bit for bit. ``box_counts``
counts a whole ladder of box sizes in one call and returns, for every box
size in [``DELTA_FLOOR``, 1], the count of the sequential sweep kept in the
tests as the slow reference, at the snap band ``SNAP_ETA``; the tests
compare counts exactly, and its docstring holds the proof. ``box_count``
counts a ladder of one size on the arrays of an IntervalSet, whose starts
and ends are both sorted. ``set_layout`` gathers, once per set, what every
box size reuses: the shortest interval, and the gaps sorted by width (by a
16-bit key), with the start after and the end before each gap (18 bytes
per interval). Every set is counted from its gaps at least about
delta*(1 - 4*SNAP_ETA) wide, a margin below the least width that
``box_counts`` proves can hold an empty cell: one sorted suffix of those
rows. At a size where some interval may be thinner than the snap band,
each row also tests its two neighbours for thinness, which reads their
other ends; the layout holds those (16 bytes a row) only for the rows that
such a size can reach, the suffix of the finest one. A row finds its cells
with one multiply by fl(1/delta), and compares with the rounded cell
boundaries only where the quotient lies near one.
"""

import sys
from bisect import bisect_right
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from .errors import DomainError

BACKEND = "python"


def available_backends():
    """Name -> kernel module; the numpy kernel is the only one."""
    return {BACKEND: sys.modules[__name__]}

#: occupancy snap band as a fraction of the cell size: the only eta ``box_counts`` is proved for
SNAP_ETA = 1e-6

#: the smallest box size: cells must be indexable in exact int64 arithmetic
DELTA_FLOOR = 1e-15

#: cells per block of the count (box sizes times gap rows): every block of a
#: call reuses one scratch of this many cells
BLOCK = 16384

#: absolute slack on the thin-free test: an interval wider than 2*snap + THIN_SLACK
#: has a = start + snap below b = end - snap, whose rounding costs a few ulp of 1
THIN_SLACK = 1e-14


def prefractal_starts(offsets, gamma, stage):
    """Left endpoints of all n**stage intervals, most-significant digit first.

    Level s adds offsets[digit_s] * gamma**(s-1) with the gamma powers formed
    by successive multiplication, so position i carries the base-n digit
    expansion of i evaluated left-to-right. The steps offsets * gamma**(s-1)
    of every level come from one outer product.
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.float64)
    powers, pw = [], 1.0
    for _ in range(stage):
        powers.append(pw)
        pw *= gamma
    out = np.zeros(1, dtype=np.float64)
    for step in np.multiply.outer(powers, offsets):
        out = (out[:, None] + step).ravel()
    return out


KEY_SHIFT = 42
KEY_BASE = int(np.float64(2.0**-52).view(np.int64)) >> KEY_SHIFT
KEY_TOP = 2**16 - 2  # above every width up to 1; 2**16 - 1 keys the sentinel


def _width_keys(widths):
    """The 16-bit sort keys of a float64 array of widths, which it overwrites.

    A key is the sign, exponent and 10 leading mantissa bits of the width's
    binary64 pattern, less those of 2**-52 and clipped to [0, KEY_TOP]:
    non-decreasing in the width, and 16 bits wide, so that one radix sort
    orders the gaps (a float64 argsort costs several times more). The gaps
    of ``set_layout`` and the suffix bounds of ``box_counts`` take the same
    keys, as that bound's proof needs.
    """
    keys = widths.view(np.int64)
    keys >>= KEY_SHIFT
    keys -= KEY_BASE
    np.maximum(keys, 0, out=keys)
    np.minimum(keys, KEY_TOP, out=keys)
    return keys.astype(np.uint16)


class SetLayout(NamedTuple):
    """Facts about one IntervalSet that ``box_counts`` reuses at every box size.

    ``keys`` holds the sort keys of the gap widths starts[1:] - ends[:-1] in
    ascending order and then the sentinel 2**16 - 1. In the same order,
    ``after_start`` holds the start of the interval after each gap and
    ``before_end`` the end of the interval before it; under the sentinel
    they hold the first start and the last end. ``before_start`` and
    ``after_end``, the other ends of those two intervals, serve only the
    thin test, so they hold only the last rows, the tail: the suffix of the
    finest box size in [DELTA_FLOOR, 1] at which some interval may be
    thinner than the snap band, or no row when there is no such size (see
    ``set_layout``). The tail is ``len(before_start)`` rows long.
    """

    min_len: float
    keys: np.ndarray
    after_start: np.ndarray
    before_end: np.ndarray
    before_start: np.ndarray
    after_end: np.ndarray


def _gap_keys(starts, ends):
    """The shortest interval's length, and the keys of the gaps and then the sentinel's."""
    widths = ends - starts
    min_len = float(widths.min())
    np.subtract(starts[1:], ends[:-1], out=widths[:-1])
    keys = _width_keys(widths)
    keys[-1] = KEY_TOP + 1
    return min_len, keys


def set_layout(starts, ends):
    """The SetLayout of a set: a few linear passes and one radix sort of the gap keys.

    The sentinel is keyed as the last gap, after interval n - 1, so that one
    stable sort orders it after every gap, and the gathers by the sorted gap
    index j (before) and j + 1 (after, wrapping to interval 0 under the
    sentinel) give every row at once.

    The tail is the suffix of the size F = max(L, DELTA_FLOOR), with
    L = fl(fl(fl(m - S) / (2*eta)) * (1 - 2**-20)), m the shortest
    interval's length, S = THIN_SLACK and eta = ``SNAP_ETA``; it is empty
    when no size up to 1 needs the thin test, for 2*fl(eta*delta) + S
    never decreases in delta. Every size delta in [DELTA_FLOOR, 1] that
    needs the thin test is at least F. It has m <= fl(2*fl(eta*delta) + S)
    <= (2*eta*delta*(1 + u) + S)(1 + u), with u = 2**-53 (eta*delta is at
    least 1e-21, far above the subnormals), so

        delta >= A/(1 + u)**2 - S*u/(2*eta*(1 + u)**2),  A = (m - S)/(2*eta).

    If fl(m - S) <= 0, then L <= 0. Otherwise m > S, and the three
    roundings give L <= A*(1 + u)**3 * (1 - 2**-20), which lies below
    A/(1 + u)**2 by more than A*2**-21; that exceeds the second term,
    below 5.6e-25, whenever A >= 1.2e-18, and for smaller A, L is below
    DELTA_FLOOR. As the suffixes only shorten as sizes grow (``box_counts``),
    every thin size's suffix lies inside the tail.
    """
    if len(starts) == 0:
        return SetLayout(0.0, *(np.empty(0),) * 5)
    min_len, keys = _gap_keys(starts, ends)
    order = keys.argsort(kind="stable")  # a radix sort for 16-bit keys
    keys, before_end = keys.take(order), ends.take(order)
    tail = order[len(order) - _tail_rows(min_len, keys):]
    before_start = starts.take(tail)
    order += 1  # tail is a view of order
    return SetLayout(min_len, keys, starts.take(order, mode="wrap"), before_end,
                     before_start, ends.take(tail, mode="wrap"))


def _tail_rows(min_len, keys):
    """The rows of the tail of ``set_layout`` over the sorted ``keys``."""
    if not _needs_thin_test(min_len, 1.0):
        return 0
    finest = (min_len - THIN_SLACK) / (2.0 * SNAP_ETA) * (1.0 - 2.0**-20)
    return int(_suffix_lengths(keys, np.array([max(finest, DELTA_FLOOR)]))[0])


def box_count(starts, ends, delta, eta):
    """``box_counts`` at one size, on arrays; kept for the tests and perfbench's kernel_parity.

    Any ``eta`` but ``SNAP_ETA`` is a DomainError.
    """
    if eta != SNAP_ETA:
        raise DomainError(f"eta must be SNAP_ETA = {SNAP_ETA!r}, got {eta!r}")
    return box_counts(set_layout(starts, ends), (delta,))[0]


def box_counts(layout, deltas):
    """Occupied cells of the grid [k*delta, (k+1)*delta) at every box size of ``deltas``.

    The counts, Python ints, come in the order of ``deltas``, which may come
    in any order and repeat; ``layout`` is the SetLayout of the set.

    A cell is occupied when its overlap with an interval exceeds eta*delta,
    eta = ``SNAP_ETA``; intervals thinner than the snap band are assigned
    their midpoint cell. The intervals must lie in [0, 1] with starts and
    ends both non-decreasing, as those of an IntervalSet do.

    ``SNAP_ETA`` is the only eta: the proof below takes its value.

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
    computed width g = fl(s - e) is at least B(delta), below, can have
    e_j > 0 (s = start_{j+1}, e = end_j), so one searchsorted finds the
    suffix of the gap rows to count, and the sentinel row gives the span.

    Proof, for ends-rule cells first. Let K = lo_{j+1} >= hi_j + 2. By the
    definitions of lo and hi, fl(K*delta) <= a = fl(s + snap), and
    fl((K-1)*delta) >= b = fl(e - snap) since K-1 > hi_j. The four values
    K*delta, (K-1)*delta, s + snap and e - snap lie in (-2, 2), so
    s - e = a - b - 2*snap ± 2u >= delta - 2*snap - 4u; and s - e <= 1, so
    g >= s - e - u/2. With snap <= eta*delta*(1 + u):

        g >= B(delta) = delta*(1 - 2*eta*(1 + u)) - 4.5u.

    A thin neighbour only shrinks e_j: a thin interval j+1 takes K - 1 or K
    for its ends-rule lo K, never more, and a thin interval j takes at
    least its ends-rule lo minus 1, which is at least its ends-rule hi. So
    a gap with e_j > 0 has a positive ends-rule e_j as well, and the bound
    holds for every row.

    The suffix starts at the key of (``_suffix_lengths``)

        T(delta) = max(delta/2, fl(delta*fl(1 - 4*eta)) - 2**-50),

    both terms computed in binary64, and T(delta) <= B(delta) for every
    admitted box size. First, delta/2 <= B(delta) when
    delta*(1/2 - 2*eta*(1 + u)) >= 4.5u, that is for every delta >= 9.993e-16
    at eta = SNAP_ETA = 1e-6: at DELTA_FLOOR = 1e-15, about 4.5 ulps of 1,
    with 0.08% to spare (this term needs eta < 1/4). Second, the exact value
    of the other term, delta*(1 - 4*eta) - 2**-50, lies
    2*eta*delta*(1 - u) + 3.5u below B(delta), and its roundings move it by
    less: c = fl(1 - 4*eta) lies within u/2 of 1 - 4*eta (4*eta is exact,
    and 1 - 4*eta lies in [1/2, 1)), p = fl(delta*c) within u*delta of
    delta*c, and fl(p - 2**-50) within u*(p + 2**-50) of p - 2**-50, so
    the three move it by at most 2.6u*delta + 8u**2, which is below
    2*eta*delta*(1 - u) + 3.5u for every delta in [DELTA_FLOOR, 1] (at any
    eta >= 0). So that term lies about 2*eta*delta below B(delta), while
    delta*(1 - 2*eta) lies about 4.5u above it.

    The keys are non-decreasing in the width, so every gap at least B(delta)
    wide has a key at least that of T(delta), and the suffix from
    searchsorted(keys, key(T(delta))) holds all of them. T(delta) lies in
    [delta/2, 1), so its key lies in [1152, 53247] for delta in
    [DELTA_FLOOR, 1], and no clip applies to it. The suffix may also hold
    gaps narrower than B(delta): those between T(delta) and B(delta), and
    those narrower than T(delta) by less than 2**-10 of it, the ones
    sharing its key; like every narrower gap (and the ulp-negative gaps of
    touching intervals, keyed 0) they have e_j = 0 and add nothing.

    A row reads its gap's neighbours from the layout. At a thin-free size,
    where every interval is wider than 2*snap + THIN_SLACK, every interval
    has a < b, so fl(lo*delta) <= a < b gives hi >= lo: no row is thin,
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

    A whole ladder is counted this way, several sizes per numpy call, and
    a single size is a ladder of one. A ladder takes its sizes coarsest
    first, so that their suffixes never shorten (T(delta) and the keys are
    non-decreasing). 2*fl(eta*delta) + THIN_SLACK is non-decreasing in
    delta, so the sizes that need the thin test come first, and the ladder
    splits at its first thin-free size. Each part packs neighbours greedily
    into groups: r sizes share blocks of the rows of the longest suffix
    among them, as (r, rows) arrays with delta and snap as (r, 1) columns,
    while r * rows <= BLOCK. A size whose suffix is longer than BLOCK forms
    a group alone and runs BLOCK rows at a time; a group of one size runs
    on scalars and 1-D (2, rows) blocks. So a group runs the thin test at
    all of its sizes or at none, as one size at a time does, and a thin
    group's rows, the suffix of its finest size, lie in the layout's tail
    (``set_layout``). The counts are those of one size at a time, because a
    row before a size's own suffix adds exactly 0: its gap's key is below
    that of T(delta), so the gap is narrower than T(delta) <= B(delta), and
    e_j = 0 by the bound above, with or without the thin test. The sizes
    are admitted box sizes, in [DELTA_FLOOR, 1], as the proofs and the tail
    assume; a thin size whose suffix passes the tail, which only a size
    outside that range can have, is a DomainError.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    n, end = len(deltas), len(layout.keys)
    if n == 0 or end == 0:
        return [0] * n
    order = (-deltas).argsort(kind="stable")
    deltas = deltas[order]
    thin = 0  # the sizes that need the thin test, which come first: few, or none
    while thin < n and _needs_thin_test(layout.min_len, float(deltas[thin])):
        thin += 1
    lengths = _suffix_lengths(layout.keys, deltas).tolist()
    if thin and lengths[thin - 1] > len(layout.before_start):  # a size outside [DELTA_FLOOR, 1]
        raise DomainError(f"box sizes must lie in [{DELTA_FLOOR}, 1]")
    groups = _groups(lengths, 0, thin) + _groups(lengths, thin, n)
    scratch = _scratch(max(min((last - first) * rows, BLOCK) for first, last, rows in groups))
    shared = any(last - first > 1 for first, last, _ in groups)
    columns = _grid(deltas[:, None]) if shared else None
    totals = np.empty(n)
    # numpy runs a ufunc with an (r, 1) column operand over rows shorter than
    # its buffer by copying them through the buffer, which costs several times
    # the arithmetic; a buffer no longer than a group's rows (numpy takes
    # multiples of 16) lets them run in place. A group of r >= 2 sizes has
    # r * rows <= BLOCK, so its buffer stays within numpy's default of 8192
    with np.errstate() if shared else nullcontext():  # errstate restores the buffer size on exit
        for first, last, rows in groups:
            if last - first == 1:  # scalars and 1-D blocks take numpy's fastest loops
                grid = _grid(float(deltas[first]))
            else:
                grid = [column[first:last] for column in columns]
                np.setbufsize(max(16, rows // 16 * 16))
            totals[first:last] = _count_group(layout, grid, last - first, rows, first < thin,
                                              scratch)
    counts = np.empty(n, dtype=np.int64)
    counts[order] = totals
    return counts.tolist()


def _suffix_lengths(keys, deltas):
    """The rows of each size's gap suffix in the sorted ``keys``, the sentinel included.

    A size counts the gaps keyed at least as T(delta) = max(delta/2,
    fl(delta*fl(1 - 4*SNAP_ETA)) - 2**-50), which ``box_counts`` proves lies
    below every gap that can hold an empty cell; ``deltas`` is a float64 array.
    """
    floor = deltas * (1.0 - 4.0 * SNAP_ETA)
    floor -= 2.0**-50
    np.maximum(floor, 0.5 * deltas, out=floor)
    return len(keys) - keys.searchsorted(_width_keys(floor))


def _grid(delta):
    """(delta, snap, inv, eps, 1 - eps) of ``_cell_ranges``, for a size or an (r, 1) column."""
    inv = 1.0 / delta
    eps = 2.0**-50 * (inv + 1.0)
    return delta, SNAP_ETA * delta, inv, eps, 1.0 - eps


def _scratch(cells):
    """Scratch for blocks of up to ``cells`` cells: every block of a call reuses it.

    Fresh temporaries for each block of a ladder cost more in page faults
    than the arithmetic.
    """
    return np.empty(8 * cells), np.empty(4 * cells, dtype=bool)


def _needs_thin_test(min_len, delta):
    """Whether an interval ``min_len`` long may be thinner than the snap band at size ``delta``."""
    return not min_len > 2.0 * (SNAP_ETA * delta) + THIN_SLACK


def _count_group(layout, grid, r, rows, thin_test, scratch):
    """The counts of r sizes over the last ``rows`` gap rows: a float, or r of them.

    ``grid`` holds scalars for one size and (r, 1) columns for r sizes.
    With ``thin_test``, the rows lie in the layout's tail.
    """
    scratch, flags = scratch
    end = len(layout.keys)
    offset = end - len(layout.before_start)  # the tail columns' first row
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
            near = slice(first - offset, first - offset + step)  # the block's tail rows
            before_lo, after_hi = work[3]
            _cell_ranges(layout.before_start[near], layout.after_end[near], grid,
                         work, fix, work[3])
            thin, mid = fix[0, 0], work[1, 0]
            np.less(after_hi, lo, out=thin)
            _midpoint_cells(layout.after_start[block], layout.after_end[near], grid[0], mid)
            np.copyto(lo, mid, where=thin)
            np.less(hi, before_lo, out=thin)
            _midpoint_cells(layout.before_start[near], layout.before_end[block], grid[0], mid)
            np.copyto(hi, mid, where=thin)
        hi -= lo
        span = hi[..., -1] + 1.0  # the sentinel is the last row of the last block
        total += np.add.reduce(np.minimum(hi, -1.0, out=hi), axis=-1)
    return total + span


def _groups(lengths, first, stop):
    """(first, last, rows) for each group of the sizes first..stop - 1 of a ladder.

    ``lengths`` holds the ladder's suffix lengths, which never decrease;
    each group takes the next sizes while r sizes of the longest suffix
    among them fit r * rows <= BLOCK, and at least one. As
    r * lengths[first + r - 1] never decreases in r, a bisection finds each
    group's r.
    """
    groups = []
    while first < stop:
        fits = bisect_right(range(1, stop - first + 1), BLOCK,
                            key=lambda r: r * lengths[first + r - 1])
        last = first + max(1, fits)
        groups.append((first, last, lengths[last - 1]))
        first = last
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
