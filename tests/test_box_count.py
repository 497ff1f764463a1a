"""Exact parity of the numpy box-count kernel with the slow reference sweep.

The kernel counts sets whose starts and ends are both sorted, as those of an
IntervalSet are, from their gap rows; whether a row tests its neighbours for
thinness depends on the set's shortest interval and the box size. Every case
runs with the default block size and with blocks of 37 cells (see BLOCKS),
and each count must equal ``reference_kernel.box_count`` exactly, one size
at a time (``box_count``) and as a whole ladder in one call (``box_counts``),
where sizes share blocks.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_kernel import box_count as reference_count

from cantordim import (
    CantorParams,
    IntervalSet,
    box_count,
    construct_prefractal,
    lacunarity_bounds,
    regular_epsilon,
    scale_ladder,
)
from cantordim import _kernels_py as kernel
from cantordim.errors import DomainError, InvariantError
from cantordim.estimation import DELTA_FLOOR, SNAP_ETA
from cantordim.geometry import OVERLAP_TOL

# cells (sizes x gap rows) per block of the count: 37 puts block boundaries
# inside every set and packs only a few sizes into a block
BLOCKS = {"default": kernel.BLOCK, "small": 37}


@contextmanager
def blocks_of(name):
    saved = kernel.BLOCK
    kernel.BLOCK = BLOCKS[name]
    try:
        yield
    finally:
        kernel.BLOCK = saved


@pytest.fixture(params=sorted(BLOCKS))
def blocks(request):
    with blocks_of(request.param):
        yield request.param


def assert_counts_match(starts, ends, deltas):
    starts = np.ascontiguousarray(starts, dtype=np.float64)
    ends = np.ascontiguousarray(ends, dtype=np.float64)
    # the kernel's precondition, which every IntervalSet meets
    assert (np.diff(starts) >= 0.0).all() and (np.diff(ends) >= 0.0).all()
    layout = kernel.set_layout(starts, ends)
    wants = []
    for delta in deltas:
        want = reference_count(starts, ends, delta, SNAP_ETA)
        got = kernel.box_counts(layout, (delta,))[0]
        assert got == want, f"delta={delta!r}: kernel {got}, reference {want}"
        assert kernel.box_count(starts, ends, delta, SNAP_ETA) == want
        wants.append(want)
    got = kernel.box_counts(layout, deltas)
    assert got == wants, [(d, g, w) for d, g, w in zip(deltas, got, wants) if g != w]


def nudged(x, steps):
    """x moved by ``steps`` ulps (down when negative)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
    return x


def epsilons(n, gamma):
    if n < 4:
        return [0.0]
    bounds = lacunarity_bounds(n, gamma)
    return [0.0, bounds.eps_reg, bounds.eps_max]


@pytest.mark.parametrize("n", range(2, 10))
def test_constructed_sets_at_each_lacunarity(n, blocks):
    for dim in (0.45, 0.85):
        gamma = n ** (-1.0 / dim)
        stage = max(1, int(math.log(3000) / math.log(n)))
        deltas = scale_ladder(gamma, stage, per_level=3) + [1.0, 0.3, 1e-3, gamma**stage / 3]
        for eps in epsilons(n, gamma):
            s = construct_prefractal(CantorParams(n, gamma, eps, stage))
            assert_counts_match(s.starts, s.ends, deltas)
            # the ladder of verify_operator_geometrically
            assert_counts_match(s.starts, s.ends, scale_ladder(gamma, stage, 16, start_level=2))


def test_random_sets(rng, blocks):
    for _ in range(20):
        m = int(rng.integers(1, 300))
        points = np.sort(rng.uniform(0.0, 1.0, 2 * m))
        deltas = [1.0, *rng.uniform(1e-4, 1.0, 6), *(10.0 ** -rng.uniform(4, 9, 2))]
        assert_counts_match(points[0::2], points[1::2], deltas)


@pytest.mark.parametrize("delta", [1.0, 0.5, 1 / 3, 0.1, 1 / 7, 0.0123, 1e-3])
def test_endpoints_on_cell_boundaries(rng, blocks, delta):
    snap = SNAP_ETA * delta
    cells = int(1.0 / delta)
    for _ in range(10):
        k = np.sort(rng.integers(0, cells + 1, size=40))
        shift = rng.choice([0.0, snap, -snap, 2 * snap], size=40)
        ulps = rng.integers(-3, 4, size=40)
        points = sorted(
            min(max(nudged(float(kk) * delta + float(sh), int(u)), 0.0), 1.0)
            for kk, sh, u in zip(k, shift, ulps)
        )
        starts, ends = np.array(points[0::2]), np.array(points[1::2])
        keep = ends > starts
        for dd in (delta, nudged(delta, 1), nudged(delta, -1)):
            if dd <= 1.0:
                assert_counts_match(starts[keep], ends[keep], [dd])


@pytest.mark.parametrize("delta", [0.5, 0.01, 3e-5])
def test_widths_at_the_thin_boundary(blocks, delta):
    band = 2 * SNAP_ETA * delta
    m = 200
    starts = (np.arange(m) + 0.3) / (m + 1)
    for ulps in (-4, -1, 0, 1, 4):
        width = nudged(band, ulps)
        assert_counts_match(starts, starts + width, [delta])
    # just past the slack on either side: thin at every row, then thin-free
    for width in (band - 2 * kernel.THIN_SLACK, band + 2 * kernel.THIN_SLACK):
        assert_counts_match(starts, starts + width, [delta])
    widths = np.array([nudged(band, int(u)) for u in np.arange(m) % 9 - 4])
    assert_counts_match(starts, starts + widths, [delta])


@pytest.mark.parametrize("delta", [0.01, 1 / 7, 1e-3])
def test_widths_just_under_the_band_at_boundaries(blocks, delta):
    # an interval a few ulps narrower than the snap band, ending just above a
    # boundary, can keep its lo cell while its midpoint rounds into the next
    # cell: the thin-free test's slack must leave such sets to the thin test
    snap = SNAP_ETA * delta
    band = 2 * snap
    for k in range(1, min(60, int(1 / delta))):
        inside = (k + 0.5) * delta
        for end_ulps in range(-3, 4):
            end = nudged(k * delta + snap, end_ulps)
            for width_ulps in (1, 2, 4):
                width = nudged(band, -width_ulps)
                assert_counts_match([end - width, inside], [end, inside + width], [delta])


def test_mixed_thin_and_wide_intervals(rng, blocks):
    for delta in (0.5, 0.05, 1e-3):
        band = 2 * SNAP_ETA * delta
        starts = np.sort(rng.uniform(0.0, 0.99, 300))
        starts = starts[np.diff(starts, prepend=-1.0) > 3 * band]
        widths = np.where(rng.random(len(starts)) < 0.5, band / 3, 3 * band)
        assert_counts_match(starts, starts + widths, [delta, delta / 7])


def test_ends_not_monotone_within_overlap_tol(blocks):
    # the second interval starts inside the first and ends before it does:
    # the overlap is within OVERLAP_TOL, but the ends are not sorted
    starts = np.array([0.1, 0.3 - OVERLAP_TOL / 2, 0.6])
    ends = np.array([0.3, 0.3 - OVERLAP_TOL / 4, 0.7])
    with pytest.raises(InvariantError, match="sorted by start and by end"):
        IntervalSet(starts, ends)
    # the same overlap with the ends in order is a set, and is counted as one
    ends[1] = 0.3 + OVERLAP_TOL / 4
    s = IntervalSet(starts, ends)
    deltas = [1.0, 0.3, 0.1, 0.3 - OVERLAP_TOL / 3, 1e-6]
    assert_counts_match(s.starts, s.ends, deltas)
    for delta in deltas:
        assert box_count(s, delta) == reference_count(s.starts, s.ends, delta, SNAP_ETA)


def test_runs_of_equal_ends_just_above_a_boundary(blocks):
    # many ends within the snap band of one cell boundary, and thin intervals
    # straddling the boundary
    delta = 0.125
    snap = SNAP_ETA * delta
    ends = np.repeat([3 * delta + snap / 2, 3 * delta + snap, 5 * delta + 1.5 * snap], 40)
    for length in (3 * snap, snap / 2, 0.01):
        assert_counts_match(np.maximum(ends - length, 0.0), ends, [delta])


def test_empty_and_single_interval(blocks):
    assert kernel.box_count(np.array([]), np.array([]), 0.5, SNAP_ETA) == 0
    empty = kernel.set_layout(np.array([]), np.array([]))
    assert kernel.box_counts(empty, [0.5, 1.0, 0.5]) == [0, 0, 0]
    assert kernel.box_counts(empty, []) == []
    one = kernel.set_layout(np.array([0.25]), np.array([0.5]))
    assert kernel.box_counts(one, []) == []
    deltas = [1.0, 0.5, 1e-3, DELTA_FLOOR, nudged(DELTA_FLOOR, 1), 2 * DELTA_FLOOR]
    for start, end in ((0.0, 1.0), (0.25, 0.5), (0.5 - 1e-14, 0.5 + 1e-14), (1 / 3, 2 / 3)):
        assert_counts_match([start], [end], deltas)


@pytest.mark.parametrize("eta", [0.45, 0.0])
def test_the_kernel_counts_at_snap_eta_only(eta):
    with pytest.raises(DomainError, match="SNAP_ETA"):
        kernel.box_count(np.array([0.25]), np.array([0.5]), 0.5, eta)


def test_the_sweep_at_another_eta_is_not_the_kernel_rule():
    # why eta is no parameter of the kernel: at eta = 0.45 both intervals overlap cell 2
    # ([0.25, 0.375)) by less than the snap, so the sweep leaves it empty, but their gap
    # is narrower than delta/2, where the gap suffix (proved for SNAP_ETA only) starts,
    # and a kernel that took that eta counted 6
    starts, ends = np.array([0.0, 0.33]), np.array([0.305, 0.75])
    assert reference_count(starts, ends, 0.125, 0.45) == 5
    assert reference_count(starts, ends, 0.125, SNAP_ETA) == 6
    assert_counts_match(starts, ends, [0.125])


def test_box_sizes_at_one_and_near_the_floor(blocks):
    s = construct_prefractal(CantorParams(3, 0.2, 0.0, 5))
    deltas = [1.0, nudged(1.0, -1), DELTA_FLOOR, nudged(DELTA_FLOOR, 1), 1.7e-15, 1e-14]
    assert_counts_match(s.starts, s.ends, deltas)


def test_ladders_in_any_order_with_repeats(rng, blocks):
    s = construct_prefractal(CantorParams(3, 0.2, 0.0, 6))
    ladder = scale_ladder(0.2, 6, per_level=16, start_level=2)
    shuffled = [float(d) for d in rng.permutation(ladder)]
    for deltas in (ladder[::-1], shuffled, ladder + ladder[::3], [ladder[5]] * 4):
        assert_counts_match(s.starts, s.ends, deltas)


def test_thin_and_thin_free_sizes_in_one_block(rng, blocks):
    # intervals 2e-7 wide are thin above delta = 0.1 and thin-free below it.
    # The thin ones straddle the boundaries of the coarse sizes, in cells no
    # wider interval occupies, and take their midpoint cells there; on some
    # 40 gap rows the whole ladder would fit one default block, but it splits
    # at its first thin-free size, so the thin sizes form a group of their own
    thin = np.arange(1, 7) * 0.125 - 1e-7
    wide = rng.uniform(0.88, 0.99, 40)
    starts = np.sort(np.concatenate([thin, wide]))
    starts = starts[np.diff(starts, prepend=-1.0) > 1e-3]
    widths = np.where(np.isin(starts, thin), 2e-7, 1e-3)
    deltas = [0.5, 0.25, 0.125] + [float(d) for d in np.geomspace(0.09, 0.005, 20)]
    thin_free = [widths.min() > 2 * SNAP_ETA * d + kernel.THIN_SLACK for d in deltas]
    assert thin_free == [False] * 3 + [True] * 20
    assert len(starts) * len(deltas) <= BLOCKS["default"]
    assert_counts_match(starts, starts + widths, deltas)


def test_ladder_restores_the_ufunc_buffer_size(monkeypatch):
    # a group of several sizes counts with numpy's ufunc buffer cut to its rows, in
    # multiples of 16 and at least 16; the caller's size must be back afterwards
    # (numpy >= 2.0 errstate restores it)
    s = construct_prefractal(CantorParams(3, 0.2, 0.0, 5))
    ladder = scale_ladder(0.2, 5, per_level=4)
    buffers = []

    def count_group(layout, grid, r, rows, *args):
        if r > 1:
            buffers.append((rows, np.getbufsize()))
        return count_group.__wrapped__(layout, grid, r, rows, *args)

    count_group.__wrapped__ = kernel._count_group
    monkeypatch.setattr(kernel, "_count_group", count_group)
    before = np.getbufsize()
    kernel.box_counts(s._box_layout, ladder)
    assert np.getbufsize() == before
    assert buffers and any(size != before for _, size in buffers)
    for rows, size in buffers:
        assert size % 16 == 0 and max(16, rows - 15) <= size <= max(16, rows), (rows, size)


def same_layout(a, b):
    """Whether two SetLayouts hold equal fields (arrays by value)."""
    return all(map(np.array_equal, a, b))


def test_layout_is_computed_once_per_set():
    s = construct_prefractal(CantorParams(2, 1 / 3, 0.0, 6))
    assert s._box_layout is s._box_layout
    assert same_layout(s._box_layout, kernel.set_layout(s.starts, s.ends))


def finest_thin_size(min_len):
    """The finest box size in [DELTA_FLOOR, 1] that needs the thin test, by bisection, or None."""
    def thin(bits):
        delta = float(np.int64(bits).view(np.float64))
        return not min_len > 2.0 * (SNAP_ETA * delta) + kernel.THIN_SLACK

    lo, hi = (int(np.float64(x).view(np.int64)) for x in (DELTA_FLOOR, 1.0))
    if not thin(hi):
        return None
    # positive floats order as their bit patterns
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if thin(mid) else (mid + 1, hi)
    return float(np.int64(lo).view(np.float64))


def suffix(layout, delta):
    return int(kernel._suffix_lengths(layout.keys, np.array([delta]))[0])


def gathered_layout(starts, ends, tail):
    """The SetLayout by plain fancy-index gathers of the gap rows, the sentinel appended.

    The thin-test columns keep their last ``tail`` rows.
    """
    widths = starts[1:] - ends[:-1]
    keys = np.clip((widths.view(np.int64) >> kernel.KEY_SHIFT) - kernel.KEY_BASE, 0, kernel.KEY_TOP)
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    rows = len(starts) - tail
    return kernel.SetLayout(
        float((ends - starts).min()),
        np.append(keys.astype(np.uint16)[order], np.uint16(kernel.KEY_TOP + 1)),
        np.append(starts[1:][order], starts[0]),
        np.append(ends[:-1][order], ends[-1]),
        np.append(starts[:-1][order], starts[-1])[rows:],
        np.append(ends[1:][order], ends[0])[rows:],
    )


def assert_layout_bits(starts, ends):
    got = kernel.set_layout(starts, ends)
    tail = len(got.before_start)
    want = gathered_layout(starts, ends, tail)
    assert got.min_len == want.min_len
    for field in kernel.SetLayout._fields[1:]:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    # the tail holds the suffix of the finest size that needs the thin test, and
    # not much more: none without such a size, and no more than the suffix of a
    # size 2**-19 finer
    finest = finest_thin_size(got.min_len)
    if finest is None:
        assert tail == 0
    else:
        assert suffix(got, finest) <= tail <= suffix(got, max(finest * (1 - 2.0**-19), DELTA_FLOOR))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 400), st.integers(0, 2**32 - 1), st.sampled_from([0, 3, 60]))
def test_layout_gathers_as_fancy_indexing(m, seed, ties):
    # random ordered sets, some gaps ulp-negative or equal in width, whose keys tie
    rng = np.random.default_rng(seed)
    points = np.sort(rng.uniform(0.0, 1.0, 2 * m))
    starts, ends = points[0::2].copy(), points[1::2].copy()
    touch = rng.choice(m, size=min(ties, m), replace=False)
    starts[touch[touch > 0]] = ends[touch[touch > 0] - 1] - rng.uniform(0, OVERLAP_TOL)
    assert_layout_bits(starts, ends)


@pytest.mark.parametrize("n, stage", [(5, 7), (2, 17), (7, 6)])
def test_layout_of_large_constructed_sets_gathers_as_fancy_indexing(n, stage):
    # 78,125, 131,072 and 117,649 intervals, as large as the benchmark's verify and documents sets
    gamma = n ** (-1.0 / 0.7)
    s = construct_prefractal(CantorParams(n, gamma, regular_epsilon(n, gamma), stage))
    assert len(s) >= 78_125
    assert_layout_bits(s.starts, s.ends)


@pytest.mark.parametrize("n, stage", [(2, 6), (5, 4), (7, 3)])
def test_a_set_with_no_thin_size_takes_18_bytes_per_interval(n, stage):
    # a key and two float64 columns per gap row, the sentinel's included, and no tail
    s = construct_prefractal(CantorParams(n, 1 / (n + 1), 0.0, stage))
    assert finest_thin_size(s._box_layout.min_len) is None
    assert len(s._box_layout.before_start) == len(s._box_layout.after_end) == 0
    assert sum(field.nbytes for field in s._box_layout[1:]) == 18 * len(s)


def test_a_thin_size_past_the_tail_is_a_domain_error():
    # 3e-6 wide intervals are thin-free at every size up to 1 but not at 2, so
    # the layout keeps no tail, and a count at 2 cannot run the thin test
    starts = np.array([0.1, 0.5])
    layout = kernel.set_layout(starts, starts + 3e-6)
    assert len(layout.before_start) == 0
    assert kernel.box_counts(layout, [1.0, 0.5]) == [1, 2]
    with pytest.raises(DomainError, match="box sizes must lie in"):
        kernel.box_counts(layout, [2.0, 0.5])


def test_a_thin_set_adds_16_bytes_per_tail_row():
    s = construct_prefractal(CantorParams(2, 0.2, 0.0, 10))
    layout = s._box_layout
    tail = len(layout.before_start)
    assert 0 < tail < len(s)
    assert sum(field.nbytes for field in layout[1:]) == 18 * len(s) + 16 * tail


# -- the width keys of gaps and of half box sizes


def key(width):
    """The width key, unclipped, from the binary64 pattern as a Python int."""
    return (int(np.float64(width).view(np.int64)) >> kernel.KEY_SHIFT) - kernel.KEY_BASE


# bit patterns of finite floats of either sign, many a few ulps from a binade edge
finite_bits = st.builds(
    lambda negative, exponent, mantissa: (negative << 63) | (exponent << 52) | mantissa,
    st.booleans(),
    st.integers(0, 2046),
    st.one_of(st.integers(0, 8), st.integers(2**52 - 9, 2**52 - 1), st.integers(0, 2**52 - 1)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(finite_bits, min_size=2, max_size=40))
def test_width_keys_never_decrease_with_the_width(bits):
    widths = np.sort(np.array(bits, dtype=np.uint64).view(np.float64))
    keys = kernel._width_keys(widths.copy())
    assert keys.dtype == np.uint16
    assert (np.diff(keys.astype(np.int64)) >= 0).all()
    assert keys.max() <= kernel.KEY_TOP


@pytest.mark.parametrize("width", [-5e-324, -(2.0**-53), -(2.0**-52), -4 * 2.0**-52, -0.0])
def test_ulp_negative_widths_key_to_zero(width):
    assert kernel._width_keys(np.array([width]))[0] == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(DELTA_FLOOR, 1.0))
@example(DELTA_FLOOR)
@example(1.0)
def test_half_box_sizes_key_unclipped(delta):
    # the suffix bound of box_counts needs key(delta/2) inside the clip range
    assert 1152 <= key(0.5 * delta) <= 52224
    assert kernel._width_keys(np.array([0.5 * delta]))[0] == key(0.5 * delta)


# -- every set is counted from its gaps of width >= delta/2


def wide_gaps(starts, ends, delta, thin_free=True):
    """How many gaps are at least delta/2 wide, in a set that is thin-free at delta or not."""
    s = IntervalSet(starts, ends)
    assert same_layout(s._box_layout, kernel.set_layout(s.starts, s.ends))
    assert (s._box_layout.min_len > 2 * SNAP_ETA * delta + kernel.THIN_SLACK) == thin_free
    return int((s.starts[1:] - s.ends[:-1] >= delta / 2).sum())


ONE_CELL_AT_A_POWER_OF_TWO = 0.125 / (1 - 2 * SNAP_ETA)


@pytest.mark.parametrize(
    "delta", [0.1, 1 / 7, 0.125, ONE_CELL_AT_A_POWER_OF_TWO, 1e-3, 1e-6, 2**-40, DELTA_FLOOR]
)
def test_gaps_ulps_from_the_thresholds(blocks, delta):
    # pairs of intervals around up to 30 boundaries k*delta, with a gap a few ulps
    # from delta*(1 - 2*SNAP_ETA) (one empty cell or none) or from delta/2; a power
    # of two as delta or as delta*(1 - 2*SNAP_ETA) puts the gaps that hold one
    # empty cell at the lower edge of a gap key, so a threshold too high misses them.
    # A thin neighbour, a few ulps under snap/3 or 2*snap wide, before the gap,
    # after it or on both sides, takes its midpoint cell; such widths are
    # representable at every delta only near 0
    snap = SNAP_ETA * delta
    wide = max(delta / 4, 20 * kernel.THIN_SLACK)  # wider than the snap band
    step = math.ceil(2 * wide / delta) + 2
    thin = [nudged(snap / 3, -2), nudged(2 * snap, -3)]
    widths = [(wide, wide)] + [pair for w in thin for pair in ((w, wide), (wide, w), (w, w))]
    for before, after in widths:
        thin_free = before == after == wide
        if delta >= 1e-9:
            first = 1
        elif thin_free:
            first = math.ceil(0.9 / delta)  # tiny cells near 1: coarse ulps
        else:
            first = step  # near 0, with room for a wide neighbour below the first cell
        cells = [k for k in range(first, first + 30 * step, step) if (k + 1) * delta + wide <= 1.0]
        for end_ulps in range(-3, 4):
            for start_ulps in range(-3, 4):
                for one_cell in (True, False):
                    starts, ends = [], []
                    for k in cells:
                        end = nudged(k * delta + snap, end_ulps)
                        start = (k + 1) * delta - snap if one_cell else end + delta / 2
                        start = nudged(start, start_ulps)
                        starts += [end - before, start]
                        ends += [end, start + after]
                    wide_gaps(starts, ends, delta, thin_free)
                    assert_counts_match(starts, ends, [delta, nudged(delta, 1)])


@pytest.mark.parametrize("n", range(4, 10))
def test_touching_gaps_of_eps_max_sets(blocks, n):
    negative = 0
    for dim in (0.5, 0.8, 0.95):
        gamma = n ** (-1.0 / dim)
        stage = max(1, int(math.log(3000) / math.log(n)))
        s = construct_prefractal(CantorParams(n, gamma, lacunarity_bounds(n, gamma).eps_max, stage))
        negative += int((s.starts[1:] - s.ends[:-1] < 0.0).sum())
        deltas = scale_ladder(gamma, stage, per_level=4) + [1.0, 1e-9, DELTA_FLOOR]
        assert_counts_match(s.starts, s.ends, deltas)
    assert negative > 0  # some touching gaps came out ulp-negative


def test_sets_of_one_and_two_intervals(rng, blocks):
    deltas = [1.0, nudged(1.0, -1), 0.5, 0.1, 1e-3, 1e-9, DELTA_FLOOR, nudged(DELTA_FLOOR, 1)]
    for _ in range(40):
        start, end = np.sort(rng.uniform(0.0, 1.0, 2))
        assert_counts_match([start], [end], deltas)
    for delta in deltas:
        snap = SNAP_ETA * delta
        width = max(delta / 4, 20 * kernel.THIN_SLACK)
        for gap in (delta / 2, delta * (1 - 2 * SNAP_ETA), delta, 3 * delta):
            if 2 * width + gap > 1.0:
                continue
            for _ in range(10):
                end = float(rng.uniform(width, 1.0 - gap - width))
                k = math.floor(end / delta)
                end = float(rng.choice([end, k * delta + snap, k * delta - snap]))
                start = end + nudged(gap, int(rng.integers(-3, 4)))
                if width <= end and start + width <= 1.0:
                    assert_counts_match([end - width, start], [end, start + width], [delta])


def test_wide_suffix_across_small_blocks(rng):
    with blocks_of("small"):
        for _ in range(10):
            points = np.sort(rng.uniform(0.0, 1.0, 1000))
            starts, ends = points[0::2], points[1::2]
            gaps = np.sort(starts[1:] - ends[:-1])
            for q in (0.2, 0.5, 0.8):
                delta = min(2 * float(gaps[int(q * len(gaps))]), 1.0)
                assert 2 * BLOCKS["small"] < wide_gaps(starts, ends, delta) < len(starts) - 1
                assert_counts_match(starts, ends, [delta, nudged(delta, -1), nudged(delta, 1)])


# -- each size visits only the gaps keyed at least as T(delta) <= B(delta)

U = Fraction(1, 2**53)
ALL_KEYS = np.arange(2**16, dtype=np.uint16)  # every width key, then the sentinel's


def proved_bound(delta):
    """B(delta) of the box_counts docstring, exactly: no narrower gap holds an empty cell."""
    return Fraction(delta) * (1 - 2 * Fraction(SNAP_ETA) * (1 + U)) - Fraction(9, 2) * U


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.floats(DELTA_FLOOR, 1.0))
@example(DELTA_FLOOR)
@example(1.0)
@example(1.7763710503686536e-15)  # about where the two terms of T(delta) cross
def test_suffix_bound_lies_below_the_proved_one(delta):
    bound = max(0.5 * delta, delta * (1.0 - 4.0 * SNAP_ETA) - 2.0**-50)  # T(delta)
    assert Fraction(bound) <= proved_bound(delta)
    assert 1152 <= key(bound) <= 53247
    # the kernel's suffix over a table of every key starts at key(T(delta))
    assert len(ALL_KEYS) - kernel._suffix_lengths(ALL_KEYS, np.array([delta]))[0] == key(bound)


def test_gaps_narrower_than_a_cell_are_not_visited(rng, blocks):
    # wide intervals whose gaps all lie between delta/2 and 0.99*delta at every
    # size: none can hold an empty cell, so each size's suffix is its sentinel alone
    deltas = [2.5e-4, 3e-4, 3.5e-4, 3.98e-4]
    m = 800
    gaps = rng.uniform(2e-4, 2.4e-4, m - 1)
    widths = rng.uniform(4e-4, 8e-4, m)
    starts = 0.01 + np.concatenate([[0.0], np.cumsum(widths[:-1] + gaps)])
    ends = starts + widths
    s = IntervalSet(starts, ends)
    computed = s.starts[1:] - s.ends[:-1]
    for delta in deltas:
        assert delta / 2 <= computed.min() and computed.max() <= 0.99 * delta
        assert wide_gaps(starts, ends, delta) == m - 1  # all at least delta/2 wide
    lengths = kernel._suffix_lengths(s._box_layout.keys, np.array(deltas))
    assert lengths.tolist() == [1] * len(deltas)
    assert_counts_match(s.starts, s.ends, deltas)


@st.composite
def grid_sets(draw):
    """Ordered sets whose endpoints sit on, or ulps from, one grid's boundaries."""
    delta = draw(st.sampled_from([1.0, 0.5, 0.25, 1 / 3, 0.1, 1 / 7, 0.01, 0.00123]))
    snap = SNAP_ETA * delta
    cells = int(1.0 / delta)
    offsets = st.sampled_from([0.0, snap, -snap, 2 * snap, 0.5 * delta])
    point = st.builds(
        lambda k, off, ulps: min(max(nudged(k * delta + off, ulps), 0.0), 1.0),
        st.integers(0, cells),
        offsets,
        st.integers(-3, 3),
    )
    points = sorted(draw(st.lists(point, min_size=2, max_size=60)))
    starts, ends = np.array(points[0::2]), np.array(points[1::2])
    n = min(len(starts), len(ends))
    starts, ends = starts[:n], ends[:n]
    widths = draw(st.sampled_from([None, snap / 3, 2 * snap, 3 * snap]))
    if widths is not None:
        ends = np.minimum(starts + widths, 1.0)
    keep = ends > starts
    return starts[keep], ends[keep], delta


@st.composite
def constructed_sets(draw):
    """Pre-fractals at any lacunarity, with a box size from their ladder or an extreme."""
    n = draw(st.integers(2, 9))
    gamma = n ** (-1.0 / draw(st.floats(0.3, 0.95)))
    eps = draw(st.sampled_from(epsilons(n, gamma)))
    stage = draw(st.integers(1, max(1, int(math.log(2000) / math.log(n)))))
    s = construct_prefractal(CantorParams(n, gamma, eps, stage))
    extremes = [1.0, 1e-9, 1e-14, DELTA_FLOOR]
    return s.starts, s.ends, draw(st.sampled_from(scale_ladder(gamma, stage, 3) + extremes))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.one_of(grid_sets(), constructed_sets()),
    st.sampled_from(sorted(BLOCKS)),
    st.integers(-2, 2),
)
def test_property_counts_match_reference(case, block_name, delta_ulps):
    starts, ends, delta = case
    delta = min(max(nudged(delta, delta_ulps), DELTA_FLOOR), 1.0)
    with blocks_of(block_name):
        assert_counts_match(starts, ends, [delta])


@st.composite
def sets_at_the_thin_threshold(draw):
    """Sets whose shortest interval, [0, w], lies a few ulps from the thin threshold of a size.

    The threshold is 2*fl(SNAP_ETA*delta) + THIN_SLACK, the width at and below
    which ``box_counts`` runs the thin test; the other intervals are wider,
    with gaps of every scale. The ladder holds delta, its neighbours, coarser
    and finer sizes, DELTA_FLOOR and the two sizes above it.
    """
    floor_sizes = [DELTA_FLOOR, nudged(DELTA_FLOOR, 1), nudged(DELTA_FLOOR, 2)]
    delta = draw(st.one_of(
        st.sampled_from(floor_sizes + [2 * DELTA_FLOOR, 1e-9, 1e-3, 0.5, 1.0]),
        st.floats(math.log10(DELTA_FLOOR), 0.0).map(lambda x: min(max(10.0**x, DELTA_FLOOR), 1.0)),
    ))
    width = nudged(2.0 * (SNAP_ETA * delta) + kernel.THIN_SLACK, draw(st.integers(-3, 3)))
    m = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.uniform(math.log10(width) + 1, -1, 2 * m)
    points = np.cumsum(rng.permutation(scales))
    points = 2 * width + points / points[-1] * (1 - 2 * width)
    starts, ends = points[0::2], points[1::2]
    keep = ends - starts > width
    starts, ends = np.append(0.0, starts[keep]), np.append(width, ends[keep])
    assert (ends - starts).min() == width
    ladder = [nudged(delta, u) for u in (-1, 0, 1)] + [delta * 10.0**k for k in (-3, -1, 1, 3)]
    ladder = [min(max(d, DELTA_FLOOR), 1.0) for d in ladder + floor_sizes + [1.0]]
    return starts, ends, ladder


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sets_at_the_thin_threshold(), st.sampled_from(sorted(BLOCKS)))
def test_property_shortest_interval_ulps_from_the_thin_threshold(case, block_name):
    starts, ends, ladder = case
    with blocks_of(block_name):
        assert_counts_match(starts, ends, ladder)
    layout = kernel.set_layout(starts, ends)
    for delta in ladder:
        if not layout.min_len > 2.0 * (SNAP_ETA * delta) + kernel.THIN_SLACK:
            assert suffix(layout, delta) <= len(layout.before_start), delta
    assert_layout_bits(starts, ends)


# -- the guard: one multiply finds a cell, the exact comparisons run where it may be off


@pytest.fixture
def exact_path(monkeypatch):
    """How many entries took the exact path, among how many in the calls that had any."""
    seen = {"flagged": 0, "entries": 0}
    exact_cells = kernel._exact_cells

    def spy(x, delta, flagged, out, below):
        seen["flagged"] += int(np.count_nonzero(flagged))
        seen["entries"] += flagged.size
        return exact_cells(x, delta, flagged, out, below)

    monkeypatch.setattr(kernel, "_exact_cells", spy)
    return seen


def near_boundaries(rng, delta, cells, size):
    """Sorted points on fl(k*delta), or snap either side, each 0-4 ulps off, in [0, 1]."""
    snap = SNAP_ETA * delta
    points = [
        min(max(nudged(float(k) * delta + float(off), int(u)), 0.0), 1.0)
        for k, off, u in zip(
            rng.choice(cells, size=size),
            rng.choice([0.0, snap, -snap], size=size),
            rng.integers(-4, 5, size=size),
        )
    ]
    points.sort()
    starts, ends = np.array(points[0::2]), np.array(points[1::2])
    keep = ends > starts
    return starts[keep], ends[keep]


GUARD_DELTAS = [DELTA_FLOOR, 1.0000001e-15, 2.0**-40, 1e-13, 1 / 3]


@pytest.mark.parametrize("delta", GUARD_DELTAS)
def test_endpoints_ulps_from_rounded_boundaries(rng, blocks, exact_path, delta):
    # a = fl(start + snap) or b = fl(end - snap) on fl(k*delta) or a few ulps
    # from it, near 0, in the middle and near 1, where fl(k*delta) is furthest
    # from k*delta: each such entry is flagged and takes the exact comparisons
    top = math.floor(1.0 / delta)
    cells = sorted({k for c in (0, top // 2, top) for k in range(c - 40, c + 41) if 0 <= k <= top})
    for _ in range(8):
        starts, ends = near_boundaries(rng, delta, cells, 80)
        sizes = [d for d in (delta, nudged(delta, 1), nudged(delta, -1)) if DELTA_FLOOR <= d <= 1]
        assert_counts_match(starts, ends, sizes)
    assert exact_path["flagged"] > 0


def test_every_entry_takes_the_exact_path_near_the_floor(rng, blocks, exact_path):
    # near DELTA_FLOOR the guard's bound passes half a cell, so no cell is
    # taken from the multiply alone
    s = construct_prefractal(CantorParams(3, 0.2, 0.0, 5))
    sizes = [DELTA_FLOOR, nudged(DELTA_FLOOR, 1), 1.7e-15]
    assert_counts_match(s.starts, s.ends, sizes)
    starts, ends = near_boundaries(rng, DELTA_FLOOR, list(range(0, 10**15, 10**13)), 200)
    assert_counts_match(starts, ends, sizes)
    assert exact_path["flagged"] == exact_path["entries"] > 0


@pytest.mark.parametrize("delta", [1.0, 0.1, 1e-3, 2.0**-40, 1e-13, DELTA_FLOOR])
def test_thin_rows_ending_inside_the_snap_band(blocks, exact_path, delta):
    # an interval ending below snap has b = end - snap < 0, so its quotient t
    # lies in (-1, 0), where q = -1 and the fraction fl(t + 1) rounds; it
    # reaches 1.0 when b is a few ulps of snap below 0, and that entry is flagged
    snap = SNAP_ETA * delta
    for end in (snap / 3, snap / 2, nudged(snap, -1), nudged(snap, -4)):
        for start in (0.0, end / 4):
            assert_counts_match([start, 0.25, 0.5, 0.75], [end, 0.35, 0.6, 0.85],
                                [delta, 0.5, 1e-3])
    assert exact_path["flagged"] > 0


def test_random_sizes_and_points_near_rounded_boundaries(rng, blocks):
    # a seeded parity probe: box sizes log-uniform down to the floor, endpoints
    # anywhere in [0, 1] on or ulps from fl(k*delta) or snap either side of it
    for _ in range(1000):
        delta = float(10.0 ** rng.uniform(math.log10(DELTA_FLOOR), 0.0))
        top = math.floor(1.0 / delta)
        cells = np.unique(rng.integers(0, top + 1, size=20))
        starts, ends = near_boundaries(rng, delta, cells, 40)
        assert_counts_match(starts, ends, [delta, min(3 * delta, 1.0)])
