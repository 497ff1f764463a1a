"""Exact parity of the numpy box-count kernel with the slow reference sweep.

The kernel picks a one-pass count from properties of the set and the box
size. Every case runs with the default block size and with blocks of 37
intervals (see BLOCKS), and each count must equal
``reference_kernel.box_count`` exactly.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_kernel import box_count as reference_count

from cantordim import (
    CantorParams,
    IntervalSet,
    box_count,
    construct_prefractal,
    lacunarity_bounds,
    scale_ladder,
)
from cantordim import _kernels_py as kernel
from cantordim.estimation import DELTA_FLOOR, SNAP_ETA
from cantordim.geometry import OVERLAP_TOL

# block size of the one-pass count: 37 puts block boundaries inside every set
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
    layout = kernel.set_layout(starts, ends)
    for delta in deltas:
        want = reference_count(starts, ends, delta, SNAP_ETA)
        got = kernel.box_count(starts, ends, delta, SNAP_ETA, layout)
        assert got == want, f"delta={delta!r}: kernel {got}, reference {want}"
        assert kernel.box_count(starts, ends, delta, SNAP_ETA) == want


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
    # just past the slack on either side, where the fast paths take over
    for width in (band - 2 * kernel.THIN_SLACK, band + 2 * kernel.THIN_SLACK):
        assert_counts_match(starts, starts + width, [delta])
    widths = np.array([nudged(band, int(u)) for u in np.arange(m) % 9 - 4])
    assert_counts_match(starts, starts + widths, [delta])


@pytest.mark.parametrize("delta", [0.01, 1 / 7, 1e-3])
def test_widths_just_under_the_band_at_boundaries(blocks, delta):
    # an interval a few ulps narrower than the snap band, ending just above a
    # boundary, can keep its lo cell while its midpoint rounds into the next
    # cell: the thin test's slack must send such sets to the general sweep
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
    # the second interval starts inside the first and ends before it does
    starts = np.array([0.1, 0.3 - OVERLAP_TOL / 2, 0.6])
    ends = np.array([0.3, 0.3 - OVERLAP_TOL / 4, 0.7])
    s = IntervalSet(starts, ends)
    assert not s._box_layout.ordered
    deltas = [1.0, 0.3, 0.1, 0.3 - OVERLAP_TOL / 3, 1e-6]
    assert_counts_match(s.starts, s.ends, deltas)
    for delta in deltas:
        assert box_count(s, delta) == reference_count(s.starts, s.ends, delta, SNAP_ETA)


def test_thin_intervals_with_starts_out_of_order(blocks):
    # equal ends, the second interval wider: its midpoint falls a cell lower,
    # so distinct midpoint cells would count a cell the sweep does not
    delta = 0.1
    snap = SNAP_ETA * delta
    end = 3 * delta + snap / 4
    starts, ends = np.array([end - snap / 10, end - snap]), np.array([end, end])
    assert not kernel.set_layout(starts, ends).ordered
    assert_counts_match(starts, ends, [delta])


def test_unsorted_and_nested_intervals(rng, blocks):
    # the sweep only counts cells above its running maximum, so an interval
    # nested in an earlier one adds nothing
    for _ in range(20):
        m = int(rng.integers(2, 60))
        pairs = np.sort(rng.uniform(0.0, 1.0, (m, 2)), axis=1)
        deltas = [1.0, *rng.uniform(1e-3, 0.5, 4)]
        assert_counts_match(pairs[:, 0], pairs[:, 1], deltas)


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
    deltas = [1.0, 0.5, 1e-3, DELTA_FLOOR, nudged(DELTA_FLOOR, 1), 2 * DELTA_FLOOR]
    for start, end in ((0.0, 1.0), (0.25, 0.5), (0.5 - 1e-14, 0.5 + 1e-14), (1 / 3, 2 / 3)):
        assert_counts_match([start], [end], deltas)


def test_box_sizes_at_one_and_near_the_floor(blocks):
    s = construct_prefractal(CantorParams(3, 0.2, 0.0, 5))
    deltas = [1.0, nudged(1.0, -1), DELTA_FLOOR, nudged(DELTA_FLOOR, 1), 1.7e-15, 1e-14]
    assert_counts_match(s.starts, s.ends, deltas)


def test_layout_is_computed_once_per_set():
    s = construct_prefractal(CantorParams(2, 1 / 3, 0.0, 6))
    assert s._box_layout is s._box_layout
    assert s._box_layout == kernel.set_layout(s.starts, s.ends)
    assert s._box_layout.ordered


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


@st.composite
def unsorted_end_sets(draw):
    """Grid-aligned sets with one end moved a few ulps below its predecessor's."""
    starts, ends, delta = draw(grid_sets())
    if len(ends) > 1:
        i = draw(st.integers(1, len(ends) - 1))
        lowered = nudged(float(ends[i - 1]), -draw(st.integers(1, 3)))
        if lowered > starts[i]:
            ends = ends.copy()
            ends[i] = lowered
    return starts, ends, delta


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.one_of(grid_sets(), constructed_sets(), unsorted_end_sets()),
    st.sampled_from(sorted(BLOCKS)),
    st.integers(-2, 2),
)
def test_property_counts_match_reference(case, block_name, delta_ulps):
    starts, ends, delta = case
    delta = min(max(nudged(delta, delta_ulps), DELTA_FLOOR), 1.0)
    with blocks_of(block_name):
        assert_counts_match(starts, ends, [delta])
