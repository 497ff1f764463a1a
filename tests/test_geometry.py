"""Pre-fractal construction: layout rules, bounds, invariants, self-similarity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantordim import (
    CantorParams,
    CapExceeded,
    DomainError,
    InvariantError,
    IntervalSet,
    construct_prefractal,
    gap_widths,
    lacunarity_bounds,
    regular_epsilon,
    stage_one_offsets,
)
from cantordim import _kernels_py as kernel
from cantordim import arith
from cantordim.geometry import OVERLAP_TOL

TOL = 1e-12


class TestLacunarityBounds:
    def test_even_family(self):
        b = lacunarity_bounds(4, 0.2)
        assert b.eps_min == 0.0
        assert b.eps_reg == pytest.approx(0.2 / 3, abs=TOL)
        assert b.eps_max == pytest.approx(0.1, abs=TOL)

    def test_odd_family(self):
        b = lacunarity_bounds(5, 0.1)
        assert b.eps_reg == pytest.approx(0.125, abs=TOL)
        assert b.eps_max == pytest.approx(0.25, abs=TOL)

    def test_ordering_holds_everywhere(self, rng):
        for _ in range(200):
            n = int(rng.integers(4, 12))
            gamma = float(rng.uniform(1e-4, 1.0 / n - 1e-4))
            b = lacunarity_bounds(n, gamma)
            assert 0.0 == b.eps_min < b.eps_reg < b.eps_max

    @pytest.mark.parametrize("n", [2, 3])
    def test_undefined_for_small_arities(self, n):
        with pytest.raises(DomainError):
            lacunarity_bounds(n, 0.1)

    def test_rejects_gamma_at_family_bound(self):
        with pytest.raises(DomainError):
            lacunarity_bounds(4, 0.25)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("gamma", [0.9, 0.0, "0.3", None, True, float("nan")])
    def test_regular_epsilon_checks_gamma_for_every_arity(self, n, gamma):
        # n in {2, 3} forces eps = 0.0, but an invalid gamma still raises
        with pytest.raises(DomainError):
            regular_epsilon(n, gamma)
        assert regular_epsilon(n, 0.1) == (lacunarity_bounds(n, 0.1).eps_reg if n >= 4 else 0.0)


class TestStageOneOffsets:
    def test_even_at_eps_max_center_wells_touch(self):
        # eps_max computes to 0.1 up to one ulp of the 1 - n*gamma rounding
        eps_max = lacunarity_bounds(4, 0.2).eps_max
        assert eps_max == pytest.approx(0.1, abs=TOL)
        offs = stage_one_offsets(4, 0.2, eps_max)
        assert offs == pytest.approx([0.0, 0.3, 0.5, 0.8], abs=TOL)
        # central gap 1 - n*gamma - (n-2)*eps = 0: the two middle copies join
        assert offs[2] - (offs[1] + 0.2) == pytest.approx(0.0, abs=TOL)

    def test_odd_at_eps_zero_flanking_gaps(self):
        offs = stage_one_offsets(5, 0.1, 0.0)
        assert offs == pytest.approx([0.0, 0.1, 0.45, 0.8, 0.9], abs=TOL)
        # both large gaps surrounding the central well have width (1-n*gamma)/2
        assert offs[2] - (offs[1] + 0.1) == pytest.approx(0.25, abs=TOL)
        assert offs[3] - (offs[2] + 0.1) == pytest.approx(0.25, abs=TOL)

    def test_regular_epsilon_equalizes_gaps(self):
        offs = stage_one_offsets(4, 0.2, 1 / 15)
        gaps = [offs[i + 1] - offs[i] - 0.2 for i in range(3)]
        assert gaps == pytest.approx([1 / 15] * 3, abs=TOL)

    def test_sorted_with_pinned_endpoints(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 11))
            gamma = float(rng.uniform(1e-3, 1.0 / n - 1e-3))
            if n >= 4:
                eps = float(rng.uniform(0, 1)) * lacunarity_bounds(n, gamma).eps_max
            else:
                eps = 0.0
            offs = stage_one_offsets(n, gamma, eps)
            assert len(offs) == n
            assert offs[0] == 0.0
            assert offs[-1] == pytest.approx(1.0 - gamma, abs=TOL)
            assert all(b - a >= gamma - TOL for a, b in zip(offs, offs[1:]))

    def test_rejects_epsilon_beyond_max(self):
        eps_max = lacunarity_bounds(6, 0.1).eps_max
        with pytest.raises(DomainError):
            stage_one_offsets(6, 0.1, eps_max * 1.0000001)

    @pytest.mark.parametrize("n", [2, 3])
    def test_small_arities_force_zero_epsilon(self, n):
        assert len(stage_one_offsets(n, 0.2, 0.0)) == n
        with pytest.raises(DomainError):
            stage_one_offsets(n, 0.2, 0.01)

    def test_even_n_odd_n_gap_counts_at_eps_max(self):
        # at eps_max the surviving equal-width gaps number n-2 (even) / n-3 (odd)
        for n, expected in ((6, 4), (8, 6), (5, 2), (7, 4), (9, 6)):
            gamma = 0.5 / n
            eps_max = lacunarity_bounds(n, gamma).eps_max
            offs = stage_one_offsets(n, gamma, eps_max)
            gaps = [b - a - gamma for a, b in zip(offs, offs[1:])]
            positive = [g for g in gaps if g > TOL]
            assert len(positive) == expected
            assert positive == pytest.approx([eps_max] * expected, abs=TOL)


class TestConstruct:
    def test_classic_stage_one(self):
        s = construct_prefractal(CantorParams(2, 1 / 3, 0.0, 1))
        assert s.starts == pytest.approx([0.0, 2 / 3], abs=TOL)
        assert s.ends == pytest.approx([1 / 3, 1.0], abs=TOL)

    def test_classic_stage_two_hand_expansion(self):
        s = construct_prefractal(CantorParams(2, 1 / 3, 0.0, 2))
        assert s.starts == pytest.approx([0.0, 2 / 9, 2 / 3, 8 / 9], abs=TOL)
        assert s.lengths() == pytest.approx([1 / 9] * 4, abs=TOL)

    def test_stage_zero_is_initiator(self):
        s = construct_prefractal(CantorParams(5, 0.1, 0.125, 0))
        assert len(s) == 1
        assert (s.starts[0], s.ends[0]) == (0.0, 1.0)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            construct_prefractal(CantorParams(10, 0.05, 0.0, 8), cap=10**7)
        construct_prefractal(CantorParams(10, 0.05, 0.0, 3), cap=10**3)

    def test_resolution_floor(self):
        with pytest.raises(DomainError):
            construct_prefractal(CantorParams(2, 0.004, 0.0, 6))  # gamma**6 ~ 4e-15

    def test_invariants_fuzzed(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 9))
            gamma = float(rng.uniform(0.05, 1.0 / n - 1e-3))
            stage = int(rng.integers(0, 7))
            if n >= 4:
                eps = float(rng.uniform(0, 1)) * lacunarity_bounds(n, gamma).eps_max
            else:
                eps = 0.0
            s = construct_prefractal(CantorParams(n, gamma, eps, stage))
            width = gamma**stage
            assert len(s) == n**stage
            assert np.abs(s.lengths() - width).max() <= TOL
            assert (s.starts[1:] - s.ends[:-1] >= -TOL).all()
            assert s.total_measure() == pytest.approx((n * gamma) ** stage, abs=1e-9)
            mirror = 1.0 - s.ends[::-1]
            assert np.abs(s.starts - mirror).max() <= TOL

    def test_self_similarity_of_first_level(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 6))
            gamma = float(rng.uniform(0.08, 1.0 / n - 0.01))
            eps = lacunarity_bounds(n, gamma).eps_reg if n >= 4 else 0.0
            stage = 4
            parent = construct_prefractal(CantorParams(n, gamma, eps, stage))
            child = construct_prefractal(CantorParams(n, gamma, eps, stage + 1))
            offs = stage_one_offsets(n, gamma, eps)
            block = n**stage
            for i, o in enumerate(offs):
                rescaled = (child.starts[i * block : (i + 1) * block] - o) / gamma
                assert np.abs(rescaled - parent.starts).max() <= 1e-10

    def test_params_validation(self):
        with pytest.raises(DomainError):
            CantorParams(3, 1 / 3, 0.0, 1)  # gamma at the family bound
        with pytest.raises(DomainError):
            CantorParams(4, 0.2, -0.01, 1)
        with pytest.raises(DomainError):
            CantorParams(4, 0.2, 0.0, -1)
        with pytest.raises(DomainError):
            CantorParams(4, 0.0, 0.0, 1)


class TestGapWidths:
    def test_regular_stage_one(self):
        s = construct_prefractal(CantorParams(4, 0.2, 1 / 15, 1))
        assert gap_widths(s) == pytest.approx([1 / 15] * 3, abs=TOL)

    def test_highest_lacunarity_keeps_two_gaps(self):
        s = construct_prefractal(CantorParams(5, 0.1, 0.0, 1))
        assert gap_widths(s) == pytest.approx([0.25, 0.25], abs=TOL)

    def test_stage_zero_has_no_gaps(self):
        s = construct_prefractal(CantorParams(3, 0.2, 0.0, 0))
        assert len(gap_widths(s)) == 0

    def test_widest_gap_at_zero_epsilon(self, rng):
        # eps = 0 is the highest-lacunarity setting: its largest gap beats
        # every other valid epsilon's largest gap for the same family. The
        # single tie: n=5 at eps_max, where the two eps-gaps inherit exactly
        # the (1-n*gamma)/2 width of the eps=0 flanking gaps.
        for _ in range(40):
            n = int(rng.integers(4, 10))
            gamma = float(rng.uniform(0.02, 1.0 / n - 1e-3))
            eps_max = lacunarity_bounds(n, gamma).eps_max
            widest = gap_widths(construct_prefractal(CantorParams(n, gamma, 0.0, 1))).max()
            for u in (0.25, 0.5, 0.75, 1.0):
                s = construct_prefractal(CantorParams(n, gamma, u * eps_max, 1))
                if u == 1.0 and n == 5:
                    assert gap_widths(s).max() <= widest + TOL
                else:
                    assert gap_widths(s).max() < widest

    def test_sum_rule(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 10))
            gamma = float(rng.uniform(0.01, 1.0 / n - 1e-3))
            eps = (
                float(rng.uniform(0, 1)) * lacunarity_bounds(n, gamma).eps_max
                if n >= 4
                else 0.0
            )
            s = construct_prefractal(CantorParams(n, gamma, eps, 1))
            assert n * gamma + gap_widths(s).sum() == pytest.approx(1.0, abs=TOL)


class TestTouchTolerance:
    # 2*OVERLAP_TOL - OVERLAP_TOL is exact, and so is every difference below
    # (Sterbenz), so each overlap or gap is exactly the width named

    def test_overlap_of_the_tolerance_is_admitted(self):
        s = IntervalSet([0.0, OVERLAP_TOL], [2 * OVERLAP_TOL, 0.5])
        assert s.starts[1] - s.ends[0] == -OVERLAP_TOL

    def test_wider_overlap_is_rejected(self):
        with pytest.raises(InvariantError, match="overlap"):
            IntervalSet([0.0, np.nextafter(OVERLAP_TOL, 0.0)], [2 * OVERLAP_TOL, 0.5])

    def test_gap_of_the_tolerance_is_dropped(self):
        s = IntervalSet([0.0, 2 * OVERLAP_TOL], [OVERLAP_TOL, 1.0])
        assert s.starts[1] - s.ends[0] == OVERLAP_TOL
        assert len(gap_widths(s)) == 0

    def test_wider_gap_is_kept(self):
        start = np.nextafter(2 * OVERLAP_TOL, 1.0)
        s = IntervalSet([0.0, start], [OVERLAP_TOL, 1.0])
        assert gap_widths(s).tolist() == [start - OVERLAP_TOL]
        assert start - OVERLAP_TOL > OVERLAP_TOL


class TestIntervalSet:
    def test_rejects_unsorted(self):
        with pytest.raises(InvariantError):
            IntervalSet(np.array([0.5, 0.0]), np.array([0.6, 0.1]))

    def test_rejects_material_overlap(self):
        with pytest.raises(InvariantError):
            IntervalSet(np.array([0.0, 0.2]), np.array([0.3, 0.5]))

    def test_admits_exact_touch(self):
        s = IntervalSet(np.array([0.0, 0.3]), np.array([0.3, 0.5]))
        assert len(s) == 2

    def test_repr_counts_the_intervals(self):
        assert repr(IntervalSet([0.0], [0.5])) == "IntervalSet(1 intervals, params=None)"

    def test_arrays_are_frozen(self):
        s = IntervalSet(np.array([0.1]), np.array([0.2]))
        with pytest.raises(ValueError):
            s.starts[0] = 0.0
        # construct_prefractal's own arrays are frozen too, though not copied
        built = construct_prefractal(CantorParams(3, 0.2, 0.0, 3))
        for array in (built.starts, built.ends):
            with pytest.raises(ValueError):
                array[0] = 0.5

    def test_set_owns_its_arrays(self):
        # a write through the base of a view leaves the checked set unchanged
        full = np.array([0.1, 0.6])
        s = IntervalSet(full[:], np.array([0.2, 0.7]))
        full[1] = 0.3
        assert s.starts.tolist() == [0.1, 0.6]
        # and the caller's own array stays writeable, its writes unseen by the set
        a = np.array([0.1, 0.6])
        s = IntervalSet(a, np.array([0.2, 0.7]))
        a[0] = 0.05
        assert a[0] == 0.05
        assert s.starts.tolist() == [0.1, 0.6]


# -- construction pinned to the bytes of its per-stage form


def per_stage_construct(params):
    """Starts and ends as the per-stage digit expansion builds them, one level at a time."""
    offsets = np.asarray(stage_one_offsets(params.n, params.gamma, params.epsilon))
    starts, pw = np.zeros(1), 1.0
    for _ in range(params.stage):
        starts = (starts[:, None] + offsets * pw).ravel()
        pw *= params.gamma
    width = 1.0
    for _ in range(params.stage):
        width *= params.gamma
    return starts, np.minimum(starts + width, 1.0)


def bench_params():
    """The constructed sets that benchmarks/bench_boxcount.py times and counts."""
    for n, dim, eps_mode, stage in [
        (2, 0.63, None, 20), (4, 0.70, "reg", 10), (10, 0.55, "reg", 6), (5, 0.80, "max", 9),
        (2, 0.45, None, 15), (3, 0.60, None, 10), (4, 0.75, "reg", 8), (5, 0.90, "reg", 7),
        (7, 0.70, "reg", 6),
    ]:
        gamma = n ** (-1.0 / dim)
        eps = 0.0
        if eps_mode:
            bounds = lacunarity_bounds(n, gamma)
            eps = bounds.eps_reg if eps_mode == "reg" else bounds.eps_max
        yield CantorParams(n, gamma, eps, stage)
    # the verify rows: mul(0.8, 0.8) at the stages of each tier
    for n, stages in [(2, (10, 13, 15)), (3, (7, 9, 10)), (4, (6, 7, 8)), (5, (5, 6, 7))]:
        gamma = arith.mul(0.8, 0.8, n).gamma
        for stage in stages:
            yield CantorParams(n, gamma, regular_epsilon(n, gamma), stage)


@pytest.mark.parametrize("params", list(bench_params()), ids=repr)
def test_construction_keeps_the_bytes_of_the_per_stage_form(params):
    want_starts, want_ends = per_stage_construct(params)
    s = construct_prefractal(params)
    assert s.starts.tobytes() == want_starts.tobytes()
    assert s.ends.tobytes() == want_ends.tobytes()
    offsets = stage_one_offsets(params.n, params.gamma, params.epsilon)
    starts = kernel.prefractal_starts(np.array(offsets), params.gamma, params.stage)
    assert starts.tobytes() == want_starts.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-1.0, 1.0) | st.sampled_from([-0.0, np.nan, np.inf, -np.inf]), max_size=6),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
)
def test_prefractal_starts_keep_the_bytes_of_the_per_stage_form(offsets, stage, seed):
    gamma = float(np.random.default_rng(seed).uniform(0.0, 1.0))
    want, pw = np.zeros(1), 1.0
    with np.errstate(invalid="ignore"):  # inf - inf
        for _ in range(stage):
            want = (want[:, None] + np.array(offsets, dtype=np.float64) * pw).ravel()
            pw *= gamma
        got = kernel.prefractal_starts(offsets, gamma, stage)
    assert got.tobytes() == want.tobytes()


def ordered_check(starts, ends):
    """The message of the first broken set rule, the rules checked one by one; None if none is."""
    if len(starts) == 0:
        return None
    if not (np.isfinite(starts).all() and np.isfinite(ends).all()):
        return "interval endpoints must be finite"
    if starts[0] < 0.0 or ends[-1] > 1.0 or (starts >= ends).any():
        return "need 0 <= start < end <= 1 for every interval"
    if (starts[1:] < starts[:-1]).any() or (ends[1:] < ends[:-1]).any():
        return "intervals must be sorted by start and by end"
    if (starts[1:] - ends[:-1] < -OVERLAP_TOL).any():
        return f"intervals overlap by more than {OVERLAP_TOL}"
    return None


endpoint = st.one_of(
    st.floats(-0.1, 1.1),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.5 + OVERLAP_TOL, 0.5 - OVERLAP_TOL, 1e300,
                     np.nan, np.inf, -np.inf]),
)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(st.tuples(endpoint, endpoint), max_size=6), st.booleans())
def test_interval_checks_name_the_first_broken_rule(pairs, sort):
    # near-sets (sorted endpoints, ties, overlaps at the tolerance) and arbitrary arrays
    points = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    if sort:
        points = np.sort(points, axis=0)
    starts, ends = points[:, 0].copy(), points[:, 1].copy()
    want = ordered_check(starts, ends)
    if want is None:
        IntervalSet._check(starts, ends)
    else:
        with pytest.raises(InvariantError) as err:
            IntervalSet._check(starts, ends)
        assert str(err.value) == want
