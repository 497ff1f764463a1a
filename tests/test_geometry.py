"""Pre-fractal construction: layout rules, bounds, invariants, self-similarity."""

import numpy as np
import pytest

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
