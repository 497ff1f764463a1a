"""Dimension/scale duality: formulas, boundaries, round trips, the argument gate."""

import math

import numpy as np
import pytest

from cantordim import (
    ABS_TOL,
    DomainError,
    LacunarityBounds,
    ScaleResult,
    dimension_from_scale,
    lacunarity_bounds,
    scale_from_dimension,
)
from cantordim.core import MAX_ARITY, check_arity, check_index, check_real, check_scale

# independent 50-digit oracle values (mpmath), rounded to nearest binary64
LN5_LN10 = 0.6989700043360189
D_N2_G01 = 0.3010299956639812


class TestDimensionFromScale:
    def test_perfect_square_ratio(self):
        # 9 = 3**2, so ln3/ln9 = 1/2
        assert dimension_from_scale(3, 1 / 9) == pytest.approx(0.5, abs=1e-12)

    def test_unit_segment_boundary_exact(self):
        assert dimension_from_scale(2, 0.5) == 1.0
        assert dimension_from_scale(4, 0.25) == 1.0

    def test_void_exact(self):
        assert dimension_from_scale(7, 0.0) == 0.0

    def test_general_value(self):
        assert dimension_from_scale(5, 0.1) == pytest.approx(LN5_LN10, abs=1e-12)

    @pytest.mark.parametrize("gamma", [-0.1, 0.21, 0.5, float("nan")])
    def test_rejects_out_of_range_gamma(self, gamma):
        with pytest.raises(DomainError):
            dimension_from_scale(5, gamma)

    @pytest.mark.parametrize("n", [1, 0, -3, 2.5, True])
    def test_rejects_bad_arity(self, n):
        with pytest.raises(DomainError):
            dimension_from_scale(n, 0.1)

    def test_strictly_increasing_in_gamma(self, rng):
        for n in (2, 3, 5, 9):
            gammas = np.sort(rng.uniform(1e-6, 1.0 / n - 1e-6, size=200))
            gammas = gammas[np.diff(gammas, prepend=-1) > 1e-9]
            dims = [dimension_from_scale(n, g) for g in gammas]
            assert all(b > a for a, b in zip(dims, dims[1:]))


class TestScaleFromDimension:
    def test_inverse_of_square_ratio(self):
        gamma, underflow = scale_from_dimension(3, 0.5)
        assert not underflow
        assert gamma == pytest.approx(1 / 9, abs=1e-12)

    def test_unit_dimension_gives_exactly_gamma_max(self):
        assert scale_from_dimension(4, 1.0) == (0.25, False)
        assert scale_from_dimension(3, 1.0).gamma == 1.0 / 3.0

    def test_void(self):
        assert scale_from_dimension(6, 0.0) == (0.0, False)

    def test_decimal_example(self):
        # oracle: forward formula at gamma = 0.1 gives D = ln2/ln10
        gamma, _ = scale_from_dimension(2, 0.30102999566)
        assert gamma == pytest.approx(0.1, abs=1e-9)
        gamma, _ = scale_from_dimension(2, D_N2_G01)
        assert gamma == pytest.approx(0.1, abs=1e-12)

    def test_underflow_flagged_not_raised(self):
        # 2**-10000, and the subnormal 3**(-1/d) = 2.96e-309
        for n, d in ((2, 1e-4), (3, 0.0015464429213329952)):
            gamma, underflow = scale_from_dimension(n, d)
            assert gamma == 0.0
            assert underflow

    @pytest.mark.parametrize("d", [-0.01, 1.01, float("nan")])
    def test_rejects_out_of_range_dimension(self, d):
        with pytest.raises(DomainError):
            scale_from_dimension(3, d)

    def test_round_trip_across_arities(self, rng):
        for n in range(2, 13):
            for d in rng.uniform(0.01, 1.0, size=400):
                gamma, underflow = scale_from_dimension(n, d)
                assert not underflow
                assert dimension_from_scale(n, gamma) == pytest.approx(d, abs=1e-12)

    def test_round_trip_near_unit_boundary(self):
        # gammas here may round onto 1/n itself; the round trip must survive it
        for n in (2, 3, 5, 7):
            for d in (1.0 - 2**-52, 1.0 - 2**-50, 0.9999999999):
                gamma, _ = scale_from_dimension(n, d)
                assert gamma <= 1.0 / n
                assert dimension_from_scale(n, gamma) == pytest.approx(d, abs=1e-12)


class TestMemberInvariants:
    """A family member (n, gamma, d) is valid when each field passes its gate and d agrees
    with gamma to ABS_TOL; the scalar functions hold each rule."""

    def test_consistent_member(self):
        assert abs(dimension_from_scale(5, 0.1) - LN5_LN10) <= ABS_TOL
        assert scale_from_dimension(5, LN5_LN10) == (pytest.approx(0.1, abs=1e-12), False)

    def test_void_member(self):
        assert dimension_from_scale(2, 0.0) == 0.0
        assert scale_from_dimension(2, 0.0) == (0.0, False)

    def test_gamma_above_family_bound(self):
        with pytest.raises(DomainError, match="gamma"):
            dimension_from_scale(5, 0.25)

    def test_inconsistent_dimension_detected(self):
        assert abs(dimension_from_scale(3, 1 / 9) - 0.73) > ABS_TOL
        assert scale_from_dimension(3, 0.73).gamma != pytest.approx(1 / 9, abs=1e-12)

    @pytest.mark.parametrize("gamma", ["x", None, "0.3", True, 10**400])
    def test_gamma_that_is_not_a_real_is_rejected(self, gamma):
        with pytest.raises(DomainError, match="gamma"):
            dimension_from_scale(2, gamma)

    @pytest.mark.parametrize("d", ["x", None, b"0.5", False])
    def test_dimension_that_is_not_a_real_is_rejected(self, d):
        with pytest.raises(DomainError, match="dimension"):
            scale_from_dimension(4, d)

    def test_numpy_integer_arity_and_capped_arity(self):
        assert abs(dimension_from_scale(np.int64(5), 0.1) - LN5_LN10) <= ABS_TOL
        assert scale_from_dimension(np.int64(5), LN5_LN10).gamma == pytest.approx(0.1)
        for call in (dimension_from_scale, scale_from_dimension):
            with pytest.raises(DomainError, match="arity"):
                call(2**53 + 1, 0.0)

    def test_each_field_is_rejected_on_its_own(self):
        # the member (1, -0.5, 2.0) breaks the rule of every field
        with pytest.raises(DomainError, match="arity"):
            dimension_from_scale(1, 0.0)
        with pytest.raises(DomainError, match="gamma"):
            dimension_from_scale(2, -0.5)
        with pytest.raises(DomainError, match="dimension"):
            scale_from_dimension(2, 2.0)

    def test_members_built_either_way_are_consistent(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 10))
            d = float(rng.uniform(0.05, 1.0))
            gamma, underflow = scale_from_dimension(n, d)
            assert not underflow and abs(dimension_from_scale(n, gamma) - d) <= ABS_TOL
            g = float(rng.uniform(1e-6, 1.0 / n))
            assert scale_from_dimension(n, dimension_from_scale(n, g)).gamma == pytest.approx(g)


class TestGate:
    def test_index_accepts_numpy_integers_and_rejects_bools_and_floats(self):
        assert check_index(np.int64(7), "k") == 7 and type(check_index(np.uint8(7), "k")) is int
        for value in (True, np.bool_(False), 7.0, "7", None):
            with pytest.raises(DomainError, match="k must be an integer"):
                check_index(value, "k")

    def test_index_range(self):
        assert check_index(0, "k") == 0 and check_index(10**400, "k") == 10**400
        with pytest.raises(DomainError, match=r"k must lie in \[2, 5\], got 6"):
            check_index(6, "k", 2, 5)
        with pytest.raises(DomainError):
            check_index(-1, "k")
        # beyond the 4300 digits Python prints, the message gives the bit length
        with pytest.raises(DomainError, match="an integer of 16610 bits"):
            check_index(10**5000, "k", 0, 5)

    def test_arity_cap(self):
        assert check_arity(MAX_ARITY) == 2**53
        for n in (MAX_ARITY + 1, 10**400, 1):
            with pytest.raises(DomainError, match="arity"):
                check_arity(n)

    def test_real_accepts_numpy_reals_and_rejects_the_rest(self):
        assert check_real(np.float32(0.5), "x") == 0.5 and type(check_real(np.float64(1), "x")) is float
        assert check_real(3, "x") == 3.0 and check_real(-math.inf, "x") == -math.inf
        for value in (True, np.bool_(True), "0.5", b"0.5", None, 1j, [0.5]):
            with pytest.raises(DomainError, match="x must be a real number"):
                check_real(value, "x")

    @pytest.mark.parametrize("value", [10**400, -(10**400), math.nan, np.float64(math.nan)])
    def test_real_rejects_overflow_and_nan(self, value):
        with pytest.raises(DomainError):
            check_real(value, "x")

    def test_real_ends(self):
        assert check_real(0.0, "x", 0, 1) == 0.0 and check_real(1, "x", 0, 1) == 1.0
        with pytest.raises(DomainError, match=r"x must lie in \(0, 1\], got 0.0"):
            check_real(0.0, "x", 0, 1, "(]")
        with pytest.raises(DomainError, match=r"x must lie in \[0, 1\), got 1.0"):
            check_real(1.0, "x", 0, 1, "[)")

    def test_scale_is_open(self):
        # dimension_from_scale takes the closed [0, 1/n] and checks it itself
        for gamma in (0.0, 0.25, math.nextafter(0.25, 1)):
            with pytest.raises(DomainError, match=r"gamma must lie in \(0, 0.25\)"):
                check_scale(4, gamma)
        assert check_scale(4, math.nextafter(0.25, 0)) < 0.25
        with pytest.raises(DomainError, match=r"gamma must lie in \[0, 0.25\]"):
            dimension_from_scale(4, math.nextafter(0.25, 1))

    def test_records_keep_repr_equality_and_immutability(self):
        scale = scale_from_dimension(2, 1.0)
        assert repr(scale) == "ScaleResult(gamma=0.5, underflow=False)"
        assert scale == ScaleResult(0.5, False) and scale != ScaleResult(0.5, True)
        bounds = lacunarity_bounds(4, 0.125)
        assert repr(bounds) == (
            "LacunarityBounds(eps_min=0.0, eps_reg=0.16666666666666666, eps_max=0.25)")
        assert bounds == LacunarityBounds(0.0, 0.5 / 3, 0.25)
        assert bounds != LacunarityBounds(0.0, 0.1, 0.25)
        with pytest.raises(AttributeError):
            scale.gamma = 0.25
        with pytest.raises(AttributeError):
            bounds.eps_max = 0.0
