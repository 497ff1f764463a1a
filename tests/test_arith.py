"""Operator algebra: values, validity domains, laws, derivative, dual routes."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantordim import (
    DomainError,
    OpDomainError,
    add,
    check_gamma_consistency,
    d_dimension_d_scale,
    dimension_from_scale,
    div,
    int_pow,
    mul,
    scale_from_dimension,
    sub,
)

TOL = 1e-12

# independent 50-digit oracle values (mpmath)
D_N2_G01 = 0.3010299956639812       # ln2/ln10
DERIV_2_025 = 1.4426950408889634    # ln2/(0.25*ln^2 0.25)
DERIV_5_01 = 3.0355881589902496     # ln5/(0.1*ln^2 0.1); cross-checked below


def proper(rng, size, lo=0.01, hi=0.999):
    return rng.uniform(lo, hi, size=size)


class TestAdd:
    def test_unit_plus_unit(self):
        assert add(1.0, 1.0, 2).d == pytest.approx(0.5, abs=TOL)

    def test_self_sum_halves(self):
        assert add(0.6, 0.6, 3).d == pytest.approx(0.3, abs=TOL)

    def test_unit_identity_form(self, rng):
        for a in proper(rng, 200):
            assert add(a, 1.0, 2).d == pytest.approx(a / (1 + a), abs=TOL)

    def test_void_absorbs(self, rng):
        for a in proper(rng, 50):
            assert add(a, 0.0, 4) == add(0.0, a, 4)
            assert add(a, 0.0, 4).d == 0.0
        assert add(0.0, 0.0, 2).d == 0.0

    def test_gamma_route_example(self):
        # gamma_A = gamma_B = 0.1 at n=2, so gamma_C = 0.01 and D = ln2/ln100
        r = add(D_N2_G01, D_N2_G01, 2)
        assert r.d == pytest.approx(0.1505149978319906, abs=TOL)
        assert r.gamma == pytest.approx(0.01, abs=TOL)

    def test_no_identity_element(self, rng):
        # a (+) y < a for every proper a and any y: nothing restores a
        for a, y in zip(proper(rng, 300, lo=1e-6), rng.uniform(0, 1, 300)):
            assert add(a, y, 2).d < a

    def test_total_on_square(self, rng):
        for a, b in zip(proper(rng, 100), proper(rng, 100)):
            r = add(a, b, 5)
            assert 0.0 < r.d < 0.5 + TOL


class TestSub:
    def test_rational_example(self):
        r = sub(0.2, 0.5, 2)
        assert r.d == pytest.approx(1 / 3, abs=TOL)
        # compatibility: (a - b) + b = a
        assert add(r.d, 0.5, 2).d == pytest.approx(0.2, abs=TOL)

    def test_void_absorbs_both_sides(self, rng):
        for a in proper(rng, 50):
            assert sub(0.0, a, 2).d == 0.0
            assert sub(a, 0.0, 2).d == 0.0

    def test_rejects_condition_violation(self):
        with pytest.raises(OpDomainError) as err:
            sub(0.4, 0.5, 2)  # 0.4 >= 0.5/1.5
        assert "D_A < D_B/(1+D_B)" in str(err.value)
        assert err.value.op == "sub"
        assert err.value.operands == (0.4, 0.5)

    def test_rejects_self_subtraction(self, rng):
        for a in proper(rng, 100):
            with pytest.raises(OpDomainError):
                sub(a, a, 3)

    def test_boundary_fails_closed(self):
        b = 0.5
        bound = b / (1 + b)
        with pytest.raises(OpDomainError):
            sub(bound, b, 2)

    @pytest.mark.parametrize(
        "d_a, d_b",
        [
            (0.23928621252468846, 0.3145548515938451),
            (math.nextafter(5 * 2.0**-53 / (1 + 5 * 2.0**-53), 0.0), 5 * 2.0**-53),
        ],
    )
    def test_rounded_bound_above_the_exact_one_fails_closed(self, d_a, d_b):
        # d_a is one ulp below the rounded bound d_b/(1+d_b) but not below the
        # exact one; the closed form gives 1.0000000000000002 and 1.0416...
        with pytest.raises(OpDomainError):
            sub(d_a, d_b, 3)

    def test_one_ulp_inside_the_exact_bound_succeeds(self):
        r = sub(math.nextafter(0.23928621252468846, 0.0), 0.3145548515938451, 3)
        assert 0.9999999999999 < r.d <= 1.0

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        d_b=st.integers(1, 2**53).map(lambda k: k / 2**53),
        ulps=st.integers(-3, 3),
        n=st.integers(2, 9),
    )
    def test_property_boundary_ulps(self, d_b, ulps, n):
        # d_a a few ulps either side of the rounded bound: sub admits exactly the
        # pairs below both the rounded and the exact bound, every admitted pair
        # returns D_C <= 1, and every other pair raises OpDomainError
        rounded = d_b / (1.0 + d_b)
        d_a = rounded
        for _ in range(abs(ulps)):
            d_a = math.nextafter(d_a, math.copysign(math.inf, ulps))
        exact_b = Fraction(d_b)
        if d_a < rounded and Fraction(d_a) < exact_b / (1 + exact_b):
            r = sub(d_a, d_b, n)
            assert 0.0 < r.d <= 1.0
            assert 0.0 <= r.gamma <= 1.0 / n
        else:
            with pytest.raises(OpDomainError):
                sub(d_a, d_b, n)

    def test_gamma_is_quotient(self, rng):
        for _ in range(100):
            b = float(rng.uniform(0.1, 1.0))
            a = float(rng.uniform(0.05, 1.0)) * b / (1 + b) * 0.999
            if a <= 0.01:
                continue
            r = sub(a, b, 3)
            ga = scale_from_dimension(3, a).gamma
            gb = scale_from_dimension(3, b).gamma
            assert r.gamma == pytest.approx(ga / gb, rel=1e-12)


class TestMul:
    def test_plain_product(self):
        assert mul(0.5, 0.5, 2).d == 0.25

    def test_unit_element(self, rng):
        for a in proper(rng, 200):
            assert mul(a, 1.0, 2).d == a
            assert mul(1.0, a, 2).d == a

    def test_void_absorbs(self, rng):
        for a in proper(rng, 50):
            assert mul(a, 0.0, 2).d == 0.0
            assert mul(0.0, a, 2).d == 0.0


class TestDiv:
    def test_plain_quotient_with_gamma_route(self):
        r = div(0.25, 0.5, 2)
        assert r.d == pytest.approx(0.5, abs=TOL)
        # gamma_A = 2**-4, gamma_C = gamma_A**0.5 = 0.25
        assert r.gamma == pytest.approx(0.25, abs=TOL)

    def test_unit_divisor(self, rng):
        for a in proper(rng, 200):
            assert div(a, 1.0, 2).d == a

    def test_self_division_gives_unit_segment(self, rng):
        for a in proper(rng, 50):
            r = div(a, a, 3)
            assert r.d == 1.0
            assert r.gamma == 1.0 / 3.0

    def test_rejects_quotient_above_one(self):
        with pytest.raises(OpDomainError) as err:
            div(0.6, 0.5, 2)
        assert err.value.condition == "div_requires_da_le_db"

    @pytest.mark.parametrize("a,b", [(0.0, 0.5), (0.5, 0.0), (0.0, 0.0)])
    def test_rejects_zero_operands(self, a, b):
        with pytest.raises(OpDomainError):
            div(a, b, 2)

    def test_compatibility_with_mul(self, rng):
        for _ in range(200):
            b = float(rng.uniform(0.05, 1.0))
            a = float(rng.uniform(0.0, 1.0)) * b
            if a <= 0.01:
                continue
            assert mul(div(a, b, 2).d, b, 2).d == pytest.approx(a, abs=TOL)


class TestIntPow:
    def test_cube(self):
        assert int_pow(0.5, 3, 2).d == pytest.approx(0.125, abs=TOL)

    def test_first_power_is_identity(self):
        assert int_pow(0.7, 1, 5).d == 0.7

    def test_zeroth_power_is_unit_segment(self):
        r = int_pow(0.9, 0, 4)
        assert r.d == 1.0
        assert r.gamma == 0.25

    def test_zeroth_power_of_void_rejected(self):
        with pytest.raises(OpDomainError):
            int_pow(0.0, 0, 2)

    def test_void_powers(self):
        assert int_pow(0.0, 3, 2).d == 0.0

    def test_matches_mul_chain(self, rng):
        for a in proper(rng, 40, lo=0.3):
            for k in range(1, 9):
                chain = a
                for _ in range(k - 1):
                    chain = mul(chain, a, 3).d
                assert int_pow(a, k, 3).d == pytest.approx(chain, abs=TOL)

    @pytest.mark.parametrize("k", [-1, 2.5])
    def test_rejects_bad_exponent(self, k):
        with pytest.raises(DomainError):
            int_pow(0.5, k, 2)

    @pytest.mark.parametrize(
        "d_a, expected",
        [(0.5, (0.0, 0.0, True)), (1.0 - 2.0**-53, (0.0, 0.0, True)), (1.0, (1.0, 0.5, False))],
    )
    def test_exponent_beyond_binary64(self, d_a, expected):
        # 10**400 does not convert to a float; below 1 the exact power underflows
        r = int_pow(d_a, 10**400, 2)
        assert (r.d, r.gamma, r.underflow) == expected


class TestOpResultInvariant:
    def test_record_repr_equality_and_immutability(self):
        r = add(0.5, 0.5, 2)
        assert repr(r) == "OpResult(d=0.25, gamma=0.0625, underflow=False)"
        assert r == add(0.5, 0.5, 2) and r != mul(0.5, 0.6, 2)
        with pytest.raises(AttributeError):
            r.d = 0.5

    def test_gamma_in_context_realizes_d(self, rng):
        # whenever the underflow flag is clear, (n, gamma) reproduces d
        for _ in range(300):
            n = int(rng.integers(2, 9))
            a, b = rng.uniform(0.15, 1.0, size=2)
            results = [add(a, b, n), mul(a, b, n), div(min(a, b), max(a, b), n)]
            bound = 0.9 * a * b / (1 + b)
            if bound > 0.05:
                results.append(sub(bound, b, n))
            for r in results:
                assert not r.underflow
                assert dimension_from_scale(n, r.gamma) == pytest.approx(r.d, abs=TOL)

    def test_underflow_flag_set_for_tiny_results(self):
        for op, tag, d_a, d_b, n, d in (
            (mul, "mul", 0.01, 0.01, 8, 1e-4),  # gamma = 8**-10000
            # gamma = 3**(-1/d) = 2.96e-309 is subnormal: too few bits to realize d
            (sub, "sub", 0.0014746433533864456, 0.03176135791002077, 3, 0.0015464429213329952),
        ):
            r = op(d_a, d_b, n)
            assert r.underflow
            assert r.gamma == 0.0
            assert r.d == pytest.approx(d, abs=TOL)
            with pytest.raises(DomainError, match="underflows"):
                check_gamma_consistency(tag, d_a, d_b, n)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: int_pow(0.5, 2000, 3),
            lambda: mul(1e-200, 1e-200, 3),
            lambda: add(5e-324, 5e-324, 3),
        ],
        ids=["int_pow", "mul", "add"],
    )
    def test_result_rounding_to_zero_is_flagged(self, call):
        # positive operands: a D_C of 0 is an underflow, not the void set
        r = call()
        assert (r.d, r.gamma, r.underflow) == (0.0, 0.0, True)

    def test_void_operand_is_not_an_underflow(self):
        for r in (add(0.0, 0.5, 3), sub(0.5, 0.0, 3), mul(0.0, 0.5, 3), int_pow(0.0, 1, 3)):
            assert (r.d, r.gamma, r.underflow) == (0.0, 0.0, False)


def bits_to_float(bits):
    return float(np.array(bits, np.uint64).view(np.float64))


# positive binary64 values up to 1: hypothesis' float draws, and bit patterns, whose
# exponents are uniform, so half lie below 2**-511 and some are subnormal
POSITIVE = st.floats(5e-324, 1.0) | st.integers(1, 0x3FF0000000000000).map(bits_to_float)
EXACT_D = {
    "add": (add, lambda a, b: a * b / (a + b)),
    "sub": (sub, lambda a, b: a * b / (b - a)),
    "mul": (mul, lambda a, b: a * b),
    "div": (div, lambda a, b: a / b),
}


class TestExactness:
    @pytest.mark.parametrize("op", sorted(EXACT_D))
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(d_a=POSITIVE, d_b=POSITIVE)
    def test_d_is_the_exact_value_to_three_roundings(self, op, d_a, d_b):
        # three roundings of 2**-53 in the normal range, then at most half a
        # subnormal ulp (2**-1075) when D_C is subnormal; a D_C of 0 is flagged
        call, formula = EXACT_D[op]
        try:
            r = call(d_a, d_b, 3)
        except OpDomainError:
            return
        exact = formula(Fraction(d_a), Fraction(d_b))
        assert abs(Fraction(r.d) - exact) <= exact / 2**51 + Fraction(1, 2**1075)
        assert r.d > 0.0 or r.underflow

    @pytest.mark.parametrize(
        "call, d",
        [
            (lambda: add(1e-200, 1e-200, 3), 5e-201),
            (lambda: add(1e-160, 1e-160, 3), 5e-161),
            (lambda: sub(1e-200, 2e-200, 3), 2e-200),
        ],
        ids=["add 1e-200", "add 1e-160", "sub 1e-200"],
    )
    def test_operands_whose_product_underflows(self, call, d):
        assert call().d == d


class TestAlgebraicLaws:
    def test_commutativity_exact(self, rng):
        for a, b in zip(proper(rng, 300), proper(rng, 300)):
            assert add(a, b, 2).d == add(b, a, 2).d
            assert mul(a, b, 2).d == mul(b, a, 2).d

    def test_associativity(self, rng):
        for a, b, c in zip(proper(rng, 300), proper(rng, 300), proper(rng, 300)):
            assert add(a, add(b, c, 2).d, 2).d == pytest.approx(
                add(add(a, b, 2).d, c, 2).d, abs=TOL
            )
            assert mul(a, mul(b, c, 2).d, 2).d == pytest.approx(
                mul(mul(a, b, 2).d, c, 2).d, abs=TOL
            )

    def test_mul_distributes_over_add(self, rng):
        for a, b, c in zip(proper(rng, 300), proper(rng, 300), proper(rng, 300)):
            lhs = mul(a, add(b, c, 2).d, 2).d
            rhs = add(mul(a, b, 2).d, mul(a, c, 2).d, 2).d
            assert lhs == pytest.approx(rhs, abs=TOL)

    def test_mul_distributes_over_sub(self, rng):
        for _ in range(300):
            c = float(rng.uniform(0.1, 1.0))
            b = float(rng.uniform(0.1, 0.999)) * c / (1 + c)
            a = float(rng.uniform(0.05, 1.0))
            lhs = mul(a, sub(b, c, 2).d, 2).d
            rhs = sub(mul(a, b, 2).d, mul(a, c, 2).d, 2).d
            assert lhs == pytest.approx(rhs, abs=TOL)

    def test_sub_undoes_add(self, rng):
        # the compatible round trip: (a - b) + b = a on sub's domain
        for _ in range(300):
            b = float(rng.uniform(0.1, 1.0))
            a = float(rng.uniform(0.05, 0.999)) * b / (1 + b)
            if a <= 0.0:
                continue
            assert add(sub(a, b, 2).d, b, 2).d == pytest.approx(a, abs=TOL)

    def test_noncommutativity_witnesses(self):
        assert sub(0.2, 0.5, 2).d != pytest.approx(0.5, abs=1e-3)  # sub(0.5,0.2) invalid
        with pytest.raises(OpDomainError):
            sub(0.5, 0.2, 2)
        assert div(0.25, 0.5, 2).d == 0.5
        with pytest.raises(OpDomainError):
            div(0.5, 0.25, 2)


class TestDerivative:
    def test_closed_form_values(self):
        assert d_dimension_d_scale(2, 0.25) == pytest.approx(DERIV_2_025, abs=1e-12)
        assert d_dimension_d_scale(5, 0.1) == pytest.approx(DERIV_5_01, abs=1e-12)

    def test_positive_sign(self):
        assert d_dimension_d_scale(3, 1 / 9) > 0.0

    def test_matches_central_differences(self):
        for n in range(2, 11):
            top = 1.0 / n - 0.01
            for gamma in np.linspace(0.01, top, 17):
                h = 1e-7 * gamma
                x1, x2 = gamma + h, gamma - h
                fd = (dimension_from_scale(n, x1) - dimension_from_scale(n, x2)) / (x1 - x2)
                exact = d_dimension_d_scale(n, gamma)
                assert exact > 0.0
                assert abs(exact - fd) / fd <= 1e-6

    @pytest.mark.parametrize("gamma", [0.0, 0.5, -0.1])
    def test_rejects_boundaries(self, gamma):
        with pytest.raises(DomainError):
            d_dimension_d_scale(2, gamma)

    @pytest.mark.parametrize("gamma", [5e-324, 1e-320])
    def test_rejects_a_slope_beyond_binary64(self, gamma):
        with pytest.raises(DomainError, match="overflows binary64"):
            d_dimension_d_scale(2, gamma)

    def test_tiny_gamma_with_a_finite_slope(self):
        lg = math.log(1e-300)
        assert d_dimension_d_scale(2, 1e-300) == math.log(2) / (1e-300 * lg * lg) < math.inf


class TestGammaConsistency:
    def test_spec_spot_checks(self):
        assert check_gamma_consistency("add", 0.5, 0.5, 3) <= TOL
        assert check_gamma_consistency("mul", 0.3, 0.7, 4) <= TOL
        assert check_gamma_consistency("sub", 0.2, 0.5, 2) <= TOL

    def test_all_operators_random(self, rng):
        # operand ranges keep every literal gamma value representable
        for n in (2, 3, 5, 8):
            for _ in range(500):
                a, b = rng.uniform(0.15, 0.999, 2)
                assert check_gamma_consistency("add", a, b, n) <= TOL
                assert check_gamma_consistency("mul", a, b, n) <= TOL
                lo, hi = sorted((a, b))
                assert check_gamma_consistency("div", lo, hi, n) <= TOL
                a2 = 0.9 * lo * hi / (1 + hi)
                if a2 > 0.05:
                    assert check_gamma_consistency("sub", a2, hi, n) <= TOL

    def test_absorbing_void_consistent(self):
        assert check_gamma_consistency("add", 0.5, 0.0, 2) == 0.0
        assert check_gamma_consistency("mul", 0.3, 0.0, 2) == 0.0
        assert check_gamma_consistency("sub", 0.0, 0.7, 2) == 0.0

    def test_void_subtrahend_has_no_gamma_route(self):
        with pytest.raises(DomainError):
            check_gamma_consistency("sub", 0.5, 0.0, 2)

    def test_propagates_operator_domain_errors(self):
        with pytest.raises(OpDomainError):
            check_gamma_consistency("sub", 0.4, 0.5, 2)

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            check_gamma_consistency("pow", 0.5, 0.5, 2)
