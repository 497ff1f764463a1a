"""Operator algebra on fractal dimensions of a shared n-adic family.

Every binary operator is defined twice over: by a gamma-space construction
on the scale factors and by the closed D-space formula it induces.
``OPERATOR_TABLE`` writes both down once, one row per operator, with the
operator's domain predicate, its zero-operand rule and its errors. The four
scalar operators apply their rows through one function, the grid sheets of
``render`` read the formulas and predicates, and
:func:`check_gamma_consistency` recomputes a result along both routes.
The returned dimension is N-independent; the shared arity only materializes
gamma_C for the result.

Validity domains (checked with exact float comparisons, failing closed):
sub requires d_a < d_b/(1+d_b), the D-space image of gamma_A < gamma_B/N;
the scalar ``sub`` tests the rounded bound and the exact one.
div requires 0 < d_a <= d_b (equality is admitted and returns the unit
segment). The void set (d = 0) is absorbing for add, sub and mul.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Optional

from .core import (
    check_arity,
    check_dimension,
    check_index,
    check_scale,
    dimension_from_scale,
    scale_from_dimension,
)
from .errors import DomainError, OpDomainError


class OpResult(NamedTuple):
    """Result dimension plus its realization in the shared n-adic family.

    ``gamma`` is the scale factor of the result for the arity the operator
    was evaluated under. ``underflow`` marks results that binary64 cannot
    hold: gamma below the smallest normal binary64 (reported as 0.0 while
    d stays exact), or a d of positive operands that rounds to 0.0 (d and
    gamma both reported as 0.0; this is not the void set).
    """

    d: float
    gamma: float
    underflow: bool = False


class OperatorRow(NamedTuple):
    """One row of OPERATOR_TABLE.

    ``d`` and ``domain`` take positive operands, as floats or as numpy
    arrays; ``domain`` is the rounded predicate (None: total on (0,1]^2).
    ``gamma`` maps gamma_A, gamma_B and D_B to gamma_C. ``zero`` is None when
    the void set absorbs, else the (condition, message) a zero operand
    raises; ``off_domain`` is the (condition, message) of a pair outside the
    domain. ``exact`` is a further predicate on scalar operands only, which
    the grid never reads (see ``render.emit_operator_grid``). ``homogeneous``
    marks a ``d`` of degree 1, d(s*a, s*b) = s*d(a, b), which the scalar
    operators evaluate at operands scaled up by ``_LIFT`` where a*b
    underflows.
    """

    d: Callable
    domain: Optional[Callable]
    gamma: Callable
    zero: Optional[tuple[str, str]] = None
    off_domain: Optional[tuple[str, str]] = None
    exact: Optional[Callable] = None
    homogeneous: bool = False


#: 2**563 lifts every product of positive binary64 operands to a normal number: the least,
#: (2**-1074)**2 * 2**1126, is 2**-1022; operands up to 1 stay below 2**564
_LIFT = 2.0**563


def _below_exact_sub_bound(d_a: float, d_b: float) -> bool:
    """d_a < d_b/(1+d_b) in exact rational arithmetic on the binary64 values."""
    p, q = d_a.as_integer_ratio()
    r, s = d_b.as_integer_ratio()
    return p * (s + r) < r * q


OPERATOR_TABLE = {
    "add": OperatorRow(
        d=lambda a, b: a * b / (a + b),
        domain=None,
        gamma=lambda ga, gb, b: ga * gb,
        homogeneous=True,
    ),
    "sub": OperatorRow(
        d=lambda a, b: a * b / (b - a),
        domain=lambda a, b: a < b / (1.0 + b),
        gamma=lambda ga, gb, b: ga / gb,
        off_domain=(
            "sub_requires_da_lt_db_over_1p_db",
            "subtraction requires D_A < D_B/(1+D_B)",
        ),
        exact=_below_exact_sub_bound,
        homogeneous=True,
    ),
    "mul": OperatorRow(
        d=lambda a, b: a * b,
        domain=None,
        # the 1/D_B exponent goes to its gamma_A**inf = 0 limit at the absorbing D_B = 0
        gamma=lambda ga, gb, b: ga ** (1.0 / b) if b > 0.0 else 0.0,
    ),
    "div": OperatorRow(
        d=lambda a, b: a / b,
        domain=lambda a, b: a <= b,
        gamma=lambda ga, gb, b: ga**b,
        zero=("div_requires_nonzero_operands", "division requires D_A > 0 and D_B > 0"),
        off_domain=(
            "div_requires_da_le_db",
            "division requires D_A <= D_B (the quotient may not exceed 1)",
        ),
    ),
}


def operator_row(op_tag) -> OperatorRow:
    """The OPERATOR_TABLE row of a tag; any other value, unhashable ones too, is a DomainError."""
    if isinstance(op_tag, str) and op_tag in OPERATOR_TABLE:
        return OPERATOR_TABLE[op_tag]
    raise DomainError(f"unknown operator tag {op_tag!r}")


def _materialize(n: int, d: float) -> OpResult:
    """Realize the result d of positive operands; a d of 0.0 is an underflow."""
    if d == 0.0:
        return OpResult(0.0, 0.0, True)
    gamma, underflow = scale_from_dimension(n, d)
    return OpResult(d, gamma, underflow)


def _apply(tag: str, d_a: float, d_b: float, n: int) -> OpResult:
    """Check the operands, apply the zero-operand rule and the domain, then the D formula."""
    row = OPERATOR_TABLE[tag]
    n = check_arity(n)
    d_a = check_dimension(d_a)
    d_b = check_dimension(d_b)
    if d_a == 0.0 or d_b == 0.0:
        if row.zero is None:
            return OpResult(0.0, 0.0)
        raise OpDomainError(tag, (d_a, d_b), *row.zero)
    for inside in (row.domain, row.exact):
        if inside is not None and not inside(d_a, d_b):
            raise OpDomainError(tag, (d_a, d_b), *row.off_domain)
    if row.homogeneous and d_a * d_b < sys.float_info.min:
        # a*b would lose bits: scaling by a power of two is exact both ways
        return _materialize(n, row.d(d_a * _LIFT, d_b * _LIFT) / _LIFT)
    return _materialize(n, row.d(d_a, d_b))


def add(d_a: float, d_b: float, n: int) -> OpResult:
    """Harmonic-style sum: 1/D_C = 1/D_A + 1/D_B (gamma_C = gamma_A*gamma_B).

    Total on [0,1]^2; the void set absorbs (0 + anything = 0, including 0+0).
    """
    return _apply("add", d_a, d_b, n)


def sub(d_a: float, d_b: float, n: int) -> OpResult:
    """Inverse of add: 1/D_C = 1/D_A - 1/D_B (gamma_C = gamma_A/gamma_B).

    Consistent only for d_a < d_b/(1+d_b) (equivalently gamma_A < gamma_B/N,
    keeping gamma_C a proper scale factor); the void set absorbs on either
    side before the predicate applies. A pair must lie below the rounded
    bound and below the exact one: rounding the bound can lift it past an
    operand that is outside the domain, whose D_C would exceed 1. Below
    both, exactly d_a*d_b < d_b - d_a, so the rounded quotient is at most 1.
    """
    return _apply("sub", d_a, d_b, n)


def mul(d_a: float, d_b: float, n: int) -> OpResult:
    """Product of dimensions (gamma_C = gamma_A**(1/D_B)).

    Total on [0,1]^2; the unit segment is the identity, the void set absorbs.
    """
    return _apply("mul", d_a, d_b, n)


def div(d_a: float, d_b: float, n: int) -> OpResult:
    """Quotient of dimensions (gamma_C = gamma_A**D_B).

    Requires 0 < d_a <= d_b; d_a = d_b returns the unit segment. Zero
    operands are rejected: D_A/0 has no gamma-space meaning and 0/D_B is
    excluded with it by the 0 < d_a precondition.
    """
    return _apply("div", d_a, d_b, n)


def int_pow(d_a: float, k: int, n: int) -> OpResult:
    """k-th power of a dimension, k >= 0 (gamma_C = gamma_A**(1/D_A**(k-1))).

    k = 0 returns the unit segment, except for the void set whose zeroth
    power is rejected (its gamma-space definition is meaningless).
    """
    n = check_arity(n)
    d_a = check_dimension(d_a)
    k = check_index(k, "power exponent")
    if k == 0:
        if d_a == 0.0:
            raise OpDomainError(
                "pow",
                (d_a, 0),
                "pow_zero_of_void_undefined",
                "the zeroth power of the void set is undefined",
            )
        return OpResult(1.0, 1.0 / n)
    if d_a == 0.0:
        return OpResult(0.0, 0.0)
    # from k = 2**64 on, d_a**k is 0.0 for every binary64 d_a < 1 ((1 - 2**-53)**2**64
    # is exp(-2048)) and 1.0 for d_a = 1, so the cap keeps the value exact and spares
    # converting a k beyond binary64
    return _materialize(n, d_a ** min(k, 2**64))


def d_dimension_d_scale(n: int, gamma: float) -> float:
    """Derivative dD/dgamma = ln(n) / (gamma * ln^2(gamma)) on 0 < gamma < 1/n.

    Strictly positive: the dimension grows with the scale factor. Boundaries
    are excluded (the closed form blows up at 0 and the domain ends at 1/n),
    and so is a gamma so small that the slope overflows binary64.
    """
    n = check_arity(n)
    gamma = check_scale(n, gamma)
    lg = math.log(gamma)
    slope = math.log(n) / (gamma * lg * lg)
    if not math.isfinite(slope):
        raise DomainError(f"derivative overflows binary64 at gamma={gamma!r}")
    return slope


OPERATORS = {"add": add, "sub": sub, "mul": mul, "div": div}


def check_gamma_consistency(op_tag: str, d_a: float, d_b: float, n: int) -> float:
    """Absolute discrepancy between the D-route and the gamma-route of an operator.

    The gamma route materializes literal scale factors for both operands,
    applies the operator's gamma-space construction as plain float
    arithmetic, and reads the resulting dimension back; no log-space
    shortcut is taken, so the two routes share no intermediate values.
    """
    row = operator_row(op_tag)
    d_formula = _apply(op_tag, d_a, d_b, n).d

    ga, ga_under = scale_from_dimension(n, d_a)
    gb, gb_under = scale_from_dimension(n, d_b)
    if ga_under or gb_under:
        raise DomainError("operand gamma underflows binary64; gamma route unavailable")
    if op_tag == "sub" and gb == 0.0:
        raise DomainError("gamma route undefined for a void subtrahend (gamma_A/0)")
    gc = row.gamma(ga, gb, d_b)
    if gc < sys.float_info.min:  # zero or subnormal: too few bits to read D back
        if d_formula > 0.0:
            raise DomainError("result gamma underflows binary64; gamma route unavailable")
        d_gamma = 0.0
    else:
        # pow/divide can overshoot the 1/n bound by one ulp at the U boundary
        d_gamma = dimension_from_scale(n, min(gc, 1.0 / n))
    return abs(d_formula - d_gamma)
