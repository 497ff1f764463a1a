"""Dimension/scale-factor duality for polyadic Cantor families.

A family member is described by the number of copies N and the scale
factor gamma, with similarity dimension

    D = ln(N) / ln(1/gamma),      0 < gamma < 1/N  =>  0 < D < 1.

The closed interval is used so that the two degenerate members are
first-class values: gamma = 0 is the void set Z (D = 0) and
gamma = 1/N is the unit segment U (D = 1).

The lacunarity bounds of the symmetric layout are scalar rules on
(N, gamma) as well and live here, so scalar callers never load numpy;
``geometry`` re-exports them.

The ``check_*`` functions are the argument gate: every public entry of the
package checks its arguments with them, so each type, range and cap rule is
written once.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from typing import NamedTuple

from .errors import DomainError

#: absolute tolerance of equality-style checks on dimensions, such as the dimension/scale round trip
ABS_TOL = 1e-12

#: largest arity: up to 2**53 every N is exact in binary64 and 1.0 / N correctly rounded
MAX_ARITY = 2**53


def check_index(value, what: str, low: int = 0, high: float = math.inf) -> int:
    """An integer (int or numpy integer, not bool) in [low, high] as an int."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if not low <= value <= high:
        shown = value if value.bit_length() < 64 else f"an integer of {value.bit_length()} bits"
        raise DomainError(f"{what} must lie in [{low}, {high}], got {shown}")
    return value


def check_real(value, what: str, low=-math.inf, high=math.inf, ends: str = "[]") -> float:
    """A real (int, float or numpy real, not bool) between low and high as a float.

    ``ends`` marks each end closed ("[", "]") or open ("(", ")"). NaN and an
    integer beyond binary64 are rejected.
    """
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"{what} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise DomainError(f"{what} does not fit in binary64") from None
    above = low <= value if ends[0] == "[" else low < value
    below = value <= high if ends[1] == "]" else value < high
    if not (above and below):  # NaN fails both
        raise DomainError(f"{what} must lie in {ends[0]}{low!r}, {high!r}{ends[1]}, got {value!r}")
    return value


def check_arity(n) -> int:
    """The copy count N, an integer in [2, MAX_ARITY] (N = 1 is degenerate)."""
    return check_index(n, "arity", 2, MAX_ARITY)


def check_dimension(d) -> float:
    """A dimension in [0, 1]."""
    return check_real(d, "dimension", 0, 1)


def check_scale(n: int, gamma) -> float:
    """A scale factor of the checked arity n in (0, 1/n), the open range construction uses."""
    return check_real(gamma, "gamma", 0, 1.0 / n, "()")


def dimension_from_scale(n: int, gamma: float) -> float:
    """Similarity dimension ln(n)/ln(1/gamma) of an n-adic Cantor fractal.

    Boundary values are exact: gamma = 0 (void set) gives 0.0 and
    gamma = 1/n (unit segment) gives 1.0. Comparisons against 1/n use the
    rounded binary64 bound and fail closed.
    """
    n = check_arity(n)
    gamma = check_real(gamma, "gamma", 0, 1.0 / n)
    if gamma == 0.0:
        return 0.0
    if gamma == 1.0 / n:
        return 1.0
    return math.log(n) / -math.log(gamma)


class ScaleResult(NamedTuple):
    """Scale factor with an underflow marker.

    ``underflow`` is set when the true value n**(-1/d) falls below the
    smallest normal binary64, ``sys.float_info.min``, and is reported as
    0.0: a subnormal gamma keeps too few significant bits to realize d.
    """

    gamma: float
    underflow: bool


def scale_from_dimension(n: int, d: float) -> ScaleResult:
    """Scale factor gamma = n**(-1/d) realizing dimension d in the n-adic family.

    Inverse of :func:`dimension_from_scale`: round-trips to ABS_TOL. d = 0
    returns the void scale 0.0 (no underflow flag: it is the true value)
    and d = 1 returns exactly 1/n.
    """
    n = check_arity(n)
    d = check_dimension(d)
    if d == 0.0:
        return ScaleResult(0.0, False)
    if d == 1.0:
        return ScaleResult(1.0 / n, False)
    gamma = math.exp(-math.log(n) / d)
    if gamma < sys.float_info.min:
        return ScaleResult(0.0, True)
    # exp can round one ulp above the binary64 bound for d a few ulps below 1
    return ScaleResult(min(gamma, 1.0 / n), False)


class LacunarityBounds(NamedTuple):
    eps_min: float
    eps_reg: float
    eps_max: float


def lacunarity_bounds(n: int, gamma: float) -> LacunarityBounds:
    """The (0, eps_reg, eps_max) lacunarity range for an (n, gamma) family.

    eps_reg = (1-n*gamma)/(n-1) makes every stage-1 gap equal; eps_max is
    (1-n*gamma)/(n-2) for even n and (1-n*gamma)/(n-3) for odd n, the point
    where the central wells join. Undefined for n in {2, 3} (no intra-block
    gaps to widen; the formulas divide by zero).
    """
    n = check_arity(n)
    if n < 4:
        raise DomainError(f"lacunarity bounds are undefined for n={n} (need n >= 4)")
    gamma = check_scale(n, gamma)
    free = 1.0 - n * gamma
    eps_reg = free / (n - 1)
    eps_max = free / (n - 2) if n % 2 == 0 else free / (n - 3)
    return LacunarityBounds(0.0, eps_reg, eps_max)

