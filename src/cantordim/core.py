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
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError

#: absolute tolerance used for all equality-style checks in this package
ABS_TOL = 1e-12


def check_index(value, what: str) -> int:
    """Coerce an integral value (int, numpy integer) to int; bools are rejected."""
    if isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}")


def check_arity(n) -> int:
    """Validate the copy count N (integer, at least 2)."""
    n = check_index(n, "arity")
    if n < 2:
        raise DomainError(f"arity must be >= 2 (n=1 is degenerate), got {n}")
    return n


def check_dimension(d) -> float:
    d = float(d)
    if not 0.0 <= d <= 1.0 or math.isnan(d):
        raise DomainError(f"dimension must lie in [0, 1], got {d!r}")
    return d


def dimension_from_scale(n: int, gamma: float) -> float:
    """Similarity dimension ln(n)/ln(1/gamma) of an n-adic Cantor fractal.

    Boundary values are exact: gamma = 0 (void set) gives 0.0 and
    gamma = 1/n (unit segment) gives 1.0. Comparisons against 1/n use the
    rounded binary64 bound and fail closed.
    """
    check_arity(n)
    gamma = float(gamma)
    gmax = 1.0 / n
    if math.isnan(gamma) or gamma < 0.0 or gamma > gmax:
        raise DomainError(f"gamma must lie in [0, 1/{n}], got {gamma!r}")
    if gamma == 0.0:
        return 0.0
    if gamma == gmax:
        return 1.0
    return math.log(n) / -math.log(gamma)


class ScaleResult(NamedTuple):
    """Scale factor with an underflow marker.

    ``underflow`` is set when the true value n**(-1/d) falls below the
    smallest positive binary64 and is reported as 0.0.
    """

    gamma: float
    underflow: bool


def scale_from_dimension(n: int, d: float) -> ScaleResult:
    """Scale factor gamma = n**(-1/d) realizing dimension d in the n-adic family.

    Inverse of :func:`dimension_from_scale`: round-trips to ABS_TOL. d = 0
    returns the void scale 0.0 (no underflow flag: it is the true value)
    and d = 1 returns exactly 1/n.
    """
    check_arity(n)
    d = check_dimension(d)
    if d == 0.0:
        return ScaleResult(0.0, False)
    if d == 1.0:
        return ScaleResult(1.0 / n, False)
    gamma = math.exp(-math.log(n) / d)
    if gamma == 0.0:
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
    check_arity(n)
    if n < 4:
        raise DomainError(f"lacunarity bounds are undefined for n={n} (need n >= 4)")
    gamma = float(gamma)
    if math.isnan(gamma) or not 0.0 < gamma < 1.0 / n:
        raise DomainError(f"bounds require 0 < gamma < 1/{n}, got {gamma!r}")
    free = 1.0 - n * gamma
    eps_reg = free / (n - 1)
    eps_max = free / (n - 2) if n % 2 == 0 else free / (n - 3)
    return LacunarityBounds(0.0, eps_reg, eps_max)


@dataclass(frozen=True)
class FractalSpec:
    """An (N, gamma) family member together with its cached dimension.

    Plain record: instances built by hand may be inconsistent, which is what
    :func:`validate_spec` reports on. Use the factories for guaranteed-valid
    values.
    """

    n: int
    gamma: float
    d: float

    @classmethod
    def from_scale(cls, n: int, gamma: float) -> "FractalSpec":
        return cls(n, float(gamma), dimension_from_scale(n, gamma))

    @classmethod
    def from_dimension(cls, n: int, d: float) -> "FractalSpec":
        gamma, underflow = scale_from_dimension(n, d)
        if underflow:
            raise DomainError(f"gamma underflows binary64 for n={n}, d={d}")
        return cls(n, gamma, float(d))


class Violation(NamedTuple):
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(v.message for v in self.violations)


def validate_spec(spec: FractalSpec) -> ValidationReport:
    """Report every violated invariant of a FractalSpec (empty report = valid)."""
    found = []
    n_ok = isinstance(spec.n, int) and not isinstance(spec.n, bool) and spec.n >= 2
    if not n_ok:
        found.append(Violation("arity", f"arity must be an integer >= 2, got {spec.n!r}"))
    gamma = float(spec.gamma)
    d = float(spec.d)
    if math.isnan(gamma) or gamma < 0.0 or (n_ok and gamma > 1.0 / spec.n):
        bound = f"1/{spec.n}" if n_ok else "1/N"
        found.append(Violation("gamma_range", f"gamma must lie in [0, {bound}], got {gamma!r}"))
    if math.isnan(d) or not 0.0 <= d <= 1.0:
        found.append(Violation("dim_range", f"dimension must lie in [0, 1], got {d!r}"))
    elif n_ok and not (math.isnan(gamma) or gamma < 0.0 or gamma > 1.0 / spec.n):
        expected = dimension_from_scale(spec.n, gamma)
        if abs(expected - d) > ABS_TOL:
            found.append(
                Violation(
                    "d_gamma_mismatch",
                    f"d={d!r} disagrees with dimension_from_scale(n={spec.n}, "
                    f"gamma={gamma!r})={expected!r}",
                )
            )
    return ValidationReport(tuple(found))
