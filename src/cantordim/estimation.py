"""Box-counting dimension estimation: the numerical oracle for the algebra.

Counts occupied cells of the anchored grid [k*delta, (k+1)*delta) and fits
ln(count) against ln(1/delta) by least squares. Occupancy means overlap of
positive measure: a cell an interval merely touches at an endpoint is not
occupied, and overlaps below a relative snap band (SNAP_ETA * delta) are
treated as touches. The snap absorbs float-level misalignment between
interval endpoints and cell boundaries - both incoherent ~ulp endpoint
noise and the coherent phase drift (position error / delta) that grids
near-resonant families show at fine scales - which would otherwise split
grid-aligned intervals across two cells and bias the fitted slope. It
scales with delta, so counts stay non-increasing in delta on nested grids,
and at 1e-6 of a cell it sits three orders below any genuine geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels_py
from .arith import OPERATORS, operator_row
from .core import check_index, check_real
from .errors import CapExceeded, DomainError, FitDegenerate
from .geometry import (
    CantorParams,
    IntervalSet,
    check_intervals,
    construct_prefractal,
    regular_epsilon,
)

#: occupancy snap band as a fraction of the cell size
SNAP_ETA = 1e-6

#: cells must be indexable in exact int64 arithmetic
DELTA_FLOOR = 1e-15

#: most box sizes in one ladder, and the largest per_level, start_level and stage
LADDER_CAP = 10_000


class BoxCountSample(NamedTuple):
    delta: float
    count: int


class DimensionEstimate(NamedTuple):
    d_hat: float
    stderr: float
    samples: tuple[BoxCountSample, ...]


def box_count(intervals: IntervalSet, delta: float) -> int:
    """Number of grid cells [k*delta, (k+1)*delta) meeting the set with positive measure."""
    check_intervals(intervals)
    delta = check_real(delta, "box size", DELTA_FLOOR, 1)
    return _kernels_py.box_count(
        intervals.starts, intervals.ends, delta, SNAP_ETA, intervals._box_layout
    )


def scale_ladder(
    gamma: float, stage: int, per_level: int = 1, start_level: int = 1
) -> list[float]:
    """Geometric box sizes gamma**(j/per_level) spanning the construction levels
    start_level..stage.

    per_level=1 gives the construction's natural scales. Larger values sample
    several phases of the log-periodic count oscillation per level, and
    start_level=2 drops the coarsest level, whose grid alignment is atypical;
    both choices stabilize the fitted slope on short ladders. Over LADDER_CAP
    sizes is a CapExceeded, a size below DELTA_FLOOR a DomainError.
    """
    gamma = check_real(gamma, "ladder gamma", 0, 1, "()")
    per_level = check_index(per_level, "per_level", 1, LADDER_CAP)
    start_level = check_index(start_level, "start_level", 1, LADDER_CAP)
    stage = check_index(stage, "stage", start_level, LADDER_CAP)
    if per_level * (stage - start_level) >= LADDER_CAP:
        raise CapExceeded(f"the ladder would exceed the cap of {LADDER_CAP} box sizes")
    if gamma**stage < DELTA_FLOOR:
        raise DomainError(f"the ladder ends at {gamma**stage!r}, below {DELTA_FLOOR}")
    return [
        gamma ** (j / per_level)
        for j in range(per_level * start_level, per_level * stage + 1)
    ]


def estimate_dimension(
    intervals: IntervalSet, deltas: Optional[Sequence[float]] = None
) -> DimensionEstimate:
    """Least-squares slope of ln(count) versus ln(1/delta).

    Without an explicit ladder the set must carry construction parameters;
    the default is gamma**k for k = 1..stage. At least 3 distinct box sizes
    are required, and a spread of two decades or more gives a stable fit.
    Over LADDER_CAP sizes is a CapExceeded.
    """
    check_intervals(intervals)
    if deltas is None:
        params = intervals.params
        if params is None:
            raise DomainError("no deltas given and the set carries no construction parameters")
        deltas = scale_ladder(params.gamma, params.stage)
    try:
        deltas = list(islice(deltas, LADDER_CAP + 1))
    except TypeError:
        raise DomainError(f"deltas must be a sequence of box sizes, got {deltas!r}") from None
    if len(deltas) > LADDER_CAP:
        raise CapExceeded(f"more than {LADDER_CAP} box sizes")
    deltas = [check_real(d, "box size", DELTA_FLOOR, 1) for d in deltas]
    if len(set(deltas)) < 3:
        raise DomainError("need at least 3 distinct box sizes")
    samples = tuple(BoxCountSample(d, box_count(intervals, d)) for d in deltas)
    counts = np.array([s.count for s in samples], dtype=np.float64)
    if (counts == counts[0]).all():
        raise FitDegenerate(f"all {len(counts)} box counts equal {int(counts[0])}")
    x = np.log(1.0 / np.array(deltas))
    y = np.log(counts)
    dx = x - x.mean()
    slope = float((dx * (y - y.mean())).sum() / (dx * dx).sum())
    resid = y - (y.mean() + slope * dx)
    dof = len(x) - 2
    stderr = float(math.sqrt((resid @ resid) / dof / (dx * dx).sum())) if dof > 0 else float("nan")
    return DimensionEstimate(slope, stderr, samples)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one operator result against the box-counting oracle."""

    op: str
    d_a: float
    d_b: float
    n: int
    stage: int
    tolerance: float
    d_c: float
    gamma_c: float
    status: str  # "pass" | "fail" | "unverifiable"
    d_hat: Optional[float] = None
    abs_error: Optional[float] = None
    reason: Optional[str] = None

    def __str__(self) -> str:
        head = (
            f"{self.op}(D_A={self.d_a:.12g}, D_B={self.d_b:.12g}) at n={self.n}: "
            f"D_C={self.d_c:.12g} gamma_C={self.gamma_c:.12g}"
        )
        if self.status == "unverifiable":
            return f"{head} -> UNVERIFIABLE ({self.reason})"
        return (
            f"{head} stage={self.stage} d_hat={self.d_hat:.12g} "
            f"|d_hat-D_C|={self.abs_error:.3g} tol={self.tolerance:.3g}*D_C "
            f"-> {self.status.upper()}"
        )


def verify_operator_geometrically(
    op_tag: str,
    d_a: float,
    d_b: float,
    n: int,
    stage: int = 6,
    tolerance: float = 0.05,
) -> VerificationReport:
    """Materialize gamma_C, build the stage-S set, box-count it, compare with D_C.

    Passes when |d_hat - D_C| <= tolerance * D_C. The fit runs over the
    scaling regime (16 box sizes per level, coarsest level dropped); deeper
    stages sharpen the estimate. Results whose gamma_C is not constructible
    (underflow, degenerate Z/U, stage too deep, cap) are reported as
    unverifiable rather than failed. An unknown tag, invalid operands, a
    stage that is not an integer >= 3 and a tolerance that is not a finite
    positive real raise.
    """
    operator_row(op_tag)
    stage = check_index(stage, "stage", 3)
    tolerance = check_real(tolerance, "tolerance", 0, math.inf, "()")
    result = OPERATORS[op_tag](d_a, d_b, n)

    def unverifiable(reason):
        return VerificationReport(
            op_tag, d_a, d_b, n, stage, tolerance, result.d, result.gamma, "unverifiable",
            reason=reason,
        )

    if result.underflow:
        return unverifiable("gamma_C underflows binary64")
    if not 0.0 < result.d < 1.0:
        return unverifiable("result is a degenerate member (Z or U), not constructible")
    try:
        params = CantorParams(n, result.gamma, regular_epsilon(n, result.gamma), stage)
        prefractal = construct_prefractal(params)
        estimate = estimate_dimension(
            prefractal, scale_ladder(result.gamma, stage, per_level=16, start_level=2)
        )
    except (CapExceeded, DomainError) as exc:
        return unverifiable(str(exc))
    err = abs(estimate.d_hat - result.d)
    status = "pass" if err <= tolerance * result.d else "fail"
    return VerificationReport(
        op_tag, d_a, d_b, n, stage, tolerance, result.d, result.gamma, status,
        d_hat=estimate.d_hat, abs_error=err,
    )
