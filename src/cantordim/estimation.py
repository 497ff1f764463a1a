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

#: occupancy snap band as a fraction of the cell size: the kernel's, the only one it counts with
SNAP_ETA = _kernels_py.SNAP_ETA

#: the smallest box size, the kernel's: cells must be indexable in exact int64 arithmetic
DELTA_FLOOR = _kernels_py.DELTA_FLOOR

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
    return _kernels_py.box_counts(intervals._box_layout, (delta,))[0]


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
    counts = [box_count(intervals, d) for d in deltas]
    return DimensionEstimate(*_fit(deltas, counts), tuple(map(BoxCountSample, deltas, counts)))


def _fit(deltas: Sequence[float], counts: list[int]) -> tuple[float, float]:
    """(slope, its standard error) of ln(count) versus ln(1/delta) over 3 or more counted sizes.

    A mean is ``np.add.reduce`` over the length: the reduction of ``mean``
    and ``sum``, without their Python wrappers.
    """
    n = len(counts)
    if counts.count(counts[0]) == n:
        raise FitDegenerate(f"all {n} box counts equal {int(counts[0])}")
    x = np.log(1.0 / np.asarray(deltas))
    y = np.log(np.array(counts, dtype=np.float64))
    dx = x - np.add.reduce(x) / n
    sxx = np.add.reduce(dx * dx)
    y_mean = np.add.reduce(y) / n
    slope = float(np.add.reduce(dx * (y - y_mean)) / sxx)
    resid = y - (y_mean + slope * dx)
    stderr = float(math.sqrt((resid @ resid) / (n - 2) / sxx))
    return slope, stderr


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one operator result against the box-counting oracle.

    A verified result also keeps its fit: ``counts``, the box counts of its
    ladder, and ``stderr``, the standard error of ``d_hat``. ``samples``
    pairs the counts with the box sizes of the ladder. Only the counts are
    stored, about 36 bytes per box size against about 120 for a sample:
    stored samples raised the peak memory of perfbench's verify workload,
    which keeps its reports, by 10%.
    """

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
    counts: tuple[int, ...] = ()
    stderr: Optional[float] = None

    @property
    def samples(self) -> tuple[BoxCountSample, ...]:
        """The ladder's (box size, count) pairs; empty when the set was not counted."""
        if not self.counts:
            return ()
        return tuple(map(BoxCountSample, _verify_ladder(self.gamma_c, self.stage), self.counts))

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


def _verify_ladder(gamma: float, stage: int) -> list[float]:
    """The verifier's box sizes: 16 per level, coarsest level dropped."""
    return scale_ladder(gamma, stage, per_level=16, start_level=2)


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
    stages sharpen the estimate. The whole ladder is counted in one kernel
    call on the set's layout, and only the layout is kept while it counts.
    Results whose gamma_C is not constructible (underflow, degenerate Z/U,
    stage too deep, cap) are reported as unverifiable rather than failed. An unknown tag, invalid operands, a
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
        deltas = np.array(_verify_ladder(result.gamma, stage))
    except (CapExceeded, DomainError) as exc:
        return unverifiable(str(exc))
    layout = prefractal._box_layout
    del prefractal  # its endpoints are freed before the count takes its scratch
    counts = _kernels_py.box_counts(layout, deltas)
    d_hat, stderr = _fit(deltas, counts)
    err = abs(d_hat - result.d)
    status = "pass" if err <= tolerance * result.d else "fail"
    return VerificationReport(
        op_tag, d_a, d_b, n, stage, tolerance, result.d, result.gamma, status,
        d_hat=d_hat, abs_error=err, counts=tuple(counts), stderr=stderr,
    )
