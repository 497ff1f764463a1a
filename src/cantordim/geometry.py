"""Stage-S pre-fractal construction on the unit interval.

Stage 0 is the unit segment. Stage 1 replaces it by n copies scaled by
gamma, laid out symmetrically about 1/2:

* even n: n/2 copies packed to the left edge and n/2 mirrored on the right,
  consecutive copies within a block separated by the lacunarity parameter
  epsilon; the leftover central gap is 1 - n*gamma - (n-2)*epsilon.
* odd n: (n-1)/2 copies per block as above plus one copy exactly centered;
  the two gaps flanking the center each get (1 - n*gamma - (n-3)*epsilon)/2.

epsilon ranges from 0 (single widest central gap) through eps_reg (all
stage-1 gaps equal) to eps_max (central gap collapses to zero and the
center wells touch). For n = 2 and n = 3 there are no intra-block
adjacencies, epsilon is forced to 0 and the eps_reg/eps_max bounds do not
exist.

Deeper stages repeat the layout inside every copy. Interval starts are
evaluated in closed form from the base-n digit expansion of the interval
index, so rounding error does not accumulate across stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels_py
from .core import check_arity, check_index, check_real, check_scale
# the bounds are pure scalar math and live in core; re-exported here
from .core import LacunarityBounds, lacunarity_bounds  # noqa: F401
from .errors import CapExceeded, DomainError, InvariantError

#: overlap tolerance for "pairwise disjoint": a touching pair produced by the
#: eps_max degeneracy can land a few ulp on either side of an exact-zero gap
OVERLAP_TOL = 1e-12

#: gaps at or below this width count as degenerate (zero-width) touching
GAP_TOL = 1e-12

#: smallest admissible interval length gamma**S: below this the ~S*ulp(1)
#: absolute error of the digit-expansion positions swamps the geometry
RESOLUTION_FLOOR = 1e-13

DEFAULT_CAP = 10_000_000


def regular_epsilon(n: int, gamma: float) -> float:
    """eps_reg where it exists, else the forced 0.0 of the n in {2,3} layouts."""
    n = check_arity(n)
    gamma = check_scale(n, gamma)
    return lacunarity_bounds(n, gamma).eps_reg if n >= 4 else 0.0


def _validate_family(n: int, gamma: float, epsilon: float) -> tuple[int, float, float]:
    n = check_arity(n)
    gamma = check_scale(n, gamma)
    epsilon = check_real(epsilon, "epsilon", 0)
    if n < 4:
        if epsilon != 0.0:
            raise DomainError(f"epsilon plays no role for n={n} and must be 0, got {epsilon!r}")
    elif epsilon > (eps_max := lacunarity_bounds(n, gamma).eps_max):
        raise DomainError(
            f"epsilon beyond eps_max would make a gap negative: {epsilon!r} > {eps_max!r}"
        )
    return n, gamma, epsilon


@dataclass(frozen=True)
class CantorParams:
    """Full description of a constructible pre-fractal: (n, gamma, epsilon, stage)."""

    n: int
    gamma: float
    epsilon: float = 0.0
    stage: int = 0

    def __post_init__(self):
        n, gamma, epsilon = _validate_family(self.n, self.gamma, self.epsilon)
        stage = check_index(self.stage, "stage")
        for field, value in (("n", n), ("gamma", gamma), ("epsilon", epsilon), ("stage", stage)):
            object.__setattr__(self, field, value)


def check_params(value) -> CantorParams:
    """A CantorParams, or DomainError."""
    if not isinstance(value, CantorParams):
        raise DomainError(f"params must be CantorParams, got {type(value).__name__}")
    return value


def check_intervals(value) -> IntervalSet:
    """An IntervalSet, or DomainError."""
    if not isinstance(value, IntervalSet):
        raise DomainError(f"intervals must be an IntervalSet, got {type(value).__name__}")
    return value


def _endpoints(values, what: str) -> np.ndarray:
    """A contiguous float64 copy of an integer or real array-like, else an InvariantError.

    The copy keeps the checked values out of reach of the caller's array.
    """
    try:
        array = np.asarray(values)
    except ValueError:  # ragged nesting
        raise InvariantError(f"{what} must be a 1-d array of real numbers") from None
    if array.dtype.kind not in "iuf":
        raise InvariantError(f"{what} must hold real numbers, got dtype {array.dtype}")
    return np.array(array, dtype=np.float64, order="C")


class IntervalSet:
    """Closed subintervals of [0, 1], sorted by start and by end, pairwise disjoint.

    Backed by read-only float64 arrays ``starts``/``ends``, copies of the
    caller's; ``construct_prefractal`` hands over the arrays it has just
    built, which are checked and frozen without a copy. Disjointness is
    checked to OVERLAP_TOL so that the exact-touch degeneracy at eps_max
    (whose gap is a few ulp of rounding residue) is admitted while genuine
    overlaps are rejected. An interval nested in the one before it within
    that tolerance ends before it, so the sort by end rejects it. The
    box-count kernel relies on both sorts: with them it counts every set
    from its gaps alone, at every box size.
    """

    __slots__ = ("starts", "ends", "params", "_layout")

    def __init__(self, starts, ends, params: Optional[CantorParams] = None):
        self._adopt(_endpoints(starts, "starts"), _endpoints(ends, "ends"), params)

    @classmethod
    def _owning(cls, starts, ends, params: Optional[CantorParams] = None) -> IntervalSet:
        """A set over 1-d float64 arrays that no caller holds: checked and frozen, not copied."""
        intervals = cls.__new__(cls)
        intervals._adopt(starts, ends, params)
        return intervals

    def _adopt(self, starts, ends, params):
        self._check(starts, ends)
        if params is not None:
            check_params(params)
        starts.flags.writeable = False
        ends.flags.writeable = False
        self.starts = starts
        self.ends = ends
        self.params = params

    @staticmethod
    def _check(starts, ends):
        if starts.ndim != 1 or starts.shape != ends.shape:
            raise InvariantError("starts/ends must be 1-d arrays of equal length")
        if len(starts) == 0:
            return
        if not (np.isfinite(starts).all() and np.isfinite(ends).all()):
            raise InvariantError("interval endpoints must be finite")
        if starts[0] < 0.0 or ends[-1] > 1.0 or (starts >= ends).any():
            raise InvariantError("need 0 <= start < end <= 1 for every interval")
        if (starts[1:] < starts[:-1]).any() or (ends[1:] < ends[:-1]).any():
            raise InvariantError("intervals must be sorted by start and by end")
        if (starts[1:] - ends[:-1] < -OVERLAP_TOL).any():
            raise InvariantError(f"intervals overlap by more than {OVERLAP_TOL}")

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def _box_layout(self):
        """The box-count kernel's facts about this set, computed on first use.

        The set is immutable, so every box size reuses them.
        """
        try:
            return self._layout
        except AttributeError:
            self._layout = _kernels_py.set_layout(self.starts, self.ends)
            return self._layout

    def lengths(self) -> np.ndarray:
        return self.ends - self.starts

    def total_measure(self) -> float:
        return float(self.lengths().sum())

    def __repr__(self) -> str:
        return f"IntervalSet({len(self)} intervals, params={self.params!r})"


def stage_one_offsets(n: int, gamma: float, epsilon: float = 0.0) -> list[float]:
    """Left endpoints of the n <= DEFAULT_CAP stage-1 copies, ascending; first 0, last 1-gamma."""
    n, gamma, epsilon = _validate_family(n, gamma, epsilon)
    if n > DEFAULT_CAP:
        raise CapExceeded(f"n = {n} exceeds the cap of {DEFAULT_CAP} copies")
    step = gamma + epsilon
    m = n // 2 if n % 2 == 0 else (n - 1) // 2
    left = [i * step for i in range(m)]
    right = [1.0 - gamma - i * step for i in range(m - 1, -1, -1)]
    if n % 2 == 0:
        return left + right
    return left + [(1.0 - gamma) / 2.0] + right


def construct_prefractal(params: CantorParams, cap: int = DEFAULT_CAP) -> IntervalSet:
    """The stage-S interval set for the given parameters.

    Interval count is n**S (CapExceeded above ``cap``); every interval has
    length gamma**S. Positions come from the closed-form digit expansion, so
    stages are not constructed recursively and rounding does not compound.
    """
    check_params(params)
    cap = check_index(cap, "cap")
    # n >= 2, so a stage beyond the bit length of the cap is over it; n**stage is not formed
    count = params.n**params.stage if params.stage <= cap.bit_length() else float("inf")
    if count > cap:
        raise CapExceeded(f"n**stage = {count} exceeds the cap of {cap} intervals")
    width = 1.0
    for _ in range(params.stage):
        width *= params.gamma
    if params.stage > 0 and width < RESOLUTION_FLOOR:
        raise DomainError(
            f"gamma**stage = {width!r} is below the positional resolution floor "
            f"({RESOLUTION_FLOOR}); the stage is too deep for binary64 geometry"
        )
    offsets = np.asarray(stage_one_offsets(params.n, params.gamma, params.epsilon))
    starts = _kernels_py.prefractal_starts(offsets, params.gamma, params.stage)
    # the last end telescopes to 1 exactly in real arithmetic; clamp the ulp spill
    ends = np.minimum(starts + width, 1.0)
    return IntervalSet._owning(starts, ends, params)


def gap_widths(intervals: IntervalSet) -> np.ndarray:
    """Widths of the positive maximal gaps inside [0, 1], left to right.

    Boundary slack (before the first interval, after the last) is included
    when positive; gaps at or below GAP_TOL are degenerate touches and are
    dropped.
    """
    if len(check_intervals(intervals)) == 0:
        return np.array([1.0])
    inner = intervals.starts[1:] - intervals.ends[:-1]
    lead = intervals.starts[0]
    trail = 1.0 - intervals.ends[-1]
    gaps = np.concatenate(([lead], inner, [trail]))
    return gaps[gaps > GAP_TOL]
