"""The argument gate: every public entry fails closed on hostile arguments.

``test_every_public_entry_fails_closed`` walks ``cantordim.__all__``. Each
call keeps all arguments valid but one, which is drawn from a hostile
catalogue (bools, strings, None, signed zeros, subnormals, NaN, infinities,
an integer beyond binary64, numpy scalars) or lies 0-3 steps from one of the
parameter's bounds. The call must return a value that passes the entry's
invariants or raise a documented error. Parameters that take arrays or
library objects (interval sets, parameter records, box-size sequences) draw
from the same catalogue and from a list of wrong objects, malformed arrays
and edge cases (an empty set, a set of one interval) instead of bounds.
"""

import math
import numbers
import sys
import tracemalloc
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantordim
from cantordim import (
    CantorParams,
    CapExceeded,
    DimensionEstimate,
    DomainError,
    FitDegenerate,
    IntervalSet,
    InvariantError,
    OpResult,
    ParseError,
    ScaleResult,
    VerificationReport,
    construct_prefractal,
    dimension_from_scale,
)
from cantordim import serialize
from cantordim.core import MAX_ARITY, check_arity
from cantordim.estimation import DELTA_FLOOR, LADDER_CAP
from cantordim.geometry import DEFAULT_CAP, RESOLUTION_FLOOR

HOSTILE = [
    True, False, np.bool_(True), "0.5", "", None, b"1",
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    math.nan, math.inf, -math.inf, 10**400, -10**400,
    np.float64(0.25), np.float32(0.1), np.float64(math.nan), np.int64(3), np.uint8(2),
]


def near(*bounds):
    """Each bound and the values 1-3 steps from it: ints for an int bound, floats otherwise."""
    out = []
    for b in bounds:
        if isinstance(b, int):
            out += [b + k for k in range(-3, 4)] + [float(b)]
        else:
            up = down = b
            out.append(b)
            for _ in range(3):
                up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
                out += [up, down]
    return out


SET = construct_prefractal(CantorParams(3, 0.2, 0.0, 3))  # 27 intervals
# drawn for an interval-set parameter: two valid edge cases, then wrong objects
SETS = [
    IntervalSet([], []), IntervalSet([0.25], [0.5]), SET.params, SET.starts,
    (SET.starts, SET.ends), [SET],
]
# JSON that the decoder fails on with other errors than a syntax error: nesting past the
# recursion limit in an ignored field, and an integer past the digit limit of int()
HOSTILE_JSON = [
    '{"x": ' + "[" * 2000 + "]" * 2000 + ', "intervals": []}',
    '{"intervals": [[0, ' + "1" * (getattr(sys, "get_int_max_str_digits", int)() + 1) + "]]}",
]


def hostile_spans(fmt):
    """Exporter documents that cut the block parser's spans oddly, each longer than a span.

    A row longer than a span (spaces after its first field), a run of bare
    newlines between two rows, and row marks with no newline at all.
    """
    text = cantordim.export_intervals(SET, fmt)
    rows = text.index("[\n") + 2 if fmt == "json" else text.index("\n") + 1
    first_end = text.index("\n", rows) + 1
    tail = len(text) - len(serialize._LAYOUTS[fmt].tail)
    return [
        text[:rows] + text[rows:].replace(",", "," + " " * serialize._SCAN, 1),
        text[:first_end] + "\n" * (2 * serialize._SCAN) + text[first_end:],
        text[:rows] + "," * (serialize._SCAN + 1) + text[tail:],
    ]


HOSTILE_SPANS = {fmt: hostile_spans(fmt) for fmt in ("json", "csv")}

# drawn for a parameter-record parameter
PARAMS = [CantorParams(2, 0.3, 0.0, 0), SET, (3, 0.2, 0.0, 3), {"n": 3, "gamma": 0.2}]
# drawn for an endpoint array: valid ones, then malformed ones
ARRAYS = [
    [0], (0.25,), np.array([0.25]), [np.float32(0.25)], np.array([1], dtype=np.uint8), [],
    ["a"], ["0.25"], [[0.25]], [0.25, [0.5]], [10**400], [1 + 0j], [True], [None],
    np.array([0.25, 0.3]),
]
D_B = 0.6
SUB_BOUND = D_B / (1.0 + D_B)
ARITY = near(2, MAX_ARITY)
DIM = near(0.0, 1.0)


def op_result(r, a):
    n = check_arity(a["n"])
    if not (isinstance(r, OpResult) and 0.0 <= r.d <= 1.0 and 0.0 <= r.gamma <= 1.0 / n):
        return False
    if r.gamma > 0.0:
        return math.isclose(dimension_from_scale(n, r.gamma), r.d, abs_tol=1e-9)
    return r.d == 0.0 or r.underflow  # a positive D with gamma 0.0 is flagged


def unit_real(r, a):
    return type(r) is float and 0.0 <= r <= 1.0


def scale(r, a):
    return isinstance(r, ScaleResult) and 0.0 <= r.gamma <= 1.0 / check_arity(a["n"])


def round_trip(r, a):
    # a gamma below the smallest normal binary64 comes back flagged as underflow
    gamma = a["gamma"]
    if not isinstance(r, ScaleResult):
        return False
    if r.underflow:
        return r.gamma == 0.0 and gamma < sys.float_info.min
    return math.isclose(r.gamma, gamma, rel_tol=1e-9) or r.gamma == gamma == 0.0


def params(r, a):
    types = [type(v) for v in (r.n, r.gamma, r.epsilon, r.stage)]
    return types == [int, float, float, int] and 0.0 < r.gamma < 1.0 / r.n and r.epsilon >= 0.0


def offsets(r, a):
    return len(r) == check_arity(a["n"]) and r[0] == 0.0 and r == sorted(r) and r[-1] <= 1.0


def lacunarity(r, a):
    return r.eps_min == 0.0 <= r.eps_reg <= r.eps_max


def full_set(r, a):
    return isinstance(r, IntervalSet) and len(r) == 27


def built_set(r, a):
    p = r.params
    return isinstance(p, CantorParams) and len(r) == p.n**p.stage


def interval_set(r, a):
    return (
        isinstance(r, IntervalSet)
        and r.starts.dtype == r.ends.dtype == np.float64
        and (r.params is None or isinstance(r.params, CantorParams))
    )


def resolved_set(r, a):
    stage = a["stage"]
    return len(r) == 2**stage and r.lengths().min() >= RESOLUTION_FLOOR / 2


def count(r, a):
    low = 1 if len(a["intervals"]) else 0
    return type(r) is int and low <= r <= 1.0 / a["delta"] + 1


def estimate(r, a):
    return isinstance(r, DimensionEstimate) and math.isfinite(r.d_hat)


def ladder(r, a):
    in_range = all(DELTA_FLOOR <= x < 1.0 for x in r)
    return 1 <= len(r) <= LADDER_CAP and in_range and r == sorted(r, reverse=True)


def report(r, a):
    return isinstance(r, VerificationReport) and r.status in ("pass", "fail", "unverifiable")


def grid(r, a):
    sheet, text = r
    return sheet.values.shape == (sheet.resolution,) * 2 and text.startswith("da,db,dc\n")


def positive(r, a):
    return math.isfinite(r) and r > 0.0


def non_negative(r, a):
    return math.isfinite(r) and r >= 0.0


class Entry(NamedTuple):
    call: Callable
    valid: dict  # a valid argument for every parameter
    bounds: dict  # parameter -> values near its bounds; the catalogue is added to each
    check: Callable  # check(result, arguments): the entry's invariants hold
    errors: tuple = ()  # documented errors besides DomainError and CapExceeded


def _operator(name, domain_bound):
    return Entry(
        getattr(cantordim, name),
        dict(d_a=0.3, d_b=D_B, n=3),
        dict(d_a=DIM + near(domain_bound), d_b=DIM, n=ARITY),
        op_result,
    )


EPS_MAX = cantordim.lacunarity_bounds(5, 0.1).eps_max

ENTRIES = {
    "add": _operator("add", 1.0),
    "sub": _operator("sub", SUB_BOUND),
    "mul": _operator("mul", 1.0),
    "div": _operator("div", D_B),
    "int_pow": Entry(
        cantordim.int_pow, dict(d_a=0.3, k=3, n=3), dict(d_a=DIM, k=near(0), n=ARITY), op_result
    ),
    "d_dimension_d_scale": Entry(
        cantordim.d_dimension_d_scale, dict(n=3, gamma=0.1),
        dict(n=ARITY, gamma=near(0.0, 1 / 3)), positive,
    ),
    "check_gamma_consistency": Entry(
        cantordim.check_gamma_consistency, dict(op_tag="sub", d_a=0.3, d_b=D_B, n=3),
        dict(op_tag=["add", "pow", "Sub"], d_a=DIM + near(SUB_BOUND), d_b=DIM, n=ARITY),
        non_negative,
    ),
    "dimension_from_scale": Entry(
        cantordim.dimension_from_scale, dict(n=3, gamma=0.1),
        dict(n=ARITY, gamma=near(0.0, 1 / 3)), unit_real,
    ),
    "scale_from_dimension": Entry(
        cantordim.scale_from_dimension, dict(n=3, d=0.5), dict(n=ARITY, d=DIM), scale
    ),
    "dimension_from_scale[n=2]": Entry(  # 1/2 is exact: gamma = 0.5 is the unit segment
        cantordim.dimension_from_scale, dict(n=2, gamma=0.25), dict(gamma=near(0.0, 0.5)),
        unit_real,
    ),
    "scale_from_dimension[n=MAX_ARITY]": Entry(
        cantordim.scale_from_dimension, dict(n=MAX_ARITY, d=0.5), dict(d=DIM), scale
    ),
    "scale_from_dimension[round trip]": Entry(
        lambda n, gamma: cantordim.scale_from_dimension(n, dimension_from_scale(n, gamma)),
        dict(n=3, gamma=0.1), dict(n=ARITY, gamma=near(0.0, 1 / 3)), round_trip,
    ),
    "lacunarity_bounds": Entry(
        cantordim.lacunarity_bounds, dict(n=5, gamma=0.1),
        dict(n=near(4, MAX_ARITY), gamma=near(0.0, 1 / 5)), lacunarity,
    ),
    "CantorParams": Entry(
        CantorParams, dict(n=5, gamma=0.1, epsilon=0.05, stage=2),
        dict(n=ARITY, gamma=near(0.0, 1 / 5), epsilon=near(0.0, EPS_MAX), stage=near(0)),
        params,
    ),
    "regular_epsilon": Entry(
        cantordim.regular_epsilon, dict(n=5, gamma=0.1), dict(n=ARITY, gamma=near(0.0, 1 / 5)),
        non_negative,
    ),
    "regular_epsilon[n=3]": Entry(  # n = 2 and 3 force 0.0 but check gamma all the same
        cantordim.regular_epsilon, dict(n=3, gamma=0.1), dict(gamma=near(0.0, 1 / 3)),
        non_negative,
    ),
    "stage_one_offsets": Entry(
        cantordim.stage_one_offsets, dict(n=5, gamma=0.1, epsilon=0.05),
        dict(n=near(2, DEFAULT_CAP, MAX_ARITY), gamma=near(0.0, 1 / 5),
             epsilon=near(0.0, EPS_MAX)),
        offsets,
    ),
    "construct_prefractal": Entry(
        lambda cap: construct_prefractal(SET.params, cap), dict(cap=27), dict(cap=near(0, 27)),
        full_set,
    ),
    "construct_prefractal[params]": Entry(
        lambda params: construct_prefractal(params, 27), dict(params=SET.params),
        dict(params=PARAMS), built_set,
    ),
    "construct_prefractal[stage]": Entry(  # 0.01**7 is below RESOLUTION_FLOOR
        lambda stage: construct_prefractal(CantorParams(2, 0.01, 0.0, stage)), dict(stage=3),
        dict(stage=near(6, 7)), resolved_set,
    ),
    "box_count": Entry(
        cantordim.box_count, dict(intervals=SET, delta=0.1),
        dict(intervals=SETS, delta=near(0.0, DELTA_FLOOR, 1.0)), count,
    ),
    "estimate_dimension": Entry(  # the hostile value is the first box size of the ladder
        lambda first: cantordim.estimate_dimension(SET, [first, 0.04, 0.008, 0.0016]),
        dict(first=0.2), dict(first=near(0.0, DELTA_FLOOR, 1.0)), estimate,
        errors=(FitDegenerate,),
    ),
    "estimate_dimension[objects]": Entry(  # deltas=None: the default ladder of SET
        cantordim.estimate_dimension, dict(intervals=SET, deltas=None),
        dict(intervals=SETS, deltas=[
            0.5, [0.2, 0.04, 0.008], (0.2, 0.04, 0.008), np.array([0.2, 0.04, 0.008]),
            [0.2, 0.2, 0.2], [], [0.2, 0.04] * (LADDER_CAP // 2 + 1), {0.2: 1}, [[0.2]],
        ]),
        estimate, errors=(FitDegenerate,),
    ),
    "IntervalSet": Entry(
        IntervalSet, dict(starts=[0.25], ends=[0.5], params=None),
        dict(starts=ARRAYS, ends=ARRAYS, params=PARAMS), interval_set,
        errors=(InvariantError,),
    ),
    "gap_widths": Entry(
        cantordim.gap_widths, dict(intervals=SET), dict(intervals=SETS),
        lambda r, a: isinstance(r, np.ndarray) and (r > 0.0).all(),
    ),
    "scale_ladder": Entry(
        cantordim.scale_ladder, dict(gamma=0.2, stage=3, per_level=2, start_level=1),
        dict(gamma=near(0.0, 1.0), stage=near(1, LADDER_CAP), per_level=near(1, LADDER_CAP),
             start_level=near(1, 3)),
        ladder,
    ),
    "verify_operator_geometrically": Entry(
        cantordim.verify_operator_geometrically,
        dict(op_tag="mul", d_a=0.5, d_b=D_B, n=2, stage=4, tolerance=0.05),
        dict(op_tag=["div", "pow", ["mul"]], d_a=DIM, d_b=DIM, n=ARITY, stage=near(3),
             tolerance=near(0.0, math.inf)),
        report,
    ),
    "emit_operator_grid": Entry(
        cantordim.emit_operator_grid, dict(op_tag="add", resolution=3, n=2),
        # a resolution at the cap fills 10**7 cells, so only the side above it is drawn
        dict(op_tag=["div", "x"], resolution=near(2) + [3163, 3164], n=ARITY), grid,
    ),
    "render_stages_svg": Entry(
        lambda max_stage, cap: cantordim.render_stages_svg(SET.params, max_stage, cap),
        dict(max_stage=2, cap=9), dict(max_stage=near(0), cap=near(0, 9)),
        lambda r, a: r.startswith("<?xml"),
    ),
    "render_stages_svg[params]": Entry(
        lambda params: cantordim.render_stages_svg(params, 2, 9), dict(params=SET.params),
        dict(params=PARAMS), lambda r, a: r.startswith("<?xml"),
    ),
    "export_intervals": Entry(
        lambda format: cantordim.export_intervals(SET, format), dict(format="csv"),
        dict(format=["json", "JSON", "svg"]), lambda r, a: r.endswith("\n"),
    ),
    "export_intervals[intervals]": Entry(
        lambda intervals: cantordim.export_intervals(intervals, "json"), dict(intervals=SET),
        dict(intervals=SETS), lambda r, a: r.endswith("}\n"),
    ),
    "import_intervals": Entry(
        cantordim.import_intervals, dict(data=cantordim.export_intervals(SET), format="json"),
        dict(data=['{"intervals": []}', "start,end\n", b"\xff", b"start,end\n\xe9,1\n",
                   *HOSTILE_JSON, *HOSTILE_SPANS["json"]], format=["csv", "yaml"]),
        lambda r, a: isinstance(r, IntervalSet), errors=(ParseError, InvariantError),
    ),
}

# public callables that are not walked: result records, and entries without a scalar argument
UNWALKED = {
    "BoxCountSample", "DimensionEstimate", "GridSheet", "LacunarityBounds", "OpResult",
    "ScaleResult", "VerificationReport",
    "available_backends",  # takes no argument
}


def test_the_walk_covers_every_public_entry():
    def is_entry(value):
        error = isinstance(value, type) and issubclass(value, Exception)
        return callable(value) and not error

    public = {name for name in cantordim.__all__ if is_entry(getattr(cantordim, name))}
    walked = {name.split("[")[0] for name in ENTRIES}
    assert public == walked | UNWALKED
    assert not walked & UNWALKED


@pytest.mark.parametrize("name", sorted(ENTRIES))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_public_entry_fails_closed(name, data):
    entry = ENTRIES[name]
    param = data.draw(st.sampled_from(sorted(entry.bounds)), label="parameter")
    value = data.draw(st.sampled_from(HOSTILE + entry.bounds[param]), label="value")
    args = {**entry.valid, param: value}
    # OpDomainError is a DomainError
    allowed = (DomainError, CapExceeded, *entry.errors)
    try:
        result = entry.call(**args)
    except allowed:
        return
    assert entry.check(result, args), f"{name}({args!r}) returned {result!r}"
    kind = type(entry.valid[param])
    if kind in (int, float):
        # a number parameter accepts no bool, string, bytes, None, NaN or float for an int
        number = numbers.Integral if kind is int else numbers.Real
        accepted = isinstance(value, number) and not isinstance(value, bool) and value == value
        assert accepted, f"{name} accepted {param}={value!r}"


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_the_valid_arguments_pass_the_invariants(name):
    entry = ENTRIES[name]
    assert entry.check(entry.call(**entry.valid), entry.valid)


def outcome(parse, *args):
    """The bits and params of a parse, or the type and message of what it raises."""
    try:
        s = parse(*args)
    except (ParseError, InvariantError) as exc:
        return type(exc), str(exc)
    return s.starts.tobytes(), s.ends.tobytes(), s.params


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", range(3), ids=["long row", "bare newlines", "no newline"])
def test_hostile_spans_read_as_the_present_path(fmt, case):
    text = HOSTILE_SPANS[fmt][case]
    present = serialize._parse_json if fmt == "json" else serialize._parse_csv
    want = outcome(present, text)
    assert outcome(cantordim.import_intervals, text, fmt) == want
    assert outcome(cantordim.import_intervals, text.encode(), fmt) == want


@pytest.mark.parametrize(
    "fmt, case", [("json", 0), ("json", 1), ("json", 2), ("csv", 0), ("csv", 1), ("csv", 2)]
)
@pytest.mark.parametrize("kind", [str, bytes])
def test_hostile_spans_take_memory_in_proportion(fmt, case, kind):
    # a span of commas (or, in CSV, of spaces) is all marks; they are counted before
    # their 8-byte offsets are built, and each comma of a line is counted, not split
    text = HOSTILE_SPANS[fmt][case]
    data = text if kind is str else text.encode()
    present = serialize._parse_json if fmt == "json" else serialize._parse_csv
    want = outcome(present, text)
    tracemalloc.start()
    try:
        got = outcome(cantordim.import_intervals, data, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 5 * len(text)


PROBES = {  # each once returned a value or raised a generic error
    'sub("0.1", 0.5, 2)': lambda: cantordim.sub("0.1", 0.5, 2),
    'CantorParams(2, "0.3", 0, 1)': lambda: CantorParams(2, "0.3", 0, 1),
    'lacunarity_bounds(4, "0.1")': lambda: cantordim.lacunarity_bounds(4, "0.1"),
    'd_dimension_d_scale(2, "0.25")': lambda: cantordim.d_dimension_d_scale(2, "0.25"),
    "box_count(s, True)": lambda: cantordim.box_count(SET, True),
    "dimension_from_scale(10**400, 0.0)": lambda: dimension_from_scale(10**400, 0.0),
    "scale_ladder(0.5, 3.5)": lambda: cantordim.scale_ladder(0.5, 3.5),
    "add(.5, .5, 10**400)": lambda: cantordim.add(0.5, 0.5, 10**400),
    'construct_prefractal(p, cap="x")': lambda: construct_prefractal(SET.params, cap="x"),
    "scale_ladder(0.5, 3, per_level=10**7)": lambda: cantordim.scale_ladder(0.5, 3, 10**7),
    "scale_ladder(0.5, 10**400)": lambda: cantordim.scale_ladder(0.5, 10**400),
    "scale_ladder(1e-300, 3)": lambda: cantordim.scale_ladder(1e-300, 3),
    "construct_prefractal(CantorParams(2, 0.3, 0, 10**400))":
        lambda: construct_prefractal(CantorParams(2, 0.3, 0, 10**400)),
    "import_intervals(None)": lambda: cantordim.import_intervals(None),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_fails_closed(probe):
    with pytest.raises((DomainError, CapExceeded)):
        PROBES[probe]()


# an arity over DEFAULT_CAP is valid for the gate, so only the copy cap stops these
OVER_THE_COPY_CAP = {
    "stage_one_offsets(10**8, 1e-9)": lambda: cantordim.stage_one_offsets(10**8, 1e-9),
    "construct_prefractal(CantorParams(10**8, 1e-9, 0.0, 0))":
        lambda: construct_prefractal(CantorParams(10**8, 1e-9, 0.0, 0)),
    "render_stages_svg(CantorParams(10**8, 1e-9), 0)":
        lambda: cantordim.render_stages_svg(CantorParams(10**8, 1e-9), 0),
}


@pytest.mark.parametrize("probe", sorted(OVER_THE_COPY_CAP))
def test_the_copy_cap_raises_before_the_offsets_are_built(probe):
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=f"exceeds the cap of {DEFAULT_CAP} copies"):
            OVER_THE_COPY_CAP[probe]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16  # the 10**8 offsets would take gigabytes as a list
