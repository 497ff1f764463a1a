#!/usr/bin/env python3
"""Time construction, box counting, the fit and verification; write BENCH_boxcount.json.

Four layers, each case timed in worker processes of every tree:

- construct: ``construct_prefractal`` of the ordered million-interval sets;
- box count: the million-interval ladders (4 box sizes per level) and the
  verify ladder (16 sizes per level, coarsest level dropped, as
  ``verify_operator_geometrically`` uses) on sets as large as the verifier's
  largest tier, each through the kernel's ``box_counts``. A ladder's time
  includes the per-set layout the kernel computes once, and the layout's
  size is reported per set. One more row times a single public
  ``box_count`` call, the middle size of the natural ladder, on the
  117,649-interval set of the benchmark's documents workload (layout
  computed untimed);
- fit: ``estimate_dimension``, one ``box_count`` per size, on the verify
  ladder of the four verify-sized sets and on the natural ladder of the
  documents set, each call on a fresh set (made untimed), so that it builds
  the layout too;
- verify: ``verify_operator_geometrically`` (``mul``) at the stage of each
  tier of the benchmark's verify workload, for arities 2-5.

The ladders and the single size are also counted with the seed's numpy sweep
kept in ``tests/reference_kernel.py``, in this process, and timed best of
REFERENCE_REPEATS. Before anything is timed, every tree's counts must equal the
reference's, and the trees must agree on every construction (SHA-256 of its
arrays), estimate and report. The shared driver in ``_host.py`` runs the
workers, the paired timings and the report.

Usage: python benchmarks/bench_boxcount.py [--repeats N] [--baseline DIR]
Writes BENCH_boxcount.json at the root of the checkout and prints a summary.
"""

import json
import sys
import time
from pathlib import Path

from _host import agree, bench

ROOT = Path(__file__).resolve().parent.parent

# (n, dimension, epsilon mode, stage, box sizes per level, first level)
LADDERS = [
    (2, 0.63, None, 20, 4, 1),   # ~1.0e6 intervals
    (4, 0.70, "reg", 10, 4, 1),  # ~1.0e6 intervals
    (10, 0.55, "reg", 6, 4, 1),  # 1.0e6 intervals
    (5, 0.80, "max", 9, 4, 1),   # ~2.0e6 intervals
    # the verify ladder at the stages of the verifier's largest tier
    (2, 0.45, None, 15, 16, 2),  # 32768 intervals
    (3, 0.60, None, 10, 16, 2),  # 59049 intervals
    (4, 0.75, "reg", 8, 16, 2),  # 65536 intervals
    (5, 0.90, "reg", 7, 16, 2),  # 78125 intervals
]
# the set of the documents workload (n = 7, stage 6) and its natural ladder
DOCUMENT = (7, 0.70, "reg", 6, 1, 1)  # 117649 intervals
FITS = [case for case in LADDERS if case[4] == 16] + [DOCUMENT]
# the stages of the small, medium and large tiers of perfbench's verify workload
TIERS = {"small": {2: 10, 3: 7, 4: 6, 5: 5},
         "medium": {2: 13, 3: 9, 4: 7, 5: 6},
         "large": {2: 15, 3: 10, 4: 8, 5: 7}}
VERIFY_OPERANDS = (0.8, 0.8)  # mul: D_C = 0.64
# calls per worker of a case, best of them; the rest take one call
CALLS = {"one size": 50, "fit": 5, "verify": 5}
REFERENCE_REPEATS = 3
LAYERS = {"construct": "geometry.construct", "ladder": "estimation.box_count",
          "one size": "estimation.box_count", "fit": "estimation.fit",
          "verify": "estimation.verify"}


def set_name(case):
    n, dim, eps_mode, stage = case[:4]
    return f"n={n} D={dim} eps={eps_mode or 0} stage={stage}"


def ladder_name(case):
    return f"{set_name(case)} {case[4]}/level"


def cases():
    """(case name, kind, case) in the order a worker runs them."""
    for case in LADDERS:
        if case[4] == 4:
            yield "construct " + set_name(case), "construct", case
    for case in LADDERS:
        yield "count " + ladder_name(case), "ladder", case
    yield f"count one size {set_name(DOCUMENT)}", "one size", DOCUMENT
    for case in FITS:
        yield "fit " + ladder_name(case), "fit", case
    for tier, stages in TIERS.items():
        for n, stage in stages.items():
            yield f"verify {tier} n={n} stage={stage}", "verify", (n, stage)


def fields(kind, case):
    """The fields that describe a case in its row."""
    row = {"layer": LAYERS[kind]}
    if kind == "verify":
        row.update(n=case[0], stage=case[1], operands=list(VERIFY_OPERANDS))
        return row
    n, dim, eps_mode, stage, per_level, start_level = case
    row.update(n=n, dimension=dim, epsilon=eps_mode or "0", stage=stage, intervals=n**stage)
    if kind in ("ladder", "fit"):
        row["ladder"] = f"{per_level} per level from level {start_level}"
    return row


def build_set(case):
    """The case's constructed IntervalSet and its box sizes, with the cantordim on sys.path."""
    from cantordim import CantorParams, construct_prefractal, lacunarity_bounds, scale_ladder

    n, dim, eps_mode, stage, per_level, start_level = case
    gamma = n ** (-1.0 / dim)
    eps = 0.0
    if eps_mode and n >= 4:
        bounds = lacunarity_bounds(n, gamma)
        eps = bounds.eps_reg if eps_mode == "reg" else bounds.eps_max
    s = construct_prefractal(CantorParams(n, gamma, eps, stage))
    return s, scale_ladder(gamma, stage, per_level, start_level)


def one_size(deltas):
    """The box size of the single-size row: the middle of the ladder."""
    return deltas[len(deltas) // 2]


def worker(mode: str) -> None:
    """Run every case in this interpreter; print times or results as JSON.

    A time is the best of the worker's calls; a result is what the trees
    must agree on: a construction's digest, the counts of a ladder, an
    estimate's slope and a report's status and estimate.
    """
    import hashlib

    import cantordim
    from cantordim import (IntervalSet, _kernels_py, box_count, construct_prefractal,
                           estimate_dimension, verify_operator_geometrically)
    from cantordim.estimation import SNAP_ETA

    def ladder(starts, ends, deltas):
        layout = _kernels_py.set_layout(starts, ends)
        counts = _kernels_py.box_counts(layout, deltas, SNAP_ETA)
        return counts, sum(getattr(field, "nbytes", 0) for field in layout)

    def laid_out(s):
        s = IntervalSet(s.starts, s.ends, s.params)
        s._box_layout  # noqa: B018 - computed once per set, before the timed call
        return s

    result = {}
    for name, kind, case in cases():
        # prepare() runs untimed before each call(prepared)
        prepare = lambda: None  # noqa: E731
        if kind == "verify":
            n, stage = case
            call = lambda _: verify_operator_geometrically(  # noqa: E731
                "mul", *VERIFY_OPERANDS, n, stage
            )
            answer = lambda r: [r.status, r.d_hat]  # noqa: E731
        else:
            s, deltas = build_set(case)
            if kind == "construct":
                call = lambda _: construct_prefractal(s.params)  # noqa: E731
                answer = lambda r: hashlib.sha256(  # noqa: E731
                    r.starts.tobytes() + r.ends.tobytes()).hexdigest()
            elif kind == "ladder":
                call = lambda _: ladder(s.starts, s.ends, deltas)  # noqa: E731
                answer = lambda r: {"counts": r[0], "layout_bytes": r[1]}  # noqa: E731
            elif kind == "one size":
                prepare = lambda: laid_out(s)  # noqa: E731
                call = lambda fresh: box_count(fresh, one_size(deltas))  # noqa: E731
                answer = lambda r: {"counts": [r]}  # noqa: E731
            else:
                prepare = lambda: IntervalSet(s.starts, s.ends, s.params)  # noqa: E731
                call = lambda fresh: estimate_dimension(fresh, deltas)  # noqa: E731
                answer = lambda r: r.d_hat  # noqa: E731
        best = float("inf")
        for _ in range(CALLS.get(kind, 1)):
            prepared = prepare()
            t0 = time.perf_counter()
            out = call(prepared)
            best = min(best, time.perf_counter() - t0)
        result[name] = best if mode == "time" else answer(out)
    result["backend"] = cantordim.BACKEND
    print(json.dumps(result))


def check(answers):
    """Exit unless every tree counts as the reference sweep and the trees agree elsewhere.

    Returns the counted cases' reference fields.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from cantordim.estimation import SNAP_ETA
    from reference_kernel import box_count as reference_count

    out = {}
    for name, kind, case in cases():
        if kind not in ("ladder", "one size"):
            agree(answers, [name])
            continue
        s, deltas = build_set(case)
        if kind == "one size":
            deltas = [one_size(deltas)]
        best = float("inf")
        for _ in range(REFERENCE_REPEATS):
            t0 = time.perf_counter()
            counts = [reference_count(s.starts, s.ends, d, SNAP_ETA) for d in deltas]
            best = min(best, time.perf_counter() - t0)
        for label, a in answers.items():
            if a[name]["counts"] != counts:
                sys.exit(f"{name}: {label} box counts differ from the reference")
        out[name] = dict(box_sizes=len(counts), occupied_cells=sum(counts),
                         counts_equal_to_reference=True, reference_best_ms=round(best * 1e3, 3))
        if kind == "one size":
            out[name]["box_size"] = deltas[0]
        else:
            out[name]["layout_bytes"] = {label: a[name]["layout_bytes"]
                                         for label, a in answers.items()}
    return out


if __name__ == "__main__":
    bench(__file__, __doc__, "boxcount", {name: fields(kind, case) for name, kind, case in cases()},
          worker, check, equal_key="results_equal")
