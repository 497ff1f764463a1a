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

Each count and fit row also gives, per tree, the gap rows its box sizes
visit: the sum of the sizes' suffix lengths in the set's layout, one
sentinel row each included, as ``_kernels_py._suffix_lengths`` gives them.
Each verify row gives, per tree, the minor page faults (``ru_minflt``) of
each of the result worker's calls, in order.

The ladders and the single size are also counted with the seed's numpy sweep
kept in ``tests/reference_kernel.py``, in this process, and timed best of
REFERENCE_REPEATS. Before anything is timed, every tree's counts must equal the
reference's, and the trees must agree on every construction (SHA-256 of its
arrays), estimate and report. The shared driver in ``_host.py`` runs each
case in its own worker processes, at its best of the row's ``calls`` (5 to
50), and writes the paired timings and the report.

Usage: python benchmarks/bench_boxcount.py [--repeats N] [--baseline DIR]
Writes BENCH_boxcount.json at the root of the checkout and prints a summary.
"""

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
# calls per worker of a case, best of them. The first calls in a fresh process
# pay page faults and a cold interpreter: on a 2-vCPU host a small verification
# read 0.43 ms at its best of 5 calls, 0.37 ms at its best of 20 and of 40
CALLS = {"construct": 5, "ladder": 5, "one size": 50, "fit": 10, "verify": 20}
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
    """(case name, kind, case) in the order the driver runs them."""
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
    row = {"layer": LAYERS[kind], "calls": CALLS[kind]}
    if kind == "verify":
        row.update(n=case[0], stage=case[1], operands=list(VERIFY_OPERANDS))
        return row
    n, dim, eps_mode, stage, per_level, start_level = case
    row.update(n=n, dimension=dim, epsilon=eps_mode or "0", stage=stage, intervals=n**stage)
    if kind in ("ladder", "fit"):
        row["ladder"] = f"{per_level} per level from level {start_level}"
    return row


def build_set(kind, case):
    """The case's constructed IntervalSet and its box sizes, with the cantordim on sys.path.

    The sizes are the case's ladder, or for kind "one size" the ladder's middle size.
    """
    from cantordim import CantorParams, construct_prefractal, lacunarity_bounds, scale_ladder

    n, dim, eps_mode, stage, per_level, start_level = case
    gamma = n ** (-1.0 / dim)
    eps = 0.0
    if eps_mode and n >= 4:
        bounds = lacunarity_bounds(n, gamma)
        eps = bounds.eps_reg if eps_mode == "reg" else bounds.eps_max
    s = construct_prefractal(CantorParams(n, gamma, eps, stage))
    deltas = scale_ladder(gamma, stage, per_level, start_level)
    return s, [deltas[len(deltas) // 2]] if kind == "one size" else deltas


CASES = {name: (kind, case) for name, kind, case in cases()}


def setup(name):
    """The case's inputs, built untimed, as ``(prepare, call, answer)`` for the driver.

    An answer is what the trees must agree on: a construction's digest, the
    counts of a ladder, an estimate's slope and a report's status and
    estimate; with the gap rows a count or fit visits, and a ladder's layout
    bytes, which each tree reports for itself.
    """
    import hashlib

    import numpy as np

    from cantordim import (IntervalSet, _kernels_py, box_count, construct_prefractal,
                           estimate_dimension, verify_operator_geometrically)

    kind, case = CASES[name]
    if kind == "verify":
        n, stage = case
        return (None, lambda _: verify_operator_geometrically("mul", *VERIFY_OPERANDS, n, stage),
                lambda r: [r.status, r.d_hat])

    s, deltas = build_set(kind, case)
    if kind == "construct":
        return (None, lambda _: construct_prefractal(s.params),
                lambda r: hashlib.sha256(r.starts.tobytes() + r.ends.tobytes()).hexdigest())

    def gap_rows():
        return int(_kernels_py._suffix_lengths(s._box_layout.keys, np.array(deltas)).sum())

    if kind == "ladder":
        def ladder(_):
            layout = _kernels_py.set_layout(s.starts, s.ends)
            counts = _kernels_py.box_counts(layout, deltas)
            return counts, sum(getattr(field, "nbytes", 0) for field in layout)

        return None, ladder, lambda r: {"counts": r[0], "layout_bytes": r[1],
                                        "gap_rows": gap_rows()}
    if kind == "one size":
        def laid_out():
            fresh = IntervalSet(s.starts, s.ends, s.params)
            fresh._box_layout  # noqa: B018 - computed once per set, before the timed call
            return fresh

        return (laid_out, lambda fresh: box_count(fresh, deltas[0]),
                lambda r: {"counts": [r], "gap_rows": gap_rows()})
    return (lambda: IntervalSet(s.starts, s.ends, s.params),
            lambda fresh: estimate_dimension(fresh, deltas),
            lambda r: {"d_hat": r.d_hat, "gap_rows": gap_rows()})


def check(answers, faults):
    """Exit unless every tree counts as the reference sweep and the trees agree elsewhere.

    Returns the counted cases' reference fields and each tree's own fields.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from cantordim.estimation import SNAP_ETA
    from reference_kernel import box_count as reference_count

    out = {}
    for name, kind, case in cases():
        if kind in ("one size", "ladder", "fit"):
            # each tree's own, so taken out of the answer before the trees are compared
            out[name] = {"gap_rows_visited": {label: a[name].pop("gap_rows")
                                              for label, a in answers.items()}}
        if kind == "verify":
            out[name] = {"minor_page_faults": {label: f[name] for label, f in faults.items()}}
        if kind not in ("ladder", "one size"):
            agree(answers, [name])
            continue
        s, deltas = build_set(kind, case)
        best = float("inf")
        for _ in range(REFERENCE_REPEATS):
            t0 = time.perf_counter()
            counts = [reference_count(s.starts, s.ends, d, SNAP_ETA) for d in deltas]
            best = min(best, time.perf_counter() - t0)
        for label, a in answers.items():
            if a[name]["counts"] != counts:
                sys.exit(f"{name}: {label} box counts differ from the reference")
        out[name].update(box_sizes=len(counts), occupied_cells=sum(counts),
                         counts_equal_to_reference=True, reference_best_ms=round(best * 1e3, 3))
        if kind == "one size":
            out[name]["box_size"] = deltas[0]
        else:
            out[name]["layout_bytes"] = {label: a[name]["layout_bytes"]
                                         for label, a in answers.items()}
    return out


if __name__ == "__main__":
    bench(__file__, __doc__, "boxcount", {name: fields(kind, case) for name, kind, case in cases()},
          setup, check, equal_key="results_equal")
