#!/usr/bin/env python3
"""Time construction, box counting, the fit and verification; write BENCH_boxcount.json.

Four layers, each case timed in worker processes of every tree:

- construct: ``construct_prefractal`` of the ordered million-interval sets;
- box count: the million-interval ladders (4 box sizes per level) and the
  verify ladder (16 sizes per level, coarsest level dropped, as
  ``verify_operator_geometrically`` uses) on sets as large as the verifier's
  largest tier. A ladder's time includes the per-set layout the kernel
  computes once, as ``estimate_dimension`` does, and the layout's size is
  reported per set;
- fit: ``estimate_dimension`` on the verify ladder of the same four sets,
  each call on a fresh set (made untimed), so that it builds the layout too;
- verify: ``verify_operator_geometrically`` (``mul``) at the stage of each
  tier of the benchmark's verify workload, for arities 2-5.

The ladders are also timed with the seed's numpy sweep kept in
``tests/reference_kernel.py``, in this process. Before anything is timed,
every tree's counts must equal the reference's, and the trees must agree
on every construction (SHA-256 of its arrays), estimate and report. With
``--baseline DIR`` the cases also run against a second checkout (for
example a clone of the parent commit), alternating which tree goes first; a
case's time is the best over ``--repeats`` workers per tree.

Usage: python benchmarks/bench_backends.py [--repeats N] [--baseline DIR]
Writes BENCH_boxcount.json at the root of the checkout and prints a summary.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from _host import git_rev, machine, run_worker

ROOT = Path(__file__).resolve().parent.parent

OUT = ROOT / "BENCH_boxcount.json"

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
FITS = [case for case in LADDERS if case[4] == 16]
# the stages of the small, medium and large tiers of perfbench's verify workload
TIERS = {"small": {2: 10, 3: 7, 4: 6, 5: 5},
         "medium": {2: 13, 3: 9, 4: 7, 5: 6},
         "large": {2: 15, 3: 10, 4: 8, 5: 7}}
VERIFY_OPERANDS = (0.8, 0.8)  # mul: D_C = 0.64
FAST_CALLS = 5  # calls per worker of a fit or verify case, which take milliseconds


def set_name(case):
    n, dim, eps_mode, stage = case[:4]
    return f"n={n} D={dim} eps={eps_mode or 0} stage={stage}"


def ladder_name(case):
    return f"{set_name(case)} {case[4]}/level"


def cases():
    """(case name, layer, case) in the order a worker runs them."""
    for case in LADDERS:
        if case[4] == 4:
            yield "construct " + set_name(case), "geometry.construct", case
    for case in LADDERS:
        yield "count " + ladder_name(case), "estimation.box_count", case
    for case in FITS:
        yield "fit " + ladder_name(case), "estimation.fit", case
    for tier, stages in TIERS.items():
        for n, stage in stages.items():
            yield f"verify {tier} n={n} stage={stage}", "estimation.verify", (n, stage)


def build_set(case):
    """The case's starts, ends, params and box sizes, with the cantordim on sys.path."""
    import numpy as np
    from cantordim import CantorParams, _kernels_py, lacunarity_bounds, scale_ladder
    from cantordim.geometry import stage_one_offsets

    n, dim, eps_mode, stage, per_level, start_level = case
    gamma = n ** (-1.0 / dim)
    eps = 0.0
    if eps_mode and n >= 4:
        bounds = lacunarity_bounds(n, gamma)
        eps = bounds.eps_reg if eps_mode == "reg" else bounds.eps_max
    offsets = np.asarray(stage_one_offsets(n, gamma, eps))
    width = 1.0
    for _ in range(stage):
        width *= gamma
    starts = _kernels_py.prefractal_starts(offsets, gamma, stage)
    ends = np.minimum(starts + width, 1.0)
    params = CantorParams(n, gamma, eps, stage)
    return starts, ends, params, scale_ladder(gamma, stage, per_level, start_level)


def worker(mode: str) -> None:
    """Run every case in this interpreter; print times or results as JSON.

    A time is the best of the worker's calls; a result is what the trees
    must agree on: a construction's digest, the counts of a ladder, an
    estimate's slope and a report's status and estimate.
    """
    import hashlib

    import cantordim
    from cantordim import (IntervalSet, _kernels_py, construct_prefractal, estimate_dimension,
                           verify_operator_geometrically)
    from cantordim.estimation import SNAP_ETA

    def ladder(starts, ends, deltas):
        layout = _kernels_py.set_layout(starts, ends)
        counts = [_kernels_py.box_count(starts, ends, d, SNAP_ETA, layout) for d in deltas]
        return counts, sum(getattr(field, "nbytes", 0) for field in layout)

    result = {}
    for name, layer, case in cases():
        # prepare() runs untimed before each call(prepared)
        prepare = lambda: None  # noqa: E731
        if layer == "estimation.verify":
            n, stage = case
            call = lambda _: verify_operator_geometrically(  # noqa: E731
                "mul", *VERIFY_OPERANDS, n, stage
            )
            answer = lambda r: [r.status, r.d_hat]  # noqa: E731
        else:
            starts, ends, params, deltas = build_set(case)
            if layer == "geometry.construct":
                call = lambda _: construct_prefractal(params)  # noqa: E731
                answer = lambda r: hashlib.sha256(  # noqa: E731
                    r.starts.tobytes() + r.ends.tobytes()).hexdigest()
            elif layer == "estimation.box_count":
                call = lambda _: ladder(starts, ends, deltas)  # noqa: E731
                answer = lambda r: {"counts": r[0], "layout_bytes": r[1]}  # noqa: E731
            else:
                prepare = lambda: IntervalSet(starts, ends, params)  # noqa: E731
                call = lambda s: estimate_dimension(s, deltas)  # noqa: E731
                answer = lambda r: r.d_hat  # noqa: E731
        best = float("inf")
        for _ in range(FAST_CALLS if layer != "estimation.box_count" else 1):
            prepared = prepare()
            t0 = time.perf_counter()
            out = call(prepared)
            best = min(best, time.perf_counter() - t0)
        result[name] = best if mode == "time" else answer(out)
    result["backend"] = cantordim.BACKEND
    print(json.dumps(result))


def reference_ladders(repeats):
    """Ladder name -> (counts, best time) of the reference sweep, on this checkout's sets."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from cantordim.estimation import SNAP_ETA
    from reference_kernel import box_count as reference_count

    out = {}
    for case in LADDERS:
        starts, ends, _, deltas = build_set(case)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            counts = [reference_count(starts, ends, d, SNAP_ETA) for d in deltas]
            best = min(best, time.perf_counter() - t0)
        out["count " + ladder_name(case)] = counts, best
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--baseline", type=Path, default=None,
                        help="a second checkout to time against this one")
    parser.add_argument("--worker", choices=("time", "result"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker)
        return

    trees = {"change": ROOT}
    if args.baseline is not None:
        trees = {"baseline": args.baseline.resolve(), "change": ROOT}
    answers = {label: run_worker(__file__, tree, "result") for label, tree in trees.items()}
    reference = reference_ladders(args.repeats)
    plan = list(cases())
    for name, layer, _ in plan:
        got = {label: a[name] for label, a in answers.items()}
        if layer == "estimation.box_count":
            for label, a in got.items():
                if a["counts"] != reference[name][0]:
                    sys.exit(f"{name}: {label} box counts differ from the reference")
        elif len({json.dumps(v) for v in got.values()}) != 1:
            sys.exit(f"{name}: the trees give different results {got}")

    best = {(name, label): float("inf") for name, _, _ in plan for label in trees}
    for r in range(args.repeats):
        # alternate which tree goes first, so slow phases of the host hit both
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for label in order:
            times = run_worker(__file__, trees[label], "time")
            for name, _, _ in plan:
                best[name, label] = min(best[name, label], times[name])

    results = []
    for name, layer, case in plan:
        row = {"case": name, "layer": layer}
        if layer == "estimation.verify":
            row.update(n=case[0], stage=case[1], operands=list(VERIFY_OPERANDS))
        else:
            n, dim, eps_mode, stage, per_level, start_level = case
            row.update(n=n, dimension=dim, epsilon=eps_mode or "0", stage=stage,
                       intervals=n**stage)
            if layer != "geometry.construct":
                row["ladder"] = f"{per_level} per level from level {start_level}"
        row["best_ms"] = {label: round(best[name, label] * 1e3, 3) for label in trees}
        if layer == "estimation.box_count":
            counts, ref_s = reference[name]
            row.update(box_sizes=len(counts), occupied_cells=sum(counts),
                       counts_equal_to_reference=True)
            row["best_ms"]["reference"] = round(ref_s * 1e3, 3)
            row["layout_bytes"] = {label: answers[label][name]["layout_bytes"] for label in trees}
        if "baseline" in trees:
            row["speedup"] = round(best[name, "baseline"] / best[name, "change"], 2)
        results.append(row)
        times = "  ".join(f"{label} {ms:9.2f} ms" for label, ms in row["best_ms"].items())
        print(f"{name:52s} {times}" + (f"   x{row['speedup']}" if "speedup" in row else ""))

    report = {
        "topic": "boxcount",
        "trees": {label: {"git_rev": git_rev(tree), "backend": answers[label]["backend"]}
                  for label, tree in trees.items()},
        **machine(),
        "repeats": args.repeats,
        "cases": results,
    }
    if "baseline" in trees:
        report["results_equal"] = True  # checked above, before timing
    OUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
