#!/usr/bin/env python3
"""Time the numpy kernel against the slow reference; write BENCH_boxcount.json.

Two kinds of case: the million-interval ladders (4 box sizes per level) and
the verify ladder (16 sizes per level, coarsest level dropped, as
``verify_operator_geometrically`` uses) on sets as large as the verifier's
largest tier. One million-interval ladder is repeated with a few neighbouring
intervals swapped, so the set is not ordered and the count takes its general
path (running maximum and clip). The kernel's box counting is timed next to
the seed's numpy sweep kept in ``tests/reference_kernel.py``, and its
interval construction on its own: there is one construction backend. The
kernel's counts are checked equal to the reference's before anything is
timed. The kernel's ladder time includes the per-set layout it computes
once, as ``estimate_dimension`` does.

Usage: python benchmarks/bench_backends.py [--repeats N]
Writes BENCH_boxcount.json at the root of the checkout and prints a summary.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from _host import git_rev, machine

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from cantordim import _kernels_py, lacunarity_bounds, scale_ladder, stage_one_offsets  # noqa: E402
from cantordim.estimation import SNAP_ETA  # noqa: E402
from reference_kernel import box_count as reference_count  # noqa: E402

OUT = ROOT / "BENCH_boxcount.json"

# (n, dimension, epsilon mode, stage, box sizes per level, first level,
#  neighbouring pairs swapped)
CASES = [
    (2, 0.63, None, 20, 4, 1, 0),   # ~1.0e6 intervals
    (2, 0.63, None, 20, 4, 1, 8),   # the same, not ordered
    (4, 0.70, "reg", 10, 4, 1, 0),  # ~1.0e6 intervals
    (10, 0.55, "reg", 6, 4, 1, 0),  # 1.0e6 intervals
    (5, 0.80, "max", 9, 4, 1, 0),   # ~2.0e6 intervals
    # the verify ladder at the stages of the verifier's largest tier
    (2, 0.45, None, 15, 16, 2, 0),  # 32768 intervals
    (3, 0.60, None, 10, 16, 2, 0),  # 59049 intervals
    (4, 0.75, "reg", 8, 16, 2, 0),  # 65536 intervals
    (5, 0.90, "reg", 7, 16, 2, 0),  # 78125 intervals
]


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return min(times), result


def ladder_counts(starts, ends, deltas):
    layout = _kernels_py.set_layout(starts, ends)
    return [_kernels_py.box_count(starts, ends, d, SNAP_ETA, layout) for d in deltas]


def run_case(case, repeats):
    n, dim, eps_mode, stage, per_level, start_level, swaps = case
    gamma = n ** (-1.0 / dim)
    eps = 0.0
    if eps_mode and n >= 4:
        bounds = lacunarity_bounds(n, gamma)
        eps = bounds.eps_reg if eps_mode == "reg" else bounds.eps_max
    offsets = np.asarray(stage_one_offsets(n, gamma, eps))
    width = 1.0
    for _ in range(stage):
        width *= gamma
    deltas = scale_ladder(gamma, stage, per_level, start_level)

    t_construct, starts = best_of(
        lambda: _kernels_py.prefractal_starts(offsets, gamma, stage), repeats
    )
    ends = np.minimum(starts + width, 1.0)
    for i in np.linspace(1, len(starts) - 1, swaps, dtype=np.int64):
        starts[[i - 1, i]] = starts[[i, i - 1]]
        ends[[i - 1, i]] = ends[[i, i - 1]]
    ordered = _kernels_py.set_layout(starts, ends).ordered
    if ordered != (swaps == 0):
        raise SystemExit("swapping neighbours left the set ordered")
    want = [reference_count(starts, ends, d, SNAP_ETA) for d in deltas]
    if ladder_counts(starts, ends, deltas) != want:
        raise SystemExit("box counts differ from the reference")

    t_ref, _ = best_of(lambda: [reference_count(starts, ends, d, SNAP_ETA) for d in deltas], repeats)
    t_new, _ = best_of(lambda: ladder_counts(starts, ends, deltas), repeats)
    ladder_ms = {"reference": t_ref * 1e3, _kernels_py.BACKEND: t_new * 1e3}
    return {
        "n": n,
        "dimension": dim,
        "epsilon": eps_mode or "0",
        "stage": stage,
        "intervals": len(starts),
        "ordered": ordered,
        "ladder": f"{per_level} per level from level {start_level}",
        "box_sizes": len(deltas),
        "occupied_cells": sum(want),
        "counts_equal_to_reference": True,
        "construct_best_ms": t_construct * 1e3,
        "ladder_best_ms": ladder_ms,
        "speedup_over_reference": t_ref / t_new,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    print(f"kernel: {_kernels_py.BACKEND} (numpy)")
    results = []
    for case in CASES:
        r = run_case(case, args.repeats)
        results.append(r)
        times = "  ".join(f"{k} {v:8.1f} ms" for k, v in r["ladder_best_ms"].items())
        order = "" if r["ordered"] else ", not ordered"
        print(f"n={r['n']} D={r['dimension']} eps={r['epsilon']} stage={r['stage']} "
              f"({r['intervals']:,} intervals{order}, {r['box_sizes']} sizes, {r['ladder']}): "
              f"{times}")
    report = {
        "topic": "boxcount",
        "kernel": _kernels_py.BACKEND,
        "git_rev": git_rev(ROOT),
        **machine(),
        "repeats": args.repeats,
        "cases": results,
    }
    OUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
