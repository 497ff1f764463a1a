#!/usr/bin/env python3
"""Time the box-count kernels against the slow reference; write BENCH_boxcount.json.

Two kinds of case: the million-interval ladders (4 box sizes per level) and
the verify ladder (16 sizes per level, coarsest level dropped, as
``verify_operator_geometrically`` uses) on sets as large as the verifier's
largest tier. The box-count kernel is timed next to the seed's numpy sweep
kept in ``tests/reference_kernel.py``, and interval construction on each
backend that imports (numpy, and compiled when it is built). The kernel's
counts are checked equal to the reference's, and every backend's interval
starts bitwise equal to the numpy backend's, before anything is timed. The
kernel's ladder time includes the per-set layout it computes once, as
``estimate_dimension`` does.

Usage: python benchmarks/bench_backends.py [--repeats N]
Writes BENCH_boxcount.json at the root of the checkout and prints a summary.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import cantordim  # noqa: E402
from cantordim import _kernels_py, lacunarity_bounds, scale_ladder, stage_one_offsets  # noqa: E402
from cantordim.estimation import SNAP_ETA  # noqa: E402
from reference_kernel import box_count as reference_count  # noqa: E402

OUT = ROOT / "BENCH_boxcount.json"

# (n, dimension, epsilon mode, stage, box sizes per level, first level)
CASES = [
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


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return min(times), result


def git_rev():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            return next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        return platform.processor() or None


def ladder_counts(starts, ends, deltas):
    layout = _kernels_py.set_layout(starts, ends)
    return [_kernels_py.box_count(starts, ends, d, SNAP_ETA, layout) for d in deltas]


def run_case(case, kernels, repeats):
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
    deltas = scale_ladder(gamma, stage, per_level, start_level)

    starts = kernels["python"].prefractal_starts(offsets, gamma, stage)
    ends = np.minimum(starts + width, 1.0)
    want = [reference_count(starts, ends, d, SNAP_ETA) for d in deltas]
    for name, kern in kernels.items():
        if kern.prefractal_starts(offsets, gamma, stage).tobytes() != starts.tobytes():
            raise SystemExit(f"{name} interval starts differ from the numpy backend's")
    if ladder_counts(starts, ends, deltas) != want:
        raise SystemExit("box counts differ from the reference")

    construct_ms = {}
    for name, kern in kernels.items():
        t, _ = best_of(lambda k=kern: k.prefractal_starts(offsets, gamma, stage), repeats)
        construct_ms[name] = t * 1e3
    t_ref, _ = best_of(lambda: [reference_count(starts, ends, d, SNAP_ETA) for d in deltas], repeats)
    t_new, _ = best_of(lambda: ladder_counts(starts, ends, deltas), repeats)
    ladder_ms = {"reference": t_ref * 1e3, _kernels_py.BACKEND_NAME: t_new * 1e3}
    return {
        "n": n,
        "dimension": dim,
        "epsilon": eps_mode or "0",
        "stage": stage,
        "intervals": len(starts),
        "ladder": f"{per_level} per level from level {start_level}",
        "box_sizes": len(deltas),
        "occupied_cells": sum(want),
        "counts_equal_to_reference": True,
        "construct_best_ms": construct_ms,
        "ladder_best_ms": ladder_ms,
        "speedup_over_reference": t_ref / t_new,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    kernels = cantordim.available_backends()
    print(f"box-count kernel: {_kernels_py.BACKEND_NAME}; construction backend: {cantordim.BACKEND}; "
          f"importable: {', '.join(sorted(kernels))}")
    results = []
    for case in CASES:
        r = run_case(case, kernels, args.repeats)
        results.append(r)
        times = "  ".join(f"{k} {v:8.1f} ms" for k, v in r["ladder_best_ms"].items())
        print(f"n={r['n']} D={r['dimension']} eps={r['epsilon']} stage={r['stage']} "
              f"({r['intervals']:,} intervals, {r['box_sizes']} sizes, {r['ladder']}): {times}")
    report = {
        "topic": "boxcount",
        "kernel": _kernels_py.BACKEND_NAME,
        "construction_backend": cantordim.BACKEND,
        "construction_backends_timed": sorted(kernels),
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "repeats": args.repeats,
        "cases": results,
    }
    OUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
