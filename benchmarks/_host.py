"""What the benchmark scripts share: running checkouts, paired timings, git revision, machine."""

import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np


def tree_env(tree):
    """The environment with the checkout at ``tree``'s ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_worker(script, tree, mode):
    """The JSON that ``script --worker mode`` prints when run against the checkout at ``tree``."""
    out = subprocess.run([sys.executable, str(script), "--worker", mode], cwd=tree,
                         env=tree_env(tree), check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def paired_times(script, trees, pairs, rows):
    """label -> row -> the row's time in each of ``pairs`` workers of the tree at label.

    Pair i runs one ``script --worker time`` per tree, the trees in order
    when i is even and in reverse when it is odd, so that a slow phase of the
    host hits both sides of a pair.
    """
    times = {label: {row: [] for row in rows} for label in trees}
    for i in range(pairs):
        for label in list(trees) if i % 2 == 0 else list(reversed(trees)):
            out = run_worker(script, trees[label], "time")
            for row in rows:
                times[label][row].append(out[row])
    return times


def paired_ratio(baseline, change):
    """The per-pair ratios baseline/change of a row's times: median, IQR and verdict.

    A ratio above 1 means the change is faster. ``speedup`` is the median
    ratio when the interquartile range excludes 1, and "within noise" when
    the pairs cannot tell the two trees apart.
    """
    ratios = [b / c for b, c in zip(baseline, change)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "ratio_median": round(median, 3),
        "ratio_iqr": [round(q1, 3), round(q3, 3)],
        "speedup": round(median, 2) if q1 > 1.0 or q3 < 1.0 else "within noise",
    }


def git_rev(tree):
    """``git describe`` of the checkout at ``tree`` (``-dirty`` when edited), or None."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=tree, capture_output=True, text=True, timeout=10,
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


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }
