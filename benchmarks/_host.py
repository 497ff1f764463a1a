"""The driver every benchmark script runs through, and what it uses.

A script under ``benchmarks/`` keeps only what is its own: its cases, its
``setup`` and its check. It calls ``bench``, which either runs its hidden
``--worker MODE --case NAME`` (``run_case``: the one timing rule) or drives
the benchmark: the ``change`` tree is this checkout and, with ``--baseline
DIR``, the ``baseline`` tree is a second checkout (a clone of the parent
commit, or of this checkout for an A/A run). Before anything is timed, one
``--worker result`` per case and tree gives each tree's answers, and the
script's check compares them (by default the trees must agree on every
case). Each of ``--repeats`` pairs then runs each case in one ``--worker
time`` per tree, back to back, alternating which tree goes first. A row
gives each tree's median time and, with a baseline, the median and
interquartile range of the per-pair ratios baseline/change and the pairs
the change won; it gives a ``speedup`` only when one tree wins at least 9 of
10 of at least 10 pairs and the medians differ by more than the baseline's
own interquartile range (``paired_ratio``), and reads "within noise"
otherwise. The report goes to ``BENCH_<topic>.json`` at the root of the
checkout, and a summary to stdout.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path


def tree_env(tree):
    """The environment with the checkout at ``tree``'s ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_worker(script, tree, mode, case):
    """The JSON that ``script --worker mode --case case`` prints when run against ``tree``."""
    out = subprocess.run([sys.executable, str(script), "--worker", mode, "--case", case],
                         cwd=tree, env=tree_env(tree), check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_case(setup, case, calls, mode):
    """Print, as JSON, the best of ``calls`` calls of ``case``, each in this fresh process.

    ``setup(case)`` builds the case's inputs and returns ``(prepare, call,
    answer)``; ``prepare()``, if given, runs untimed before each timed
    ``call(prepared)``. Mode "result" prints ``answer`` of the last output in
    place of the time, with each call's minor page faults and, when the case
    loaded cantordim, its ``BACKEND``.
    """
    prepare, call, answer = setup(case)
    best, faults = float("inf"), []
    for _ in range(calls):
        out = None  # the last output goes before the next call
        prepared = prepare() if prepare else None
        f0 = minor_faults()
        t0 = time.perf_counter()
        out = call(prepared)
        best = min(best, time.perf_counter() - t0)
        faults.append(minor_faults() - f0)
    if mode == "time":
        print(json.dumps(best))
        return
    library = sys.modules.get("cantordim")
    print(json.dumps({"answer": answer(out), "minor_page_faults": faults,
                      **({"backend": library.BACKEND} if library else {})}))


def paired_times(script, trees, pairs, cases):
    """label -> case -> the case's time in each of ``pairs`` workers of the tree at label.

    Pair i runs each case on both trees back to back, in order when i is even
    and in reverse when it is odd, so that a slow phase of the host hits both.
    """
    times = {label: {case: [] for case in cases} for label in trees}
    for i in range(pairs):
        order = list(trees) if i % 2 == 0 else list(reversed(trees))
        for case in cases:
            for label in order:
                times[label][case].append(run_worker(script, trees[label], "time", case))
    return times


#: a verdict needs at least this many pairs, one tree faster in 9 of 10 of them
MIN_PAIRS = 10


def paired_ratio(baseline, change):
    """The per-pair ratios baseline/change of a row's times: median, IQR, wins and verdict.

    A ratio above 1 means the change is faster. ``change_wins`` counts the
    pairs where the change took less time than the baseline; a tie counts
    for neither tree. ``speedup`` is the median ratio when there are at
    least ``MIN_PAIRS`` pairs, one tree wins at least 9 of 10 of them,
    and the two trees' median times differ by more than the interquartile
    range of the baseline's own times (a slowdown gets its ratio, below 1,
    by the same rule); otherwise it reads "within noise".
    """
    ratios = [b / c for b, c in zip(baseline, change)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    wins = sum(c < b for b, c in zip(baseline, change))
    losses = sum(c > b for b, c in zip(baseline, change))
    b1, _, b3 = statistics.quantiles(baseline, n=4, method="inclusive")
    clear = (
        len(ratios) >= MIN_PAIRS
        and 10 * max(wins, losses) >= 9 * len(ratios)
        and abs(statistics.median(baseline) - statistics.median(change)) > b3 - b1
    )
    return {
        "ratio_median": round(median, 3),
        "ratio_iqr": [round(q1, 3), round(q3, 3)],
        "change_wins": wins,
        "speedup": round(median, 2) if clear else "within noise",
    }


def agree(answers, names):
    """Exit unless every tree gives the same answer to each case in ``names``."""
    for name in names:
        got = {label: a[name] for label, a in answers.items()}
        if len({json.dumps(v) for v in got.values()}) != 1:
            sys.exit(f"{name}: the trees give different results {got}")


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
    import numpy as np  # here, so that a worker that needs no numpy loads none

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def bench(script, doc, topic, cases, setup, check=None, equal_key=None, repeats=10):
    """Run ``script``'s hidden worker, or check, time and report its cases as set out above.

    ``cases`` maps each case name, in the order the pairs run them, to the
    fields that open its row, ``calls`` among them. ``check(answers, faults)``
    gets label -> case -> that tree's answer and its calls' minor page
    faults, exits when the answers are wrong, and returns case -> fields
    that follow the row's ``median_ms``. With a baseline, ``equal_key`` is
    set in the report: the check has passed before timing.
    """
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=repeats,
                        help="worker pairs (one worker per case and tree without --baseline)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="a second checkout to time against this one")
    parser.add_argument("--worker", choices=("time", "result"), help=argparse.SUPPRESS)
    parser.add_argument("--case", choices=cases, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        if args.case is None:
            parser.error("--worker needs --case")
        run_case(setup, args.case, cases[args.case]["calls"], args.worker)
        return
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")

    root = Path(script).resolve().parent.parent
    trees = {"change": root}
    if args.baseline is not None:
        trees = {"baseline": args.baseline.resolve(), "change": root}
    outs = {label: {case: run_worker(script, tree, "result", case) for case in cases}
            for label, tree in trees.items()}
    answers = {label: {case: r["answer"] for case, r in res.items()} for label, res in outs.items()}
    faults = {label: {case: r["minor_page_faults"] for case, r in res.items()}
              for label, res in outs.items()}
    backends = {label: {"backend": r["backend"] for r in res.values() if "backend" in r}
                for label, res in outs.items()}
    if check is None:
        agree(answers, cases)
        checked = {}
    else:
        checked = check(answers, faults)

    times = paired_times(script, trees, args.repeats, list(cases))
    width = max(map(len, cases))
    results = []
    for name, fields in cases.items():
        row = {"case": name, **fields,
               "median_ms": {label: round(statistics.median(times[label][name]) * 1e3, 3)
                             for label in trees},
               **checked.get(name, {})}
        if "baseline" in trees:
            row.update(paired_ratio(times["baseline"][name], times["change"][name]))
        results.append(row)
        shown = "  ".join(f"{label} {ms:9.3f} ms" for label, ms in row["median_ms"].items())
        print(f"{name:{width}s} {shown}   {row.get('speedup', '')}".rstrip())

    report = {
        "topic": topic,
        "trees": {label: {"git_rev": git_rev(tree), **backends[label]}
                  for label, tree in trees.items()},
        **machine(),
        "pairs" if "baseline" in trees else "repeats": args.repeats,
        "cases": results,
    }
    if "baseline" in trees and equal_key:
        report[equal_key] = True  # checked above, before timing
    out = root / f"BENCH_{topic}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
