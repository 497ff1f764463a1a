#!/usr/bin/env python3
"""Time interpreter start-up, package import and CLI commands; write BENCH_startup.json.

Every case is one fresh interpreter: a bare one, ``import cantordim``,
``import cantordim.cli``, each scalar CLI command (``dim``, ``scale``, the
four ``op`` operators, ``pow``, ``ddgamma``, ``bounds``) and one numpy-bound
command (``verify``). CLI cases run as ``python -m cantordim.cli ...``.
A worker process starts every case once, against one tree; each case also
records, from one more run of the same work in a ``-c`` probe, whether
numpy and ``dataclasses`` were loaded. With ``--baseline DIR`` the cases
also run against a second checkout (for example a clone of the parent
commit): each of ``--repeats`` pairs runs one worker per tree, alternating
which goes first. A row gives each tree's median wall time and the median
and interquartile range of the per-pair ratios baseline/change; it claims
a ``speedup`` only when that range excludes 1, and reads "within noise"
otherwise.

Usage: python benchmarks/bench_startup.py [--repeats N] [--baseline DIR]
Writes BENCH_startup.json at the root of the checkout and prints a summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from _host import git_rev, machine, paired_ratio, paired_times, tree_env

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_startup.json"

SCALAR = [
    ["dim", "--n", "3", "--gamma", "0.1"],
    ["scale", "--n", "2", "--d", "0.5"],
    *(["op", op, "--da", "0.2", "--db", "0.5", "--n", "2"] for op in ("add", "sub", "mul", "div")),
    ["pow", "--da", "0.5", "--k", "3", "--n", "2"],
    ["ddgamma", "--n", "2", "--gamma", "0.25"],
    ["bounds", "--n", "5", "--gamma", "0.1"],
]
HEAVY = [["verify", "--op", "mul", "--da", "0.5", "--db", "0.5", "--n", "2", "--stage", "6"]]


def cases():
    """(name, kind, argv after the interpreter, code of the numpy probe)."""
    yield "bare interpreter", "bare", ["-c", "pass"], "pass"
    yield "import cantordim", "import", ["-c", "import cantordim"], "import cantordim"
    yield "import cantordim.cli", "import", ["-c", "import cantordim.cli"], "import cantordim.cli"
    for kind, commands in (("scalar", SCALAR), ("heavy", HEAVY)):
        for argv in commands:
            name = "cantordim " + " ".join(argv[:2] if argv[0] == "op" else argv[:1])
            probe = f"from cantordim.cli import main\nmain({argv!r})"
            yield name, kind, ["-m", "cantordim.cli", *argv], probe


def wall_s(argv, tree, env) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], cwd=tree, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


WATCHED = ("numpy", "dataclasses")


def loaded(code, tree, env) -> dict:
    """Module -> whether the work in ``code`` leaves it imported, for each WATCHED module."""
    probe = f"{code}\nimport sys\nprint(*[m in sys.modules for m in {WATCHED!r}])"
    out = subprocess.run([sys.executable, "-c", probe], cwd=tree, env=env, check=True,
                         capture_output=True, text=True)
    return dict(zip(WATCHED, (v == "True" for v in out.stdout.splitlines()[-1].split())))


def worker() -> None:
    """Start every case once, against the checkout this worker runs in; print the times as JSON."""
    print(json.dumps({name: wall_s(argv, Path.cwd(), os.environ) for name, _, argv, _ in cases()}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=20,
                        help="worker pairs (one worker per tree without --baseline)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="a second checkout to time against this one")
    parser.add_argument("--worker", choices=("time",), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker()
        return
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")

    trees = {"change": ROOT}
    if args.baseline is not None:
        trees = {"baseline": args.baseline.resolve(), "change": ROOT}
    envs = {label: tree_env(tree) for label, tree in trees.items()}
    plan = list(cases())
    times = paired_times(__file__, trees, args.repeats, [name for name, *_ in plan])

    results = []
    for name, kind, argv, probe in plan:
        found = {label: loaded(probe, trees[label], envs[label]) for label in trees}
        row = {
            "case": name,
            "kind": kind,
            "argv": ["python", *argv],
            "median_ms": {label: round(statistics.median(times[label][name]) * 1e3, 2)
                          for label in trees},
            **{f"{m}_loaded": {label: found[label][m] for label in trees} for m in WATCHED},
        }
        if "baseline" in trees:
            row.update(paired_ratio(times["baseline"][name], times["change"][name]))
        results.append(row)
        shown = "  ".join(f"{label} {ms:7.1f} ms" for label, ms in row["median_ms"].items())
        names = "  ".join(
            f"{label} {','.join(m for m in WATCHED if found[label][m]) or '-'}" for label in trees
        )
        verdict = row.get("speedup", "")
        print(f"{name:28s} {shown}   {names}" + (f"   {verdict}" if verdict != "" else ""))

    report = {
        "topic": "startup",
        "trees": {label: {"git_rev": git_rev(tree)} for label, tree in trees.items()},
        **machine(),
        "pairs" if "baseline" in trees else "repeats": args.repeats,
        "cases": results,
    }
    OUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
