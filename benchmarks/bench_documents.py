#!/usr/bin/env python3
"""Time JSON/CSV export and import, grid CSV and SVG rendering; write BENCH_documents.json.

Cases: ``export_intervals`` and ``import_intervals`` in JSON and CSV on
constructed sets of 1e5 and 1e6 intervals, ``emit_operator_grid`` (``sub``,
which has NaN cells) at resolutions 256 and 1024, and ``render_stages_svg``
up to stage 5. Each worker process runs every case once, against one
tree. With ``--baseline DIR`` the cases also run against a second checkout
(for example a clone of the parent commit): each of ``--repeats`` pairs
runs one worker per tree, alternating which goes first. Before anything is
timed, both trees must give the same SHA-256 for every exported, rendered
and imported output (import digests cover the arrays and the params). A row
gives each tree's median time and the median and interquartile range of
the per-pair ratios baseline/change; it claims a ``speedup`` only when that
range excludes 1, and reads "within noise" otherwise.

Usage: python benchmarks/bench_documents.py [--repeats N] [--baseline DIR]
Writes BENCH_documents.json at the root of the checkout and prints a summary.
"""

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

from _host import git_rev, machine, paired_ratio, paired_times, run_worker

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_documents.json"

# (name, construction params (n, gamma, stage); epsilon is eps_reg)
SETS = [("1e5", (10, 0.06, 5)), ("1e6", (10, 0.06, 6))]
GRID_RES = (256, 1024)
SVG = (5, 0.1, 0.05, 5)  # n, gamma, epsilon, max_stage


def cases():
    """(case name, layer, size) in the order a worker runs them."""
    for label, (n, _, stage) in SETS:
        for fmt in ("json", "csv"):
            yield f"export_{fmt} {label}", f"serialize.export_{fmt}", n**stage
            yield f"import_{fmt} {label}", f"serialize.import_{fmt}", n**stage
    for res in GRID_RES:
        yield f"grid sub res {res}", "render.grid", res * res
    yield f"svg stages 0..{SVG[3]}", "render.svg", SVG[3]


def worker(mode: str) -> None:
    """Run every case once in this interpreter; print times or output digests as JSON."""
    import cantordim
    from cantordim import (CantorParams, construct_prefractal, emit_operator_grid,
                           export_intervals, import_intervals, lacunarity_bounds,
                           render_stages_svg)

    def digest(out) -> str:
        if isinstance(out, tuple):  # (GridSheet, csv text)
            out = out[1]
        if isinstance(out, cantordim.IntervalSet):
            out = out.starts.tobytes() + out.ends.tobytes() + repr(out.params).encode()
        return hashlib.sha256(out if isinstance(out, bytes) else out.encode()).hexdigest()

    calls = []
    for _, (n, gamma, stage) in SETS:
        eps = lacunarity_bounds(n, gamma).eps_reg
        s = construct_prefractal(CantorParams(n, gamma, eps, stage))
        for fmt in ("json", "csv"):
            text = export_intervals(s, fmt)
            calls.append(lambda s=s, fmt=fmt: export_intervals(s, fmt))
            calls.append(lambda text=text, fmt=fmt: import_intervals(text, fmt))
    calls += [lambda res=res: emit_operator_grid("sub", res, 2) for res in GRID_RES]
    n, gamma, eps, max_stage = SVG
    calls.append(lambda: render_stages_svg(CantorParams(n, gamma, eps, 0), max_stage))

    result = {}
    for (name, _, _), call in zip(cases(), calls):
        t0 = time.perf_counter()
        out = call()
        result[name] = time.perf_counter() - t0 if mode == "time" else digest(out)
        del out
    result["backend"] = cantordim.BACKEND
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=10,
                        help="worker pairs (one worker per tree without --baseline)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="a second checkout to time against this one")
    parser.add_argument("--worker", choices=("time", "digest"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker)
        return
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")

    trees = {"change": ROOT}
    if args.baseline is not None:
        trees = {"baseline": args.baseline.resolve(), "change": ROOT}
    digests = {label: run_worker(__file__, tree, "digest") for label, tree in trees.items()}
    plan = list(cases())
    for name, _, _ in plan:
        values = {label: d[name] for label, d in digests.items()}
        if len(set(values.values())) != 1:
            sys.exit(f"{name}: the trees give different outputs {values}")

    times = paired_times(__file__, trees, args.repeats, [name for name, _, _ in plan])
    results = []
    for name, layer, size in plan:
        row = {"case": name, "layer": layer, "size": size,
               "median_ms": {label: round(statistics.median(times[label][name]) * 1e3, 2)
                             for label in trees}}
        if "baseline" in trees:
            row.update(paired_ratio(times["baseline"][name], times["change"][name]))
        results.append(row)
        shown = "  ".join(f"{label} {ms:8.1f} ms" for label, ms in row["median_ms"].items())
        verdict = row.get("speedup", "")
        print(f"{name:22s} {shown}" + (f"   {verdict}" if verdict != "" else ""))

    report = {
        "topic": "documents",
        "trees": {label: {"git_rev": git_rev(tree), "backend": digests[label]["backend"]}
                  for label, tree in trees.items()},
        **machine(),
        "pairs" if "baseline" in trees else "repeats": args.repeats,
        "cases": results,
    }
    if "baseline" in trees:
        report["outputs_equal"] = True  # checked above, before timing
    OUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
