#!/usr/bin/env python3
"""Time JSON/CSV export and import, grid CSV and SVG rendering; write BENCH_documents.json.

Cases: ``export_intervals`` and ``import_intervals`` in JSON and CSV on
constructed sets of 1e5 and 1e6 intervals, ``emit_operator_grid`` for
``sub`` (69% NaN cells) at resolutions 256 and 1024 and for ``add`` (no NaN)
at 256, and ``render_stages_svg`` up to stage 5. Each worker process runs
every case once, against one tree. Before anything is timed, the trees must
give the same SHA-256 for every exported, rendered and imported output
(import digests cover the arrays and the params). The shared driver in
``_host.py`` runs the workers, the paired timings and the report.

Usage: python benchmarks/bench_documents.py [--repeats N] [--baseline DIR]
Writes BENCH_documents.json at the root of the checkout and prints a summary.
"""

import hashlib
import json
import time

from _host import bench

# (name, construction params (n, gamma, stage); epsilon is eps_reg)
SETS = [("1e5", (10, 0.06, 5)), ("1e6", (10, 0.06, 6))]
GRIDS = [("sub", 256), ("add", 256), ("sub", 1024)]  # (operator, resolution)
SVG = (5, 0.1, 0.05, 5)  # n, gamma, epsilon, max_stage


def cases():
    """Case name -> its layer and size, in the order a worker runs them."""
    out = {}
    for label, (n, _, stage) in SETS:
        for fmt in ("json", "csv"):
            out[f"export_{fmt} {label}"] = {"layer": f"serialize.export_{fmt}", "size": n**stage}
            out[f"import_{fmt} {label}"] = {"layer": f"serialize.import_{fmt}", "size": n**stage}
    for op, res in GRIDS:
        out[f"grid {op} res {res}"] = {"layer": "render.grid", "size": res * res}
    out[f"svg stages 0..{SVG[3]}"] = {"layer": "render.svg", "size": SVG[3]}
    return out


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
    calls += [lambda op=op, res=res: emit_operator_grid(op, res, 2) for op, res in GRIDS]
    n, gamma, eps, max_stage = SVG
    calls.append(lambda: render_stages_svg(CantorParams(n, gamma, eps, 0), max_stage))

    result = {}
    for name, call in zip(cases(), calls):
        t0 = time.perf_counter()
        out = call()
        result[name] = time.perf_counter() - t0 if mode == "time" else digest(out)
        del out
    result["backend"] = cantordim.BACKEND
    print(json.dumps(result))


if __name__ == "__main__":
    bench(__file__, __doc__, "documents", cases(), worker, equal_key="outputs_equal")
