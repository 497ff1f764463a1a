#!/usr/bin/env python3
"""Time JSON/CSV export and import, grid CSV and SVG rendering; write BENCH_documents.json.

Cases: ``export_intervals`` and ``import_intervals`` in JSON and CSV on
constructed sets of 1e5 and 1e6 intervals and of n=7 stage 6 (117,649
intervals, 7.2 blocks of rows: the perfbench ``documents`` set's size), and
on a set of 1e5 intervals whose every value lies in [1e-9, 1e-5), so is
written in exponent notation. The imports of the n=7 stage 6 set and of the
exponent set are timed a second time with ``serialize._cpus`` patched to 1,
so that those rows show the work per field apart from how it spreads over
threads. The 1e5 set's CSV is imported a second time with CRLF line ends,
which the block reader declines: that row times the one-pass CSV parser,
which reads every CSV not in the exporter's layout. Then
``emit_operator_grid`` for ``sub`` (69% NaN cells) at resolutions 256 and
1024, for ``add`` (no NaN) at 256 and for ``mul`` at 192 (the perfbench
grids); and ``render_stages_svg`` up to stage 5. Each worker process runs
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

# (name, construction params (n, gamma, stage), epsilon eps_reg, or None: the exponent set)
SETS = [("1e5", (10, 0.06, 5)), ("1e6", (10, 0.06, 6)), ("7^6", (7, 0.1, 6)), ("exp 1e5", None)]
EXP_SIZE = 100_000  # intervals of the exponent-notation set
ONE_CPU = ("7^6", "exp 1e5")  # sets whose imports are timed on one usable CPU too
CRLF = "1e5"  # the set whose CSV is imported with CRLF line ends too
GRIDS = [("sub", 256), ("add", 256), ("sub", 1024), ("mul", 192)]  # (operator, resolution)
SVG = (5, 0.1, 0.05, 5)  # n, gamma, epsilon, max_stage


def cases():
    """Case name -> its layer and size, in the order a worker runs them."""
    out = {}
    for label, params in SETS:
        size = params[0] ** params[2] if params else EXP_SIZE
        for fmt in ("json", "csv"):
            out[f"export_{fmt} {label}"] = {"layer": f"serialize.export_{fmt}", "size": size}
            out[f"import_{fmt} {label}"] = {"layer": f"serialize.import_{fmt}", "size": size}
            if label in ONE_CPU:
                out[f"import_{fmt} {label} 1 cpu"] = out[f"import_{fmt} {label}"]
        if label == CRLF:
            out[f"import_csv crlf {label}"] = out[f"import_csv {label}"]
    for op, res in GRIDS:
        out[f"grid {op} res {res}"] = {"layer": "render.grid", "size": res * res}
    out[f"svg stages 0..{SVG[3]}"] = {"layer": "render.svg", "size": SVG[3]}
    return out


def worker(mode: str) -> None:
    """Run every case once in this interpreter; print times or output digests as JSON."""
    from unittest import mock

    import numpy as np

    import cantordim
    from cantordim import (CantorParams, IntervalSet, construct_prefractal, emit_operator_grid,
                           export_intervals, import_intervals, lacunarity_bounds,
                           render_stages_svg, serialize)

    def digest(out) -> str:
        if isinstance(out, tuple):  # (GridSheet, csv text)
            out = out[1]
        if isinstance(out, cantordim.IntervalSet):
            out = out.starts.tobytes() + out.ends.tobytes() + repr(out.params).encode()
        return hashlib.sha256(out if isinstance(out, bytes) else out.encode()).hexdigest()

    def exponent_set():
        """EXP_SIZE disjoint intervals, every endpoint a distinct value in [1e-9, 1e-5)."""
        x = np.unique(10 ** np.random.default_rng(11).uniform(-9, -5, 2 * EXP_SIZE + 100))
        x = x[: 2 * EXP_SIZE]
        return IntervalSet(x[0::2], x[1::2])

    def one_cpu(text, fmt):
        """import_intervals with its shares on this thread alone."""
        with mock.patch.object(serialize, "_cpus", lambda: 1):
            return import_intervals(text, fmt)

    calls = []
    for label, params in SETS:
        if params is None:
            s = exponent_set()
        else:
            n, gamma, stage = params
            eps = lacunarity_bounds(n, gamma).eps_reg
            s = construct_prefractal(CantorParams(n, gamma, eps, stage))
        for fmt in ("json", "csv"):
            text = export_intervals(s, fmt)
            calls.append(lambda s=s, fmt=fmt: export_intervals(s, fmt))
            calls.append(lambda text=text, fmt=fmt: import_intervals(text, fmt))
            if label in ONE_CPU:
                calls.append(lambda text=text, fmt=fmt: one_cpu(text, fmt))
        if label == CRLF:
            crlf = text.replace("\n", "\r\n")  # text is the CSV, the last format exported
            calls.append(lambda crlf=crlf: import_intervals(crlf, "csv"))
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
