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
grids); and ``render_stages_svg`` up to stage 5. Before anything is timed,
the trees must give the same SHA-256 for every exported, rendered and
imported output (import digests cover the arrays and the params). The shared
driver in ``_host.py`` runs each case in its own worker processes, at its
best of the row's ``calls`` (3 for the million-interval sets and the res
1024 grid, 10 below), and writes the paired timings and the report.

Usage: python benchmarks/bench_documents.py [--repeats N] [--baseline DIR]
Writes BENCH_documents.json at the root of the checkout and prints a summary.
"""

import hashlib

from _host import bench

# (name, construction params (n, gamma, stage), epsilon eps_reg, or None: the exponent set)
SETS = [("1e5", (10, 0.06, 5)), ("1e6", (10, 0.06, 6)), ("7^6", (7, 0.1, 6)), ("exp 1e5", None)]
EXP_SIZE = 100_000  # intervals of the exponent-notation set
ONE_CPU = ("7^6", "exp 1e5")  # sets whose imports are timed on one usable CPU too
CRLF = "1e5"  # the set whose CSV is imported with CRLF line ends too
GRIDS = [("sub", 256), ("add", 256), ("sub", 1024), ("mul", 192)]  # (operator, resolution)
SVG = (5, 0.1, 0.05, 5)  # n, gamma, epsilon, max_stage


def row(layer, size):
    """A case's row fields: 3 calls for a million rows or cells, 10 below."""
    return {"layer": layer, "size": size, "calls": 3 if size >= 10**6 else 10}


def cases():
    """Case name -> (its row fields, what ``setup`` builds), in the order the driver runs them."""
    out = {}
    for label, params in SETS:
        size = params[0] ** params[2] if params else EXP_SIZE
        for fmt in ("json", "csv"):
            write = row(f"serialize.export_{fmt}", size)
            out[f"export_{fmt} {label}"] = write, ("export", label, fmt)
            read = row(f"serialize.import_{fmt}", size)
            out[f"import_{fmt} {label}"] = read, ("import", label, fmt)
            if label in ONE_CPU:
                out[f"import_{fmt} {label} 1 cpu"] = read, ("import 1 cpu", label, fmt)
        if label == CRLF:
            out[f"import_csv crlf {label}"] = read, ("import crlf", label, "csv")
    for op, res in GRIDS:
        out[f"grid {op} res {res}"] = row("render.grid", res * res), ("grid", op, res)
    out[f"svg stages 0..{SVG[3]}"] = row("render.svg", SVG[3]), ("svg",)
    return out


CASES = cases()


def setup(name):
    """The case's inputs, built untimed, as ``(prepare, call, answer)`` for the driver.

    The answer is the SHA-256 of the call's output.
    """
    from unittest import mock

    import numpy as np

    from cantordim import (CantorParams, IntervalSet, construct_prefractal, emit_operator_grid,
                           export_intervals, import_intervals, lacunarity_bounds,
                           render_stages_svg, serialize)

    def digest(out) -> str:
        if isinstance(out, tuple):  # (GridSheet, csv text)
            out = out[1]
        if isinstance(out, IntervalSet):
            out = out.starts.tobytes() + out.ends.tobytes() + repr(out.params).encode()
        return hashlib.sha256(out if isinstance(out, bytes) else out.encode()).hexdigest()

    kind, *args = CASES[name][1]
    if kind == "grid":
        op, res = args
        return None, lambda _: emit_operator_grid(op, res, 2), digest
    if kind == "svg":
        n, gamma, eps, max_stage = SVG
        return None, lambda _: render_stages_svg(CantorParams(n, gamma, eps, 0), max_stage), digest

    label, fmt = args
    params = dict(SETS)[label]
    if params is None:  # EXP_SIZE disjoint intervals, every endpoint distinct in [1e-9, 1e-5)
        x = np.unique(10 ** np.random.default_rng(11).uniform(-9, -5, 2 * EXP_SIZE + 100))
        x = x[: 2 * EXP_SIZE]
        s = IntervalSet(x[0::2], x[1::2])
    else:
        n, gamma, stage = params
        s = construct_prefractal(CantorParams(n, gamma, lacunarity_bounds(n, gamma).eps_reg, stage))
    if kind == "export":
        return None, lambda _: export_intervals(s, fmt), digest
    text = export_intervals(s, fmt)
    if kind == "import crlf":
        text = text.replace("\n", "\r\n")
    if kind != "import 1 cpu":
        return None, lambda _: import_intervals(text, fmt), digest

    def one_cpu(_):
        """import_intervals with its shares on this thread alone."""
        with mock.patch.object(serialize, "_cpus", lambda: 1):
            return import_intervals(text, fmt)

    return None, one_cpu, digest


if __name__ == "__main__":
    bench(__file__, __doc__, "documents", {name: fields for name, (fields, _) in CASES.items()},
          setup, equal_key="outputs_equal")
