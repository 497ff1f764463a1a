"""Spans recorded around calls into the library's layers, for traced runs only.

The library is not edited: :func:`instrumented` swaps the public entry points
for timing wrappers on the module objects the library itself looks them up
from, and puts the originals back on exit. Spans (name, start, end, parent)
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from cantordim import arith, estimation, geometry, render, serialize


class Tracer:
    """In-memory span and work-counter store for one benchmark process."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counters = Counter()
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span; ``name`` may be a function of the call's arguments.

        ``count(counters, args, kwargs, result)`` adds the call's work counts.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced


def _fmt_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("format", "json")


def _count_box(c, args, kwargs, result):
    c["estimation.box_count.visits"] += len(args[0])
    c["estimation.box_count.occupied_cells"] += result


def _count_construct(c, args, kwargs, result):
    c["geometry.construct.intervals"] += len(result)


def _count_export(c, args, kwargs, result):
    c[f"serialize.export_{_fmt_arg(args, kwargs)}.bytes"] += len(result.encode())


def _count_import(c, args, kwargs, result):
    data = args[0]
    size = len(data) if isinstance(data, bytes) else len(data.encode())
    c[f"serialize.import_{_fmt_arg(args, kwargs)}.bytes"] += size


def _count_svg(c, args, kwargs, result):
    c["render.svg.bytes"] += len(result.encode())


def _count_grid(c, args, kwargs, result):
    c["render.grid.cells"] += result[0].values.size


@contextmanager
def instrumented(tracer: Tracer):
    """Route the library's public entry points through ``tracer`` until exit.

    ``estimation`` resolves ``box_count``, ``estimate_dimension``,
    ``construct_prefractal`` and ``OPERATORS`` through its module globals,
    so patching those attributes also traces the calls it makes internally.
    ``OPERATORS`` is replaced by a new dict: the original is shared with
    ``arith`` and must stay untouched. ``render_stages_svg`` builds its rows
    through ``render``'s own reference and so stays a single render span.
    """
    construct = tracer.wrap(
        "geometry.construct", geometry.construct_prefractal, _count_construct
    )
    patches = [
        (estimation, "box_count",
         tracer.wrap("estimation.box_count", estimation.box_count, _count_box)),
        (estimation, "estimate_dimension",
         tracer.wrap("estimation.fit", estimation.estimate_dimension)),
        (estimation, "verify_operator_geometrically",
         tracer.wrap("estimation.verify", estimation.verify_operator_geometrically)),
        (estimation, "construct_prefractal", construct),
        (geometry, "construct_prefractal", construct),
        (estimation, "OPERATORS",
         {tag: tracer.wrap("arith", fn) for tag, fn in estimation.OPERATORS.items()}),
        (arith, "check_gamma_consistency",
         tracer.wrap("arith", arith.check_gamma_consistency)),
        (serialize, "export_intervals",
         tracer.wrap(lambda *a, **k: f"serialize.export_{_fmt_arg(a, k)}",
                     serialize.export_intervals, _count_export)),
        (serialize, "import_intervals",
         tracer.wrap(lambda *a, **k: f"serialize.import_{_fmt_arg(a, k)}",
                     serialize.import_intervals, _count_import)),
        (render, "render_stages_svg",
         tracer.wrap("render.svg", render.render_stages_svg, _count_svg)),
        (render, "emit_operator_grid",
         tracer.wrap("render.grid", render.emit_operator_grid, _count_grid)),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it covered by its direct children."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for c_start, c_end in sorted(children[idx]):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def layer_totals(spans):
    """name -> (calls, total duration ns, total self time ns)."""
    totals = defaultdict(lambda: [0, 0, 0])
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        t = totals[name]
        t[0] += 1
        t[1] += end - start
        t[2] += own
    return {name: tuple(t) for name, t in totals.items()}
