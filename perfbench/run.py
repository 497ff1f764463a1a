#!/usr/bin/env python3
"""Benchmark of cantordim: seeded workloads with end-to-end and per-layer metrics.

Run from the root of a checkout; the library and the CLI are run from its
``src`` tree, so every checkout is measured as it stands:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run makes one untimed first pass over the workload's operations and checks
every output in full, then repeats the pass for ``--seconds`` (and at least
the workload's minimum number of passes), checking each later output by
equality with the first. With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A full
report (provenance, failures with their inputs, spans) goes to
``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "_out"

if __name__ == "__main__" and not (SRC / "cantordim" / "__init__.py").is_file():
    sys.exit(f"error: no cantordim source tree at {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import cantordim  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# set-up is measured in this many fresh processes and the median reported
SETUP_PROBES = 5
# interpreter and import start-up probes per traced run, at least; one pair
# runs after each traced pass, so they sample the same machine load as it
START_PROBES = 5

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "rel_err_mean": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SERIALIZE = [f"serialize.{io}_{fmt}" for io in ("export", "import") for fmt in ("json", "csv")]
PER_LAYER = {
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.scalar_ms": "ms",
    "cli.heavy_ms": "ms",
    "arith.calls": "count",
    "arith.busy_ms": "ms",
    "geometry.construct.calls": "count",
    "geometry.construct.intervals": "count",
    "geometry.construct.busy_ms": "ms",
    "estimation.box_count.calls": "count",
    "estimation.box_count.busy_ms": "ms",
    "estimation.box_count.visits": "count",
    "estimation.box_count.ns_per_visit": "ns",
    "estimation.box_count.occupied_cells": "count",
    "estimation.box_count.occupancy_ratio": "ratio",
    "estimation.box_count.bytes_computed": "B",
    "estimation.fit.self_ms": "ms",
    "estimation.verify.self_ms": "ms",
    **{f"{s}.{m}": u for s in _SERIALIZE for m, u in
       (("busy_ms", "ms"), ("bytes", "B"), ("mb_per_s", "MB/s"))},
    "render.svg.busy_ms": "ms",
    "render.svg.bytes": "B",
    "render.grid.busy_ms": "ms",
    "render.grid.cells": "count",
    "render.grid.ns_per_cell": "ns",
    "process.cpu_s": "s",
    "trace.overhead_ratio": "ratio",
    "bench.other_ms": "ms",
}


class Book:
    """Attempted and failed operations, and each distinct failure with its input."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()  # (input, reason) -> count

    def record(self, verdicts, describe) -> None:
        self.attempted += len(verdicts)
        for i, reason in enumerate(verdicts):
            if reason:
                self.failed += 1
                self.failures[(describe(i), reason)] += 1


def tail(samples):
    """The highest percentile with ten samples beyond it: (value, percentile, count)."""
    xs = sorted(samples)
    if len(xs) < 11:
        return xs[-1], 100.0, len(xs)
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs), len(xs)


def timed_children(argv_list, env=None) -> list[float]:
    """Wall seconds of each command, run one after another."""
    times = []
    for argv in argv_list:
        t0 = perf_counter()
        code, output, _ = workloads.run_child(argv, env)
        times.append(perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"{argv} exited with {code}: {output}")
    return times


def setup_seconds(name: str, seed: int, probes: int) -> float:
    """Median time for a fresh process to import cantordim and make the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    return statistics.median(timed_children([argv] * probes))


def start_probe() -> tuple[float, float]:
    """Seconds for a bare interpreter and for one that imports cantordim.cli."""
    return tuple(timed_children(
        [[sys.executable, "-c", "pass"], [sys.executable, "-c", "import cantordim.cli"]],
        workloads.cli_env(SRC),
    ))


def provenance() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_rev = None
    h = hashlib.sha256()
    for path in sorted((SRC / "cantordim").glob("*.py*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "backend": cantordim.BACKEND,
        "backends_importable": sorted(cantordim.available_backends()),
        "git_rev": git_rev,
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the report (metrics, failures, counters, spans)."""
    OUT.mkdir(parents=True, exist_ok=True)
    setup_s = None if trace else setup_seconds(name, seed, 1 if tiny else SETUP_PROBES)
    w = workloads.make(name, seed, tiny=tiny, workdir=OUT / "work")
    book = Book()

    first = w.run_pass()
    first_verdicts = w.check(first.outputs)
    reference = [workloads.fingerprint(o) for o in first.outputs]
    book.record(first_verdicts, w.describe)

    def later_verdicts(outputs):
        return [
            first_verdicts[i] if workloads.fingerprint(o) == reference[i]
            else "output differs from the first pass"
            for i, o in enumerate(outputs)
        ]

    tracer = tracing.Tracer() if trace else None
    min_passes = 1 if tiny else (2 if trace else w.min_passes)
    untraced, traced, starts = [], [], []
    start = perf_counter()
    while (perf_counter() - start < seconds or len(untraced) < min_passes
           or (trace and len(traced) < min_passes)):
        if trace and len(traced) < len(untraced):
            before = Counter(tracer.counters)
            begin = len(tracer.spans)
            with tracing.instrumented(tracer), tracer.span("bench.pass"):
                rec = w.run_pass(tracer)
            _, t0, t1, _ = tracer.spans[begin]
            work = dict(tracer.counters - before)
            work.update(Counter(s[0] for s in tracer.spans[begin:]))
            traced.append({"wall_ns": t1 - t0, "work": work})
            starts.append(start_probe())
        else:
            cpu0 = os.times()
            t0 = perf_counter_ns()
            rec = w.run_pass()
            t1 = perf_counter_ns()
            cpu1 = os.times()
            cpu = sum(cpu1[:4]) - sum(cpu0[:4])
            untraced.append({"wall_ns": t1 - t0, "latencies_ns": rec.latencies_ns, "cpu_s": cpu})
        book.record(later_verdicts(rec.outputs), w.describe)

    while trace and len(starts) < START_PROBES:
        starts.append(start_probe())
    drift = [p["work"] != traced[0]["work"] for p in traced[1:]]
    book.record(
        ["work counters differ from the first traced pass" if d else None for d in drift],
        lambda i: f"traced pass {i + 2} of {name} seed {seed}",
    )

    report = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "input_digest": w.input_digest, "provenance": provenance(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_wall_s": [p["wall_ns"] / 1e9 for p in untraced],
    }
    if trace:
        report.update(per_layer(w, tracer, traced, untraced, starts, book))
    else:
        report.update(end_to_end(w, seed, tiny, first.outputs, untraced, setup_s, book))
    report["attempted"], report["failed"] = book.attempted, book.failed
    report["failures"] = [
        {"input": inp, "reason": reason, "count": n} for (inp, reason), n in book.failures.items()
    ]
    if trace:
        report["spans"] = tracer.spans
    return report


def end_to_end(w, seed, tiny, first_outputs, untraced, setup_s, book) -> dict:
    if w.name == "verify":
        errors = workloads.relative_errors(first_outputs)
        verdicts = w.kernel_parity()
        book.record(verdicts, lambda i: f"kernel parity on {w.describe(i)}")
        parity = (f"{len(verdicts)} cases compared, {sum(map(bool, verdicts))} differ"
                  if verdicts else "not compared: only the python kernel imports")
    else:
        # documents and cli make one or two estimates per pass, whose error
        # alone varies too much between seeds to gate; they run the small
        # verification tier of `verify` untimed and report its mean error
        cases = workloads.accuracy_batch(seed, tiny)
        rec = workloads.Recorder()
        for case in cases:
            rec(lambda: workloads.verify_one(case))
        book.record([workloads.check_verification(o) for o in rec.outputs],
                    lambda i: str(cases[i]))
        errors = workloads.relative_errors(rec.outputs)
        parity = "not compared: the verify workload compares the kernels"
    latencies = [x for p in untraced for x in p["latencies_ns"]]
    tail_ns, tail_pct, count = tail(latencies)
    # each operation at its best time over the run's passes: the host's slow
    # phases, which last 10-20 s and slow every operation by up to 1.6x, then
    # move neither wall_s nor op_p50_ms; op_tail_ms keeps every sample
    best_ns = [min(op) for op in zip(*(p["latencies_ns"] for p in untraced))]
    if w.name == "cli":
        rss_kib = w.peak_child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": sum(best_ns) / 1e9,
        "op_p50_ms": statistics.median(best_ns) / 1e6,
        "op_tail_ms": tail_ns / 1e6,
        "rel_err_mean": statistics.fmean(errors) if errors else float("nan"),
        "setup_s": setup_s,
        "peak_rss_mb": rss_kib / 1024,
    }
    notes = [
        f"wall_s and op_p50_ms take each of the {len(best_ns)} operations at its best time "
        f"over {len(untraced)} passes",
        f"op_tail_ms is the p{tail_pct:.2f} latency: {min(10, count - 1)} of {count} "
        "operations were slower",
        f"rel_err_mean and rel_err_max {max(errors, default=float('nan')):.6g} "
        f"over {len(errors)} verifications",
        f"kernel parity: {parity}",
    ]
    return {"metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()}, "notes": notes}


def per_layer(w, tracer, traced, untraced, starts, book) -> dict:
    passes = len(traced)
    totals = tracing.layer_totals(tracer.spans)
    work = traced[0]["work"]
    wall_ms = sum(p["wall_ns"] for p in traced) / passes / 1e6

    def calls(layer):
        return totals.get(layer, (0, 0, 0))[0] / passes

    def busy_ms(layer):
        return totals.get(layer, (0, 0, 0))[1] / passes / 1e6

    def self_ms(layer):
        return totals.get(layer, (0, 0, 0))[2] / passes / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    def call_median_ms(layer):
        durations = [end - start for name, start, end, _ in tracer.spans if name == layer]
        return statistics.median(durations) / 1e6 if durations else 0.0

    interpreter_ms = statistics.median(bare for bare, _ in starts) * 1e3
    import_ms = statistics.median(imp for _, imp in starts) * 1e3
    visits = work.get("estimation.box_count.visits", 0)
    m = {
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": import_ms,
        "cli.scalar_ms": call_median_ms("cli.scalar"),
        "cli.heavy_ms": call_median_ms("cli.heavy"),
        "arith.calls": calls("arith"),
        "arith.busy_ms": busy_ms("arith"),
        "geometry.construct.calls": calls("geometry.construct"),
        "geometry.construct.intervals": work.get("geometry.construct.intervals", 0),
        "geometry.construct.busy_ms": busy_ms("geometry.construct"),
        "estimation.box_count.calls": calls("estimation.box_count"),
        "estimation.box_count.busy_ms": busy_ms("estimation.box_count"),
        "estimation.box_count.visits": visits,
        "estimation.box_count.ns_per_visit":
            ratio(busy_ms("estimation.box_count") * 1e6, visits),
        "estimation.box_count.occupied_cells": work.get("estimation.box_count.occupied_cells", 0),
        "estimation.box_count.occupancy_ratio":
            ratio(work.get("estimation.box_count.occupied_cells", 0), visits),
        "estimation.box_count.bytes_computed": 16 * visits,
        "estimation.fit.self_ms": self_ms("estimation.fit"),
        "estimation.verify.self_ms": self_ms("estimation.verify"),
        "render.svg.busy_ms": busy_ms("render.svg"),
        "render.svg.bytes": work.get("render.svg.bytes", 0),
        "render.grid.busy_ms": busy_ms("render.grid"),
        "render.grid.cells": work.get("render.grid.cells", 0),
        "render.grid.ns_per_cell":
            ratio(busy_ms("render.grid") * 1e6, work.get("render.grid.cells", 0)),
        "process.cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "trace.overhead_ratio": statistics.median(p["wall_ns"] for p in traced)
        / statistics.median(p["wall_ns"] for p in untraced) - 1.0,
        "bench.other_ms": self_ms("bench.pass"),
    }
    for layer in _SERIALIZE:
        size = work.get(f"{layer}.bytes", 0)
        m[f"{layer}.busy_ms"] = busy_ms(layer)
        m[f"{layer}.bytes"] = size
        m[f"{layer}.mb_per_s"] = ratio(size / 1e6, busy_ms(layer) / 1e3)

    # every span lies in a traced pass, so self times must add up to its wall
    self_total = sum(t[2] for t in totals.values())
    wall_total = sum(p["wall_ns"] for p in traced)
    book.record(
        [None if self_total == wall_total else
         f"layer self times sum to {self_total} ns, traced wall is {wall_total} ns"],
        lambda i: f"trace accounting of {w.name}",
    )
    layer_self = {name: t[2] / passes / 1e6 for name, t in sorted(totals.items())}
    cli_calls = calls("cli.scalar") + calls("cli.heavy")
    shares = {
        "estimation.box_count": ratio(busy_ms("estimation.box_count"), wall_ms),
        "serialize+render": ratio(
            sum(busy_ms(s) for s in _SERIALIZE) + busy_ms("render.svg") + busy_ms("render.grid"),
            wall_ms),
        "cli start-up (calls x cli.import_ms)": ratio(cli_calls * import_ms, wall_ms),
    }
    notes = [
        f"traced wall per pass {wall_ms:.6g} ms = sum of layer self times "
        f"({' + '.join(f'{k} {v:.4g}' for k, v in layer_self.items())})",
        "share of traced wall: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()),
    ]
    return {
        "metrics": {k: (v, PER_LAYER[k]) for k, v in m.items()},
        "notes": notes, "traced_wall_ms": wall_ms, "layer_self_ms": layer_self,
        "shares": shares, "work_per_pass": work,
    }


def result_line(report) -> dict:
    failed = report["failed"]
    return {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }


def print_report(report) -> None:
    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{report['passes']} passes, {attempted} operations attempted, {failed} failed, "
          f"fail_ratio {failed / attempted:.6g}")
    print(f"input_digest {report['input_digest']}")
    print("provenance " + json.dumps(report["provenance"]))
    for f in report["failures"]:
        print(f"FAILED x{f['count']}: {f['input']}: {f['reason']}")
    for name, (value, unit) in report["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    for note in report["notes"]:
        print(note)


def write_report(report) -> Path:
    path = OUT / f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    path.write_text(json.dumps(report) + "\n", encoding="utf-8")
    return path


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by workload."""
    rows, ok, attempted, failed = {}, True, 0, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, v in result["metrics"].items():
            rows[f"{name}.{metric}"] = v
    print()
    for key, v in rows.items():
        print(f"{key:48s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": rows}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        workloads.make(args.workload, args.seed, workdir=OUT / "work")
        return 0
    if args.workload == "all":
        return run_all(args)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(f"report {write_report(report).relative_to(ROOT)}")
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
