"""Tests of the benchmark itself: tiny runs, determinism, span arithmetic, checks.

Run from the root of the repository with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the checkout's src tree on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402
from cantordim import _kernels_py, arith, estimation, geometry, serialize  # noqa: E402
from cantordim.errors import DomainError, OpDomainError  # noqa: E402


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(name, trace):
    report = run.run(name, 3, 0, trace, tiny=True)
    line = run.result_line(report)
    assert line["correct"], report["failures"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == set(run.PER_LAYER if trace else run.END_TO_END)
    for metric in line["metrics"].values():
        assert math.isfinite(metric["value"])
    json.dumps(line)
    if trace:
        assert sum(report["layer_self_ms"].values()) == pytest.approx(report["traced_wall_ms"])


@pytest.mark.parametrize("name", ["verify", "documents"])
def test_same_seed_repeats_inputs_and_work_counters(name):
    a = run.run(name, 11, 0, True, tiny=True)
    b = run.run(name, 11, 0, True, tiny=True)
    assert a["input_digest"] == b["input_digest"]
    assert a["work_per_pass"] == b["work_per_pass"]
    assert a["work_per_pass"]["bench.pass"] == 1


def test_other_seed_gives_other_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        one = workloads.make(name, 1, tiny=True, workdir=tmp_path)
        again = workloads.make(name, 1, tiny=True, workdir=tmp_path)
        other = workloads.make(name, 2, tiny=True, workdir=tmp_path)
        assert one.input_digest == again.input_digest != other.input_digest


def test_self_times_of_a_synthetic_span_tree():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["b", 30, 60, 0],  # overlaps a: together they cover 10..60
        ["c", 15, 25, 1],
        ["d", 90, 120, 0],  # only 90..100 lies inside root
    ]
    assert tracing.self_times(spans) == [40, 20, 30, 10, 30]
    totals = tracing.layer_totals(spans)
    assert totals["root"] == (1, 100, 40)
    assert totals["a"] == (1, 30, 20)


def test_instrumented_restores_the_library():
    original = (estimation.box_count, estimation.OPERATORS, serialize.export_intervals)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        assert estimation.box_count is not original[0]
        s = geometry.construct_prefractal(geometry.CantorParams(2, 0.25, 0.0, 3))
        estimation.estimate_dimension(s)
    assert (estimation.box_count, estimation.OPERATORS, serialize.export_intervals) == original
    names = [span[0] for span in tracer.spans]
    assert names == ["geometry.construct", "estimation.fit"] + ["estimation.box_count"] * 3
    assert tracer.counters["estimation.box_count.visits"] == 3 * 8


def test_corrupted_round_trip_fails_and_is_listed(monkeypatch):
    real = serialize.import_intervals

    def corrupt(data, format="json"):
        s = real(data, format)
        starts = s.starts.copy()
        starts[0] = np.nextafter(starts[0], 1.0)
        return geometry.IntervalSet(starts, s.ends, s.params)

    monkeypatch.setattr(serialize, "import_intervals", corrupt)
    report = run.run("documents", 1, 0, False, tiny=True)
    assert not run.result_line(report)["correct"]
    reasons = {f["input"].split(" ")[0]: f["reason"] for f in report["failures"]}
    assert set(reasons) == {"import_json", "import_csv"}
    assert "bit-identical" in reasons["import_json"]


def test_wrong_cli_value_fails(tmp_path):
    call = workloads.CliCall("scalar", ("dim",), 0, pairs=(("D", 0.5),))
    assert workloads.check_cli_call(call, 0, "D = 0.5\n") is None
    assert "want values" in workloads.check_cli_call(call, 0, "D = 0.50000000000000011\n")
    assert "exit code" in workloads.check_cli_call(call, 1, "error: refused\n")

    w = workloads.make("cli", 1, tiny=True, workdir=tmp_path)
    (name, value), = w.calls[0].pairs
    w.calls[0] = dataclasses.replace(w.calls[0], pairs=((name, np.nextafter(value, 2.0)),))
    verdicts = w.check(w.run_pass().outputs)
    assert verdicts[0] and "want values" in verdicts[0]
    assert verdicts[1:] == [None] * (len(verdicts) - 1)


def test_only_an_op_domain_error_is_a_correct_refusal():
    def refuse(exc):
        def fn():
            raise exc
        return fn

    args = ("op", "sub", "--da", "0.5", "--db", "0.9")
    refusal = workloads._expect("scalar", args, refuse(
        OpDomainError("sub", (0.5, 0.9), "result>1", "sub result exceeds 1")), None)
    assert workloads.check_cli_call(refusal, 1, "error: sub result exceeds 1\n") is None

    # a generic DomainError on an admitted pair is a defect even when the CLI echoes it
    message = "dimension must lie in [0, 1], got 1.0000000000000004"
    defect = workloads._expect("scalar", args, refuse(DomainError(message)), None)
    reason = workloads.check_cli_call(defect, 1, f"error: {message}\n")
    assert reason and "DomainError" in reason


def test_wrong_library_answers_are_defects():
    void = arith.OpResult(0.0, 0.0, False)
    assert "underflow" in workloads._op_answer(0.5)(void)["defect"]
    assert workloads._op_answer(0.0, 0.5)(void)["defect"] is None

    report = estimation.verify_operator_geometrically("add", 0.9, 0.9, 2, 4)
    assert workloads._verify_answer(report)["defect"] is None
    failed = dataclasses.replace(report, status="fail")
    call = workloads._expect("heavy", ("verify",), lambda: failed, workloads._verify_answer)
    assert "status fail" in workloads.check_cli_call(call, 1, f"{failed}\n")


def test_kernel_parity_flags_a_differing_kernel(monkeypatch):
    class OffByOne:
        prefractal_starts = staticmethod(_kernels_py.prefractal_starts)

        @staticmethod
        def box_count(*args):
            return _kernels_py.box_count(*args) + 1

    monkeypatch.setattr(
        workloads.cantordim, "available_backends",
        lambda: {"python": _kernels_py, "off": OffByOne},
    )
    w = workloads.make("verify", 1, tiny=True)
    verdicts = w.kernel_parity()
    assert len(verdicts) == len(w.cases)
    assert all(v == "differ from python: off box counts" for v in verdicts)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
