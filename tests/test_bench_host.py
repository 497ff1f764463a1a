"""The shared driver of the benchmark scripts: one case per worker, the paired verdict, the
check before timing, the report; and one case of each real script against the library."""

import ast
import contextlib
import io
import json
import re
import runpy
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

from _host import paired_ratio, run_worker  # noqa: E402
from bench_boxcount import TIERS  # noqa: E402

# a benchmark script of two cases. Each worker logs its pid and case to
# workers.log in its tree and answers with the text of ``answer`` there, its
# pid and the calls it made; the check compares the texts alone.
STUB = """
import os, sys, time
from pathlib import Path
sys.path.insert(0, BENCHMARKS)
from _host import agree, bench

CASES = {"slow prepare": {"layer": "stub", "calls": 3}, "four calls": {"layer": "stub", "calls": 4}}

def setup(name):
    with open("workers.log", "a") as log:
        log.write(f"{os.getpid()} {name}\\n")
    made = []
    prepare = (lambda: time.sleep(0.05)) if name == "slow prepare" else None
    answer = lambda _: {"text": Path("answer").read_text(), "pid": os.getpid(), "calls": len(made)}
    return prepare, lambda _: made.append(1), answer

def check(answers, faults):
    agree({label: {name: a[name]["text"] for name in a} for label, a in answers.items()}, CASES)
    return {name: {"pid": {label: a[name]["pid"] for label, a in answers.items()},
                   "calls_made": {label: a[name]["calls"] for label, a in answers.items()}}
            for name in CASES}

bench(__file__, "A stub benchmark.", "stub", CASES, setup, check, equal_key="results_equal")
""".replace("BENCHMARKS", repr(str(BENCHMARKS)))


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.00]  # IQR 0.0175


def faster(times, by, wins):
    """``times`` divided by ``by`` in the first ``wins`` pairs; the rest lose by 5%."""
    return [t / by if i < wins else t * 1.05 for i, t in enumerate(times)]


@pytest.mark.parametrize("baseline, change, verdict", [
    (BASE, faster(BASE, 1.25, 10), 1.25),  # every pair
    (BASE, [t * 1.25 for t in BASE], 0.8),  # a slowdown, by the same rule
    (BASE, faster(BASE, 1.01, 10), "within noise"),  # every pair, but inside the IQR
    (BASE, BASE, "within noise"),
    (BASE, faster(BASE, 1.25, 9), 1.25),  # 9 of 10
    (BASE, faster(BASE, 1.25, 8), "within noise"),  # 8 of 10
    (BASE, [t / 1.25 for t in BASE[:9]] + [BASE[9]], 1.25),  # 9 wins and a tie
    (BASE, [t / 1.25 for t in BASE[:8]] + BASE[8:], "within noise"),  # 8 wins, 2 ties
    (BASE[:4], faster(BASE[:4], 1.25, 4), "within noise"),  # 4 of 4 pairs: too few
])
def test_paired_ratio_needs_nine_in_ten_wins(baseline, change, verdict):
    assert paired_ratio(baseline, change)["speedup"] == verdict


def test_paired_ratio_counts_the_wins_of_the_change():
    row = paired_ratio(BASE, faster(BASE, 1.25, 7))
    assert row["change_wins"] == 7
    assert row["ratio_median"] == 1.25


def run_stub(tmp_path, monkeypatch, baseline_answer, change_answer):
    """Run the stub for 2 pairs with a baseline tree; the change tree is ``tmp_path``."""
    (tmp_path / "benchmarks").mkdir()
    script = tmp_path / "benchmarks" / "stub.py"
    script.write_text(STUB)
    baseline = tmp_path / "baseline"
    (baseline / "benchmarks").mkdir(parents=True)
    (baseline / "benchmarks" / "stub.py").write_text(STUB)
    (baseline / "answer").write_text(baseline_answer)
    (tmp_path / "answer").write_text(change_answer)
    monkeypatch.setattr(sys, "argv", [str(script), "--repeats", "2", "--baseline", str(baseline)])
    runpy.run_path(str(script), run_name="__main__")
    return tmp_path / "BENCH_stub.json"


def worker_log(tree):
    """(pid, case) of each worker that ran in ``tree``, in order."""
    return [tuple(line.split(" ", 1)) for line in (tree / "workers.log").read_text().splitlines()]


def test_trees_that_disagree_stop_the_script_before_any_report(tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_stub(tmp_path, monkeypatch, "1", "2")
    assert exc.value.code not in (0, None)
    assert "the trees give different results" in str(exc.value.code)
    assert not (tmp_path / "BENCH_stub.json").exists()
    # one result worker per case and tree, and no time worker
    for tree in (tmp_path, tmp_path / "baseline"):
        assert [case for _, case in worker_log(tree)] == ["slow prepare", "four calls"]


@pytest.fixture(scope="module")
def stub_report(tmp_path_factory):
    """The stub's report and summary when the trees agree, and the change tree."""
    tree = tmp_path_factory.mktemp("stub")
    with pytest.MonkeyPatch.context() as monkeypatch, io.StringIO() as out:
        with contextlib.redirect_stdout(out):
            report = json.loads(run_stub(tree, monkeypatch, "1", "1").read_text())
        return report, out.getvalue(), tree


def test_trees_that_agree_give_the_report(stub_report):
    report, summary, _ = stub_report
    assert "slow prepare" in summary
    assert list(report) == ["topic", "trees", "python", "numpy", "nproc", "cpu_model",
                            "pairs", "cases", "results_equal"]
    assert report["topic"] == "stub"
    assert report["pairs"] == 2 and report["results_equal"] is True
    # the stub loads no cantordim, so no tree reports a backend
    assert {label: sorted(tree) for label, tree in report["trees"].items()} == {
        "baseline": ["git_rev"], "change": ["git_rev"]}
    assert [row["case"] for row in report["cases"]] == ["slow prepare", "four calls"]
    for row in report["cases"]:
        assert list(row) == ["case", "layer", "calls", "median_ms", "pid", "calls_made",
                             "ratio_median", "ratio_iqr", "change_wins", "speedup"]
        assert row["speedup"] == "within noise"


def test_each_worker_process_runs_one_case(stub_report):
    report, _, change = stub_report
    pids = [pid for row in report["cases"] for pid in row["pid"].values()]
    assert len(set(pids)) == 4  # one result worker per case and tree
    for tree in (change, change / "baseline"):
        log = worker_log(tree)
        assert len({pid for pid, _ in log}) == len(log)  # no process ran a second case
        # per case: one result worker, then one time worker in each of the 2 pairs
        assert sorted(case for _, case in log) == ["four calls"] * 3 + ["slow prepare"] * 3


def test_prepare_is_not_timed(stub_report):
    report, _, _ = stub_report
    (row,) = [row for row in report["cases"] if row["case"] == "slow prepare"]
    assert all(ms < 5 for ms in row["median_ms"].values())  # prepare sleeps 50 ms a call


def test_a_case_is_called_its_calls_times(stub_report):
    report, _, _ = stub_report
    for row in report["cases"]:
        assert row["calls_made"] == {"baseline": row["calls"], "change": row["calls"]}


# one cheap case of each script, run as its result worker against this checkout
REAL_CASES = [("bench_startup.py", "bare interpreter"),
              ("bench_documents.py", "grid mul res 192"),
              ("bench_boxcount.py", "verify small n=2 stage=10")]


@pytest.mark.parametrize("script, case", REAL_CASES)
def test_each_script_answers_a_case_against_the_library(script, case):
    out = run_worker(BENCHMARKS / script, BENCHMARKS.parent, "result", case)
    assert len(out["minor_page_faults"]) >= 3
    assert all(isinstance(f, int) and f >= 0 for f in out["minor_page_faults"])
    answer = out["answer"]
    if script == "bench_startup.py":
        assert answer == {"numpy": False, "dataclasses": False}
        assert "backend" not in out
    elif script == "bench_documents.py":
        assert re.fullmatch("[0-9a-f]{64}", answer)
        assert out["backend"] == "python"
    else:
        status, d_hat = answer
        assert status == "pass" and abs(d_hat - 0.64) < 0.05 * 0.64
        assert out["backend"] == "python"


def test_verify_tiers_are_perfbench_stages():
    # bench_boxcount's verify rows claim the stages of perfbench's verify tiers
    names = {f"{tier.upper()}_STAGE": tier for tier in ("small", "medium", "large")}
    tree = ast.parse((BENCHMARKS.parent / "perfbench" / "workloads.py").read_text())
    stages = {names[node.targets[0].id]: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") in names}
    assert stages == TIERS
