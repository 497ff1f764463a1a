"""The shared driver of the benchmark scripts: the paired verdict, the check before timing, the report."""

import ast
import json
import runpy
import sys
import textwrap
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

from _host import paired_ratio  # noqa: E402
from bench_boxcount import TIERS  # noqa: E402

# a benchmark script whose one case answers with the text of ``answer`` in its tree
STUB = f"""
import json, sys
from pathlib import Path
sys.path.insert(0, {str(BENCHMARKS)!r})
from _host import bench

def worker(mode):
    answer = Path("answer").read_text()
    print(json.dumps({{"only case": 0.001 if mode == "time" else answer, "backend": "stub"}}))

bench(__file__, "A stub benchmark.", "stub", {{"only case": {{"layer": "stub"}}}}, worker,
      equal_key="results_equal")
"""


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
    """Run the stub with a baseline tree; the change tree is ``tmp_path``."""
    (tmp_path / "benchmarks").mkdir()
    script = tmp_path / "benchmarks" / "stub.py"
    script.write_text(textwrap.dedent(STUB))
    baseline = tmp_path / "baseline"
    (baseline / "benchmarks").mkdir(parents=True)
    (baseline / "benchmarks" / "stub.py").write_text(script.read_text())
    (baseline / "answer").write_text(baseline_answer)
    (tmp_path / "answer").write_text(change_answer)
    monkeypatch.setattr(sys, "argv", [str(script), "--repeats", "2", "--baseline", str(baseline)])
    runpy.run_path(str(script), run_name="__main__")
    return tmp_path / "BENCH_stub.json"


def test_trees_that_disagree_stop_the_script_before_any_report(tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_stub(tmp_path, monkeypatch, "1", "2")
    assert exc.value.code not in (0, None)
    assert "the trees give different results" in str(exc.value.code)
    assert not (tmp_path / "BENCH_stub.json").exists()


def test_trees_that_agree_give_the_report(tmp_path, monkeypatch, capsys):
    report = json.loads(run_stub(tmp_path, monkeypatch, "1", "1").read_text())
    assert list(report) == ["topic", "trees", "python", "numpy", "nproc", "cpu_model",
                            "pairs", "cases", "results_equal"]
    assert report["topic"] == "stub"
    assert report["pairs"] == 2 and report["results_equal"] is True
    assert {label: sorted(tree) for label, tree in report["trees"].items()} == {
        "baseline": ["backend", "git_rev"], "change": ["backend", "git_rev"]}
    (row,) = report["cases"]
    assert list(row) == ["case", "layer", "median_ms", "ratio_median", "ratio_iqr",
                         "change_wins", "speedup"]
    assert row["median_ms"] == {"baseline": 1.0, "change": 1.0}
    assert row["speedup"] == "within noise"
    assert "only case" in capsys.readouterr().out


def test_verify_tiers_are_perfbench_stages():
    # bench_boxcount's verify rows claim the stages of perfbench's verify tiers
    names = {f"{tier.upper()}_STAGE": tier for tier in ("small", "medium", "large")}
    tree = ast.parse((BENCHMARKS.parent / "perfbench" / "workloads.py").read_text())
    stages = {names[node.targets[0].id]: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") in names}
    assert stages == TIERS
