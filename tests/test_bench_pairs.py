"""The summary of ``tools/bench_pairs.py`` on fixed invocation results."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "run_ref_ratio", "better": "lower"},
              {"name": "peak_rss_mb", "better": "lower"}]


def _invocation(pair, side, ratio, rss, workload="w", trace=0, seed=None,
                failed=0, attempted=10):
    metrics = {"run_ref_ratio": {"value": ratio, "unit": "ratio"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"workload": workload, "seed": pair if seed is None else seed,
            "trace": trace, "pair": pair, "side": side, "order": 0, "exit": 0,
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


# ten pairs: parent ratios 1.00 .. 1.09, change ratios 0.90 .. 0.99 except
# pair 9, where the change loses; memory ties on every pair
PARENT = [1.00 + 0.01 * k for k in range(10)]
CHANGE = [0.90 + 0.01 * k for k in range(9)] + [1.20]


def _pairs():
    invocations = []
    for k in range(10):
        invocations.append(_invocation(k, "parent", PARENT[k], 85.0))
        invocations.append(_invocation(k, "change", CHANGE[k], 85.0, failed=k == 3))
    return invocations


def test_summary_counts_wins_and_spreads():
    summary = bench_pairs.summarize(_pairs(), END_TO_END)["w"]
    ratio = summary["run_ref_ratio"]
    assert ratio["change_wins"] == "9/10"
    assert ratio["parent"]["median"] == pytest.approx(1.045)
    # inclusive quartiles of 1.00 .. 1.09: positions 2.25 and 6.75
    assert ratio["parent"]["q1"] == pytest.approx(1.0225)
    assert ratio["parent"]["q3"] == pytest.approx(1.0675)
    assert ratio["parent_iqr"] == pytest.approx(0.045)
    assert ratio["parent"]["n"] == 10 and ratio["parent"]["max"] == pytest.approx(1.09)
    assert ratio["change"]["median"] == pytest.approx(0.945)
    assert ratio["median_difference"] == pytest.approx(0.10)
    assert ratio["median_change_vs_parent"] == pytest.approx(0.945 / 1.045 - 1.0)
    assert ratio["gain_shown"]
    # ties count for neither side
    assert summary["peak_rss_mb"]["change_wins"] == "0/10"
    assert not summary["peak_rss_mb"]["gain_shown"]
    assert summary["failed_runs"] == {"parent": 0, "change": 1}
    assert summary["attempted_runs"] == {"parent": 100, "change": 100}


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr():
    invocations = _pairs()
    invocations[1]["result"]["metrics"]["run_ref_ratio"]["value"] = 1.5  # 8/10
    assert not bench_pairs.summarize(invocations, END_TO_END)["w"][
        "run_ref_ratio"]["gain_shown"]
    close = []
    for k in range(10):  # wins every pair by 0.001, inside the parent's IQR
        close.append(_invocation(k, "parent", PARENT[k], 85.0))
        close.append(_invocation(k, "change", PARENT[k] - 0.001, 85.0))
    ratio = bench_pairs.summarize(close, END_TO_END)["w"]["run_ref_ratio"]
    assert ratio["change_wins"] == "10/10" and not ratio["gain_shown"]


def test_higher_is_better_metrics_flip_the_direction():
    summary = bench_pairs.summarize(
        _pairs(), [{"name": "run_ref_ratio", "better": "higher"}])["w"]
    assert summary["run_ref_ratio"]["change_wins"] == "1/10"
    assert summary["run_ref_ratio"]["median_difference"] == pytest.approx(-0.10)


def test_traced_pairs_and_broken_invocations():
    invocations = _pairs() + [
        _invocation(10, "parent", 1.0, 85.0, workload="w", trace=1, seed=0),
        _invocation(10, "change", 0.9, 86.0, workload="w", trace=1, seed=0),
        {**_invocation(11, "change", 0.0, 0.0), "exit": 1, "result": None}]
    summary = bench_pairs.summarize(invocations, END_TO_END)
    assert summary["w_traced_seed_0"]["peak_rss_mb"] == {"parent": 85.0, "change": 86.0}
    assert summary["w"]["run_ref_ratio"]["change_wins"] == "9/10"
    assert summary["failed_invocations"] == {"parent": 0, "change": 1}


def test_summary_gives_each_sides_median_run_seconds():
    invocations = _pairs()
    for k, i in enumerate(invocations):  # parent 10 .. 19 ms, change 20 .. 29 ms
        seconds = (10 + k // 2 + (10 if i["side"] == "change" else 0)) / 1000
        i["stdout"] = ["env python=3.11", f"run_s (not gated)   {seconds:g} s      n=9 "
                       f"q1={seconds:g} q3={seconds:g} min={seconds:g} max={seconds:g}"]
    invocations[0]["stdout"] = []  # a side with a missing line uses the others
    summary = bench_pairs.summarize(invocations, END_TO_END)["w"]
    assert summary["run_s_median"] == {"parent": pytest.approx(0.015),
                                       "change": pytest.approx(0.0245)}
    # invocations without the line give no run_s entry
    assert "run_s_median" not in bench_pairs.summarize(_pairs(), END_TO_END)["w"]


def test_benchmark_files_must_match(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text('{"paths": ["bench"]}')
        (tmp_path / side / "bench" / "run.py").write_text("x = 1\n")
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert bench_pairs.same_benchmark(parent, change) == []
    (change / "bench" / "run.py").write_text("x = 2\n")
    assert bench_pairs.same_benchmark(parent, change) == ["bench/run.py"]


FAKE_BENCHMARK = """\
import json, sys
print("workload " + " ".join(sys.argv[1:]))
print("run_s (not gated)                 0.0321 s      n=3")
if "--seed" in sys.argv and sys.argv[sys.argv.index("--seed") + 1] == "7":
    sys.exit(1)
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {}}))
"""


def test_invocations_keep_the_human_readable_lines(tmp_path):
    (tmp_path / "bench.py").write_text(FAKE_BENCHMARK)
    benchmark = {"command": [sys.executable, "bench.py"], "run_seconds": 2}
    entry = bench_pairs.run_invocation(tmp_path, benchmark, "w", 3, 1)
    assert entry["exit"] == 0 and entry["result"]["attempted"] == 3
    assert entry["stdout"] == [
        "workload --workload w --seed 3 --seconds 2 --trace 1",
        "run_s (not gated)                 0.0321 s      n=3"]
    # no JSON line: the result is None and every line is kept
    broken = bench_pairs.run_invocation(tmp_path, benchmark, "w", 7, 0)
    assert broken["exit"] == 1 and broken["result"] is None
    assert broken["stdout"][-1].startswith("run_s (not gated)")
    assert len(broken["stdout"]) == 2
