"""Tests of the benchmark itself, on the reduced ``--smoke`` sizes.

Run from the repository root with ``python -m pytest perfbench``.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ffspin import cli
from tracer import Tracer
from workload import Runner, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["three_spin", "long_ramp", "dense_two_spin"])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_corrupted_fidelity_row_counts_as_failed_run(tmp_path):
    def corrupting_run(config, out):
        status = cli.run(config, out)
        path = Path(out) / cli.TRAJECTORY_CSV
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[5].split(",")
        row[header.index("fidelity")] = "0.5"
        lines[5] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        return status

    config = make_config("three_spin", seed=0, smoke=True)
    clean = Runner(config, tmp_path / "clean")
    assert clean.once() is not None
    corrupted = Runner(config, tmp_path / "corrupted", run_fn=corrupting_run)
    assert corrupted.once() is None
    assert (corrupted.attempted, corrupted.failed) == (1, 1)
    assert any("fidelity" in p for p in corrupted.problems)


def test_traced_run_reports_a_layer_never_entered():
    with pytest.raises(RuntimeError, match="unmeasured"):
        Tracer().totals()
