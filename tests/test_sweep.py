"""The robustness sweep of ``tools/sweep.py``: its outcome counts are pinned,
so a change that moves a config between the groups shows here."""
from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "sweep.py"
_SPEC = importlib.util.spec_from_file_location("sweep", _PATH)
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)


def test_sweep_counts_and_lists_the_failed_runs(capsys):
    assert len(list(sweep.configs())) == 96
    assert sweep.main() == 0
    head, *failed = capsys.readouterr().out.splitlines()
    assert head == "runs clean 72 / validate rejects 5 / validate ok but run fails 19"
    assert len(failed) == 19
    # each is the fast ramp at 2000 steps, stopped by the norm-drift check
    assert all("--v_bar=100 --t_ff=1:" in line and "norm drift" in line
               and "increase the step count" in line for line in failed)
