from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

from ffspin.cli import (ScenarioConfig, main, make_config, parse_config_file,
                        run, validate)

FAST_KEYS = {
    "grid_points": "301",
    "integrator_steps": "2000",
    "output_stride": "200",
}


def _read_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_default_config_is_valid():
    assert validate(ScenarioConfig()) == []


def test_negative_duration_flagged():
    problems = validate(ScenarioConfig(t_ff=-1.0))
    assert any("t_ff must be positive" in p for p in problems)


def test_tiny_grid_flagged():
    problems = validate(ScenarioConfig(grid_points=2))
    assert any("grid_points" in p for p in problems)


def test_stride_must_divide_steps():
    problems = validate(ScenarioConfig(integrator_steps=1000, output_stride=300))
    assert any("multiple" in p for p in problems)


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key"):
        make_config({"velocity": "10"})


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = two_spin\n# comment\nv_bar = 100\n\nt_ff = 0.1\n")
    raw = parse_config_file(cfg)
    config = make_config(raw)
    assert config.model == "two_spin"
    assert config.v_bar == 100.0
    assert config.t_ff == 0.1


def test_config_file_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config_file(cfg)


def test_spectrum_only_outputs(tmp_path):
    config = make_config({"mode": "spectrum_only", "grid_points": "101",
                          "v_bar": "100", "t_ff": "0.1"})
    assert run(config, tmp_path) == 0
    header, rows = _read_csv(tmp_path / "eigenvalues.csv")
    assert header == ["t", "R"] + [f"E_{i}" for i in range(1, 9)]
    assert len(rows) == 101
    energies = np.array([[float(x) for x in row[2:]] for row in rows])
    assert energies.shape == (101, 8)
    assert np.all(np.diff(energies, axis=1) >= -1e-12)
    header, rows = _read_csv(tmp_path / "gap.csv")
    assert header == ["t", "R", "gap"]
    assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-10)
    assert not (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "run_manifest.txt").exists()


def test_regularization_only_two_spin_starts_at_expected_value(tmp_path):
    config = make_config({"mode": "regularization_only", "model": "two_spin",
                          "grid_points": "301"})
    assert run(config, tmp_path) == 0
    header, rows = _read_csv(tmp_path / "regularization.csv")
    assert header == ["t", "R", "w1", "w2"]
    assert float(rows[0][2]) == pytest.approx(0.05, abs=1e-8)
    assert rows[0][3] == ""  # w2 column stays empty for the two-spin model


def test_fast_forward_run_trajectory_schema(tmp_path):
    config = make_config({"model": "two_spin", **FAST_KEYS})
    assert run(config, tmp_path) == 0
    header, rows = _read_csv(tmp_path / "trajectory.csv")
    assert header == ["t", "R", "v", "w1", "w2", "norm", "fidelity",
                      "prob_1", "prob_2", "prob_3", "prob_4"]
    assert len(rows) == 2000 // 200 + 1
    norms = [float(r[5]) for r in rows]
    fids = [float(r[6]) for r in rows]
    assert max(abs(n - 1.0) for n in norms) < 1e-9
    assert min(fids) > 0.999
    assert all(r[4] == "" for r in rows)
    start = rows[0]
    assert float(start[7]) == pytest.approx(0.5, abs=1e-9)
    assert float(start[10]) == pytest.approx(0.5, abs=1e-9)


def test_no_driving_zeroes_coefficient_columns(tmp_path):
    config = make_config({"model": "three_spin_kagome", "mode": "no_driving",
                          **FAST_KEYS})
    assert run(config, tmp_path) == 0
    _, rows = _read_csv(tmp_path / "trajectory.csv")
    assert all(float(r[3]) == 0.0 and float(r[4]) == 0.0 for r in rows)
    _, reg_rows = _read_csv(tmp_path / "regularization.csv")
    assert all(float(r[2]) == 0.0 for r in reg_rows)


def test_manifest_echoes_resolved_config(tmp_path):
    config = make_config({"model": "two_spin", "mode": "regularization_only",
                          "grid_points": "51"})
    assert run(config, tmp_path) == 0
    manifest = (tmp_path / "run_manifest.txt").read_text()
    assert "model=two_spin" in manifest
    assert "grid_points=51" in manifest
    assert "backend=" not in manifest


def test_two_spin_offset_start_follows_even_branch(tmp_path):
    # at r0 = 2.5 the global ground state is the undriven odd-parity level
    # (ud - du)/sqrt(2); the run must still start on the P = +1 branch
    config = make_config({"model": "two_spin", "r0": "2.5", **FAST_KEYS})
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="core system rank")
        assert run(config, tmp_path) == 0
    _, rows = _read_csv(tmp_path / "trajectory.csv")
    start = [float(x) for x in rows[0][7:]]
    assert start[1] == 0.0 and start[2] == 0.0
    assert start[0] + start[3] == pytest.approx(1.0, abs=1e-12)
    _, reg_rows = _read_csv(tmp_path / "regularization.csv")
    assert any(float(r[2]) != 0.0 for r in reg_rows)
    assert min(float(r[6]) for r in rows) > 0.999


def test_in_sector_crossing_fails_before_integration(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--model", "two_spin", "--b0", "5", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "in-sector crossing of the tracked level at r=5 " in err
    assert "change b0 or j0" in err
    assert not (out / "trajectory.csv").exists()
    assert not out.exists()


def test_repeat_runs_byte_identical(tmp_path):
    config = make_config({"model": "three_spin_kagome", **FAST_KEYS})
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert run(config, dir_a) == 0
    assert run(config, dir_b) == 0
    for name in ("trajectory.csv", "regularization.csv", "eigenvalues.csv",
                 "gap.csv", "run_manifest.txt"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_main_validate_ok(capsys):
    assert main(["validate", "--model", "two_spin"]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_main_validate_reports_problems(capsys):
    assert main(["validate", "--t_ff", "-1"]) == 2
    assert "t_ff must be positive" in capsys.readouterr().out


def test_main_run_with_overrides(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--model", "two_spin", "--mode", "regularization_only",
                 "--grid_points", "51", "--out", str(out)])
    assert code == 0
    assert (out / "regularization.csv").exists()


def test_main_rejects_invalid_config(tmp_path, capsys):
    code = main(["run", "--t_ff", "-2", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "t_ff" in capsys.readouterr().err


def test_main_run_config_file_plus_override(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("model=two_spin\nmode=regularization_only\ngrid_points=51\n")
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--grid_points", "101",
                 "--out", str(out)])
    assert code == 0
    _, rows = _read_csv(out / "regularization.csv")
    assert len(rows) == 101
