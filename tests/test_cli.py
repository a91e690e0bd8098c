from __future__ import annotations

import importlib.util
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import ffspin
from ffspin import _csvcells, cli, spectrum
from ffspin.cli import (ScenarioConfig, main, make_config, parse_config_file,
                        run, validate)
from ffspin.model import ModelSpec, h0

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_TRACER_SPEC = importlib.util.spec_from_file_location("tracer", _TRACER_PATH)
_tracer = importlib.util.module_from_spec(_TRACER_SPEC)
_TRACER_SPEC.loader.exec_module(_tracer)

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
    # the other scalar checks, each alone and with its exact message
    for overrides, message in [
        ({"model": "four_spin"}, "model must be one of ('two_spin', "
                                 "'three_spin_kagome'), got 'four_spin'"),
        ({"mode": "sweep"}, "mode must be one of ('fast_forward', 'no_driving', "
                            "'spectrum_only', 'regularization_only'), got 'sweep'"),
        ({"j0": 0.0}, "j0 must be positive"),
        ({"v_bar": -1.0}, "v_bar must be positive"),
        ({"integrator_steps": 0}, "integrator_steps must be positive"),
        ({"output_stride": 0}, "output_stride must be positive"),
    ]:
        assert validate(ScenarioConfig(**overrides)) == [message]


def test_tiny_grid_flagged():
    problems = validate(ScenarioConfig(grid_points=2))
    assert any("grid_points" in p for p in problems)


def test_stride_must_divide_steps():
    problems = validate(ScenarioConfig(integrator_steps=1000, output_stride=300))
    assert any("multiple" in p for p in problems)


@pytest.mark.parametrize("overrides,problem", [
    ({"grid_points": "1000001"}, "grid_points must be at most 1000000"),
    ({"integrator_steps": "2000000", "output_stride": "2"},
     "integrator_steps // output_stride + 1 (the record count) must be at most 1000000"),
])
def test_sizes_above_the_cap_are_rejected(overrides, problem, tmp_path, capsys):
    # memory grows with both: tracking holds about 0.56 KB per grid point
    assert validate(make_config(overrides)) == [problem]
    args = [f"--{k}={v}" for k, v in overrides.items()]
    assert main(["validate", *args]) == 2
    assert capsys.readouterr().out == problem + "\n"
    assert main(["run", *args, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"invalid config: {problem}\n"
    assert not (tmp_path / "out").exists()


def test_sizes_at_the_cap_are_valid():
    assert validate(ScenarioConfig(grid_points=cli.MAX_POINTS)) == []
    assert validate(ScenarioConfig(integrator_steps=cli.MAX_POINTS - 1,
                                   output_stride=1)) == []


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key"):
        make_config({"velocity": "10"})


@pytest.mark.parametrize("key,value,kind", [("integrator_steps", "1e4", "an int"),
                                            ("v_bar", "abc", "a float")])
def test_unparsable_value_names_the_key(key, value, kind, capsys):
    with pytest.raises(ValueError, match=f"^{key} must be {kind}, got '{value}'$"):
        make_config({key: value})
    assert main(["validate", f"--{key}", value]) == 2
    assert capsys.readouterr().err == f"error: {key} must be {kind}, got '{value}'\n"


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


def test_config_file_key_set_twice(tmp_path, capsys):
    # the last line used to win silently: validate said "ok" with j0 = 1
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("j0=10\n# a comment\nmodel=two_spin\n j0 = 1\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{cfg}:4: key 'j0' already set on line 1")):
        parse_config_file(cfg)
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "already set on line 1" in capsys.readouterr().err


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


def test_spectrum_only_does_not_track_the_branch(tmp_path, capsys):
    # the b0 = 5 crossing breaks the tracked branch, not the spectrum, which
    # is all that spectrum_only writes
    args = ["--model", "two_spin", "--b0", "5", "--mode", "spectrum_only"]
    assert main(["validate", *args]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert main(["run", *args, "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "eigenvalues.csv")
    assert len(rows) == 2001
    levels = np.array([[float(x) for x in row[1:]] for row in rows])
    spec = ModelSpec(kind="two_spin", b0=5.0)
    exact = np.linalg.eigvalsh(h0(spec, levels[:, 0]))
    assert np.max(np.abs(levels[:, 1:] - exact)) < 1e-12
    _, gaps = _read_csv(tmp_path / "gap.csv")
    assert len(gaps) == 2001
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "eigenvalues.csv", "gap.csv", "run_manifest.txt"]


#: j0 = 1, b0 = 3, r0 = 0: the reflection-odd level (udd - ddu)/sqrt(2)
#: crosses the branch energy near R = 0.545, between sectors
REFLECTION_CROSSING = ["--model", "three_spin_kagome", "--j0", "1", "--b0", "3",
                       "--r0", "0", "--grid_points", "401",
                       "--integrator_steps", "2000", "--output_stride", "100"]


@pytest.mark.parametrize("v_bar,t_ff", [("10", "1"), ("10", "0.1"), ("100", "0.1")])
def test_crossing_outside_the_branch_sector_runs_clean(v_bar, t_ff, tmp_path, capsys):
    # tracked in the 4-dim P = +1 block these configs failed as an in-sector
    # crossing or a too coarse grid; in the branch sector they run inside the
    # invariants, and gap.csv still shows the full-spectrum crossing
    args = REFLECTION_CROSSING + ["--v_bar", v_bar, "--t_ff", t_ff]
    assert main(["validate", *args]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert main(["run", *args, "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "trajectory.csv")
    columns = dict(zip(header, np.array(rows, dtype=float).T))
    assert 1.0 - columns["fidelity"].min() < 1e-10
    assert np.max(np.abs(columns["norm"] - 1.0)) < 1e-9
    _, rows = _read_csv(tmp_path / "gap.csv")
    r, gap = np.array(rows, dtype=float)[:, 1:].T
    near = (0.5 < r) & (r < 0.6)
    assert np.min(gap[near]) < 0.02 < np.min(gap[(0.3 < r) & (r < 0.45)])
    spec = ModelSpec(kind="three_spin_kagome", j0=1.0, b0=3.0)
    levels = spectrum.branch_vector_at(spec, r)[1]
    assert np.min(levels[:, 1] - levels[:, 0]) > 1.1  # the branch sector's gap
    _, rows = _read_csv(tmp_path / "eigenvalues.csv")
    exact = np.linalg.eigvalsh(h0(spec, r))
    assert np.max(np.abs(np.array(rows, dtype=float)[:, 2:] - exact)) < 1e-12


def test_fast_reflection_crossing_ramp_is_too_coarse(capsys):
    # at v_bar = 100, t_ff = 1 the R step is 0.25: a true "grid too coarse"
    assert main(["validate", *REFLECTION_CROSSING, "--v_bar", "100"]) == 2
    assert "grid too coarse" in capsys.readouterr().out


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


def test_main_validate_tracks_the_branch(capsys):
    assert main(["validate", "--model", "two_spin", "--b0", "5"]) == 2
    out = capsys.readouterr().out
    assert "in-sector crossing" in out and "change b0 or j0" in out
    assert main(["validate", "--grid_points", "5"]) == 2
    assert "grid too coarse" in capsys.readouterr().out


@pytest.mark.parametrize("keys, error", [
    ({"model": "two_spin", "b0": "5"}, "in-sector crossing"),
    ({"grid_points": "5"}, "grid too coarse")], ids=["crossing", "coarse_grid"])
def test_no_driving_run_still_tracks_the_branch(keys, error, tmp_path, capsys):
    # the zero table needs only the grid, but the branch solve is also the
    # run's crossing and coarse-grid check: untracked, the records' fidelity
    # would follow the sector's lowest level, which past a crossing is
    # another level, with no error
    keys = {**keys, "mode": "no_driving"}
    with pytest.raises(RuntimeError, match=error):
        run(make_config(keys), tmp_path / "out")
    assert not (tmp_path / "out").exists()
    assert main(["validate", *(f"--{k}={v}" for k, v in keys.items())]) == 2
    assert error in capsys.readouterr().out


#: the modes whose set-up tracks the branch
TRACKING_MODES = ("fast_forward", "no_driving", "regularization_only")


@pytest.mark.parametrize("keys, modes", [
    (["--model", "two_spin", "--b0", "5"], TRACKING_MODES),
    (["--grid_points", "5"], TRACKING_MODES),
    # the zero table of no_driving has no slopes to overflow its spline
    (["--j0", "0.01", "--v_bar", "1e-150"], cli.COUPLING_MODES)],
    ids=["crossing", "coarse_grid", "spline"])
def test_validate_reports_what_the_run_set_up_raises(keys, modes, tmp_path, capsys):
    # `validate` runs `run`'s own set-up, so it exits 2 with the message that
    # `run` prints after "error: ", in every mode whose set-up fails
    for mode in TRACKING_MODES:
        args = keys + ["--mode", mode]
        out = tmp_path / mode
        fails = mode in modes
        assert main(["run", *args, "--out", str(out)]) == (1 if fails else 0)
        err = capsys.readouterr().err
        assert out.exists() != fails
        assert main(["validate", *args]) == (2 if fails else 0)
        if fails:
            assert err.startswith("error: ")
            assert capsys.readouterr().out == err[len("error: "):]
        else:
            assert (err, capsys.readouterr().out) == ("", "ok\n")


@pytest.mark.parametrize("keys", [{"model": "two_spin", "b0": "5"}, {"grid_points": "5"},
                                  {"j0": "0.01", "v_bar": "1e-150"}],
                         ids=["crossing", "coarse_grid", "spline"])
def test_library_validate_leaves_the_set_up_to_the_commands(keys):
    # validate(config) judges the config alone and tracks nothing, so the
    # configs whose set-up fails above pass it; the commands add the set-up
    config = make_config(keys)
    assert validate(config) == []
    with pytest.raises((RuntimeError, ValueError)):
        cli._table(config)


@pytest.mark.parametrize("model", ["two_spin", "three_spin_kagome"])
def test_spectrum_only_takes_a_grid_that_tracking_could_not(model, tmp_path, capsys):
    # at r0 = 1e16 the tracking grid repeats values (see the test below), but
    # spectrum_only tracks nothing: it reads R(t) on its own time grid
    keys = ["--model", model, "--mode", "spectrum_only", "--r0", "1e16",
            "--v_bar", "4", "--grid_points", "401"]
    assert main(["validate"] + keys) == 0
    assert capsys.readouterr().out == "ok\n"
    assert main(["run"] + keys + ["--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "eigenvalues.csv", "gap.csv", "run_manifest.txt"]
    _, rows = _read_csv(tmp_path / "gap.csv")
    assert len(rows) == 401


def test_eigensolve_calls_do_not_grow_with_grid_or_records(tmp_path, monkeypatch):
    # the spectral layer works on whole stacks: a per-sample or per-record
    # loop would make these counts grow with grid_points or 1/output_stride
    calls = []
    for module in (spectrum, cli):
        def counted(h, _eigensolve=module.eigensolve, _name=module.__name__):
            calls.append(_name)
            return _eigensolve(h)
        monkeypatch.setattr(module, "eigensolve", counted)
    counts = {}
    for grid, stride in (("51", "1"), ("401", "1"), ("51", "100"), ("401", "100")):
        calls.clear()
        config = make_config({"model": "two_spin", "grid_points": grid,
                              "integrator_steps": "400", "output_stride": stride})
        assert run(config, tmp_path / f"{grid}_{stride}") == 0
        counts[grid, stride] = sorted(calls)
    assert len({tuple(c) for c in counts.values()}) == 1, counts
    assert "ffspin.cli" in counts["51", "1"]


def test_fast_forward_run_solves_the_even_block_once_per_r(tmp_path, monkeypatch):
    # tracking and the spectrum CSVs each solve the 3 x 3 branch sector once
    # per grid point, the records once each, and the 3 x 3 P = -1 reversal sums
    # and the 1 x 1 rest and P = -1 contrast blocks once per grid point
    solved = []
    for module in (spectrum, cli):
        def counted(h, _eigensolve=module.eigensolve):
            solved.append((int(np.prod(np.shape(h)[:-2])), np.shape(h)[-1]))
            return _eigensolve(h)
        monkeypatch.setattr(module, "eigensolve", counted)
    config = make_config(FAST_KEYS)
    assert run(config, tmp_path) == 0
    records = config.integrator_steps // config.output_stride + 1
    assert sum(n for n, _ in solved) == 5 * config.grid_points + records, solved
    assert {d for _, d in solved} == {1, 3}
    assert sum(n for n, d in solved if d == 3) == 3 * config.grid_points + records
    assert sum(n for n, d in solved if d == 1) == 2 * config.grid_points


@pytest.mark.parametrize("model", ["two_spin", "three_spin_kagome"])
def test_default_run_makes_no_lapack_call(model, tmp_path, monkeypatch):
    # every block of both models is at most 3 x 3 and real, solved in closed
    # form, and no matrix of a default run takes the LAPACK fallback; the
    # core system is inverted in closed form too.  The six eigensolve calls:
    # tracking, branch_vector_at twice and the three other blocks
    lapack, solves = [], []
    for name in ("eigh", "solve", "inv", "lstsq"):
        def counted_lapack(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            lapack.append(_name)
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted_lapack)
    for module in (spectrum, cli):
        def counted(h, _eigensolve=module.eigensolve):
            solves.append(np.shape(h))
            return _eigensolve(h)
        monkeypatch.setattr(module, "eigensolve", counted)
    assert run(make_config({"model": model}), tmp_path) == 0
    assert lapack == []
    assert len(solves) == 6, solves
    assert max(shape[-1] for shape in solves) <= 3


def test_fast_forward_run_enters_every_traced_layer(tmp_path):
    # the benchmark's own rule, traced as the benchmark traces a run: totals()
    # raises "unmeasured" when the run never enters a name the tracer wraps
    tracer = _tracer.Tracer()
    with tracer.installed():
        assert tracer.call(_tracer.ROOT, run, make_config(FAST_KEYS), tmp_path) == 0
    tracer.totals()


def _csv(header, columns):
    """The CSV bytes that ``_csvcells.emit`` writes for one table."""
    return _csvcells.emit({"": (header, columns)})[""]


def test_csv_matches_per_cell_format():
    special = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, 0.1, -2.5])
    column, matrix = special[:4], special.reshape(4, 2)
    expected = ("a,b,c,d\n" + "".join(
        f"{format(x, '.16e')},,{format(y, '.16e')},{format(z, '.16e')}\n"
        for x, (y, z) in zip(column.tolist(), matrix.tolist()))).encode()
    assert _csv(list("abcd"), [column, None, matrix]) == expected
    expected = ("a,b\n" + "".join(f"{format(x, '.16e')},\n" for x in column.tolist())).encode()
    assert _csv(["a", "b"], [column, None]) == expected


def _per_cell_csv(header, columns):
    """The CSV that ``_csv`` must write, one ``format(x, ".16e")`` at a time."""
    rows = next(len(column) for column in columns if column is not None)
    lines = [",".join(header)]
    for i in range(rows):
        cells = []
        for column in columns:
            cells += [""] if column is None else [
                format(x, ".16e") for x in np.ravel(column[i]).tolist()]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def _count_fallbacks(monkeypatch):
    calls = []
    def counted(x, _fallback=_csvcells.fallback):
        calls.append(x)
        return _fallback(x)
    monkeypatch.setattr(_csvcells, "fallback", counted)
    return calls


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_csv_matches_format_on_any_floats(data):
    # a width of 0 draws an (n,) column, None an empty one
    rows = data.draw(st.integers(1, 12))
    widths = data.draw(st.lists(st.sampled_from([None, 0, 1, 3]), min_size=1,
                                max_size=5).filter(lambda w: set(w) != {None}))
    columns = [None if width is None else data.draw(hnp.arrays(
        np.float64, (rows, width) if width else (rows,), elements=st.floats()))
        for width in widths]
    header = [f"c{i}" for i in range(len(columns))]
    assert _csv(header, columns) == _per_cell_csv(header, columns)


def test_csv_matches_format_on_random_bit_patterns():
    bits = np.random.default_rng(20231).integers(0, 2**64, 200_000, dtype=np.uint64)
    values = bits.view(np.float64).reshape(-1, 4)
    columns = [values[:, 0], None, values[:, 1:]]
    assert _csv(["a", "b", "c"], columns) == _per_cell_csv(["a", "b", "c"], columns)


def test_csv_edge_values_take_the_fast_path(monkeypatch):
    # powers of ten and their neighbours, and values whose 17th digit carries
    # into a new leading digit; only non-finite cells, cells outside
    # [1e-280, 1e280] and exact rounding ties may reach Python's formatting
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    carries = np.array([float(f"9.99999999999999999e{k}") for k in range(-300, 301)])
    edge = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                           carries, np.nextafter(carries, 0),
                           [5e-324, np.finfo(float).max, 0.0, np.inf, np.nan]])
    values = np.concatenate([edge, -edge])
    calls = _count_fallbacks(monkeypatch)
    assert _csv(["x"], [values]) == _per_cell_csv(["x"], [values])
    magnitude = np.abs(values)
    slow = ~((magnitude == 0) | ((magnitude >= 1e-280) & (magnitude <= 1e280)))
    in_range = [x for x in calls if 1e-280 <= abs(x) <= 1e280]
    assert len(calls) - len(in_range) == np.count_nonzero(slow)
    def digits(x):  # the significant digits of the exact value of x
        return "".join(map(str, Decimal(x).as_tuple().digits)).rstrip("0")
    assert all(re.fullmatch(r"[1-9]\d{16}5", digits(x)) for x in in_range)
    assert np.nextafter(1e15, 0) in in_range  # 999999999999999.875, a tie


def _count_cells(monkeypatch):
    """The size of every array passed to ``_csvcells.cells``."""
    sizes = []
    def counted(x, _cells=_csvcells.cells):
        sizes.append(x.size)
        return _cells(x)
    monkeypatch.setattr(_csvcells, "cells", counted)
    return sizes


#: the benchmark's dense two-spin run: its 801 records fall on the 801-point
#: output grid, so t, R and w1 repeat across the files
DENSE_KEYS = {"model": "two_spin", "grid_points": "801", "integrator_steps": "800",
              "output_stride": "1"}


def test_emit_formats_each_distinct_column_once(tmp_path, monkeypatch):
    emitted = []
    def spy(tables, _emit=_csvcells.emit):
        emitted.append(tables)
        return _emit(tables)
    monkeypatch.setattr(_csvcells, "emit", spy)
    sizes = _count_cells(monkeypatch)
    assert run(make_config(DENSE_KEYS), tmp_path) == 0
    [tables] = emitted
    assert len(tables) == 4
    distinct, cells = set(), 0
    for header, columns in tables.values():
        for column in columns:
            if column is not None:
                vectors = np.asarray(column, dtype=float).reshape(len(column), -1).T
                distinct.update(vector.tobytes() for vector in vectors)
                cells += vectors.size
    # the two P = -1 prob columns are exact zeros, and equal too
    assert sum(sizes) == sum(len(key) // 8 for key in distinct) == 11_214 < cells
    assert len(sizes) == -(-sum(sizes) // _csvcells.BLOCK_VALUES)
    for name, (header, columns) in tables.items():
        assert (tmp_path / name).read_bytes() == _per_cell_csv(header, columns)


def test_emit_keeps_signed_zeros_and_nan_payloads_apart(monkeypatch):
    zeros, nans = np.zeros(3), np.full(3, np.nan)
    payload = (nans.view(np.uint64) | np.uint64(1)).view(float)  # another NaN
    columns = [zeros, -zeros, nans, payload, zeros.copy()]
    header = list("abcde")
    sizes = _count_cells(monkeypatch)
    assert _csv(header, columns) == _per_cell_csv(header, columns)
    assert sum(sizes) == 12  # only the copy of `zeros` shares its cells


def test_consecutive_runs_share_no_cached_cells(tmp_path, monkeypatch):
    sizes = _count_cells(monkeypatch)
    per_run, outputs = [], []
    for out in (tmp_path / "first", tmp_path / "second"):
        assert run(make_config(DENSE_KEYS), out) == 0
        per_run.append(sum(sizes))
        sizes.clear()
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert per_run[0] == per_run[1] > 0
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("model", ["two_spin", "three_spin_kagome"])
def test_default_run_formats_no_cell_in_python(model, tmp_path, monkeypatch):
    # the exact-zero P = -1 prob columns included: each fallback cell costs
    # a Python call, so a default run must not need one
    calls = _count_fallbacks(monkeypatch)
    assert run(make_config({"model": model}), tmp_path) == 0
    assert calls == []
    assert _csv(["x"], [np.array([np.nan])]) == b"x\nnan\n"
    assert len(calls) == 1


def _run_python(code: str) -> None:
    src = str(Path(ffspin.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})


def test_import_does_not_load_scipy():
    _run_python("import sys, ffspin.cli; assert 'scipy' not in sys.modules")


def test_import_does_not_load_the_cell_formatter():
    _run_python("import sys, ffspin.cli; assert 'ffspin._csvcells' not in sys.modules")


def test_import_does_not_load_argparse():
    _run_python("import sys, ffspin.cli; assert 'argparse' not in sys.modules")


def test_module_entry_point_validates():
    # `python -m ffspin` is the one module entry point; tools/compare_outputs.py
    # runs every config through it
    src = str(Path(ffspin.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "ffspin", "validate", "--model",
                           "two_spin"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


def test_import_derives_no_sector():
    # the sectors are derived on first use, so start-up does none of it
    _run_python("import ffspin.cli; from ffspin import model; "
                "assert model.sector_basis.cache_info().currsize == 0; "
                "assert model.structural_terms.cache_info().currsize == 0")


def test_run_does_not_load_scipy(tmp_path):
    args = ["run", "--out", str(tmp_path)] + [
        arg for key, value in FAST_KEYS.items() for arg in (f"--{key}", value)]
    _run_python(f"import sys, ffspin.cli; assert ffspin.cli.main({args!r}) == 0; "
                "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
    assert (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["j0", "b0", "r0", "v_bar", "t_ff"])
def test_non_finite_float_names_the_key(key, value, tmp_path, capsys):
    assert main(["validate", f"--{key}", value]) == 2
    assert f"{key} must be finite" in capsys.readouterr().out
    assert main(["run", f"--{key}", value, "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_overflowing_ramp_end_names_the_keys(tmp_path, capsys):
    # every field is finite, but r0 + v_bar * t_ff overflows to inf
    overflow = ["--v_bar", "1e300", "--t_ff", "1e10"]
    problem = "the ramp end r0 + v_bar * t_ff must be finite"
    assert main(["validate"] + overflow) == 2
    assert problem in capsys.readouterr().out
    assert main(["run"] + overflow + ["--out", str(tmp_path / "out")]) == 2
    assert problem in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_r_grid_that_does_not_increase_names_the_keys(tmp_path, capsys):
    # at r0 = 1e16 neighbouring float64 values are 2 apart, so 401 points over
    # a ramp of length 4 repeat values; the spline would stop the run late
    keys = ["--r0", "1e16", "--v_bar", "4", "--grid_points", "401",
            "--integrator_steps", "2000"]
    problem = ("the R grid linspace(r0, r0 + v_bar * t_ff, grid_points) must be "
               "strictly increasing; raise v_bar * t_ff against |r0| or lower "
               "grid_points")
    assert main(["validate"] + keys) == 2
    assert capsys.readouterr().out == problem + "\n"
    assert main(["run"] + keys + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"invalid config: {problem}\n"
    assert not (tmp_path / "out").exists()
    # a ramp long enough for the grid; at |E| ~ 1e16 only a mode without RK4
    # keeps the step count valid
    assert validate(make_config({"r0": "1e16", "v_bar": "1e6",
                                 "mode": "regularization_only"})) == []
    assert validate(make_config({"r0": "1e16", "v_bar": "1e6"}))[0].startswith(
        "integrator_steps must be at least ")


@pytest.mark.parametrize("keys, spacing", [
    (["--v_bar", "1e-160"], "5e-164"),
    (["--t_ff", "1e-160"], "5e-163"),
    (["--v_bar", "1e-80", "--t_ff", "1e-80"], "5e-164"),
    (["--model", "two_spin", "--v_bar", "1e-160"], "5e-164")])
def test_r_grid_too_fine_for_the_spline_names_the_keys(keys, spacing, tmp_path, capsys):
    # validate said "ok", and run printed numpy's overflow warnings from the
    # spline, then failed on a NaN norm drift that named the couplings.  The
    # suite turns a warning into an error, which `run` would report with
    # exit status 1
    problem = (f"the R grid spacing v_bar * t_ff / (grid_points - 1) = {spacing} is "
               "too fine for the couplings' spline, whose coefficients overflow "
               "float64; raise v_bar * t_ff or lower grid_points")
    assert main(["validate"] + keys) == 2
    assert capsys.readouterr().out == problem + "\n"
    assert main(["run"] + keys + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"invalid config: {problem}\n"
    assert not (tmp_path / "out").exists()
    # the modes that interpolate no couplings stay valid
    for mode in ("no_driving", "spectrum_only"):
        assert main(["validate", "--mode", mode] + keys) == 0


def test_r_grid_spacing_of_1e_150_runs_clean(tmp_path):
    # the spacing 5e-154 squared is still a normal float64
    out = tmp_path / "out"
    assert main(["run", "--v_bar", "1e-150", "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()


def test_spline_that_overflows_above_the_spacing_floor_fails_before_writing(
        tmp_path, capsys):
    # slopes dw/dR of order 1 / j0^2 overflow the spline at a spacing that
    # validate accepts; the table names the cause before any file is written
    assert main(["run", "--j0", "0.01", "--v_bar", "1e-150",
                 "--out", str(tmp_path / "small_j0")]) == 1
    assert capsys.readouterr().err == (
        "error: the spline coefficients overflow float64: the r_grid spacing is "
        "too fine for the slopes dw\n")
    assert not (tmp_path / "small_j0").exists()
    assert main(["validate", "--j0", "0.01", "--v_bar", "1e-150"]) == 2
    assert capsys.readouterr().out == (
        "the spline coefficients overflow float64: the r_grid spacing is too fine "
        "for the slopes dw\n")


def test_overflowing_run_fails_on_norm_drift(tmp_path, capsys):
    # at these j0 the products of the RK4 steps overflow, although the stage
    # bound of `_rk4_problem` stays finite.  The step at the ramp ends is
    # far outside RK4's stability interval, so `validate` refuses them by
    # naming the step count; a direct `integrate` call still fails on the
    # non-finite norm drift (tests/test_kernels.py)
    for model, j0, steps, y in [("two_spin", "1e5", 35400, "50"),
                                ("three_spin_kagome", "1e6", 707200, "1e+03")]:
        out = tmp_path / model
        keys = ["--model", model, "--j0", j0] + [
            f"--{key}={value}" for key, value in FAST_KEYS.items()]
        problem = (f"integrator_steps must be at least {steps}, the minimum for RK4 "
                   "stability (a run's norm-drift check may ask for more): at 2000 "
                   f"the RK4 step max|E| dt = {y} at a ramp end is outside the "
                   "stability interval |E| dt <= 2 sqrt(2)")
        assert main(["validate"] + keys) == 2
        assert capsys.readouterr().out == problem + "\n"
        assert main(["run"] + keys + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"invalid config: {problem}\n"
        assert not out.exists()


def test_rk4_stability_check_names_the_smallest_passing_step_count(tmp_path, capsys):
    # y = max|E| dt at the ramp ends; the default three-spin run is far inside
    def ramp_end_step(config):
        ends = h0(cli._spec(config),
                  [config.r0, config.r0 + config.v_bar * config.t_ff], "branch")
        return cli._rk4_step(config, float(np.max(np.abs(spectrum.eigensolve(ends)[0]))))
    config = make_config({"j0": "3644", **FAST_KEYS})
    y, steps = ramp_end_step(config)
    assert y > cli.RK4_STABILITY_LIMIT and steps % 200 == 0
    assert validate(config) == [
        f"integrator_steps must be at least {steps}, the minimum for RK4 stability "
        f"(a run's norm-drift check may ask for more): at 2000 the RK4 step "
        f"max|E| dt = {y:.3g} at a ramp end is outside the stability interval "
        "|E| dt <= 2 sqrt(2)"]
    passing = {"j0": "3644", **FAST_KEYS, "integrator_steps": str(steps)}
    assert cli._rk4_problem(config) == validate(config)[0]
    assert validate(make_config(passing)) == []
    assert validate(make_config({**passing, "integrator_steps": str(steps - 200)})) != []
    assert ramp_end_step(make_config({}))[0] < 0.01
    assert cli._rk4_problem(make_config({})) is None
    # spectrum_only runs no RK4
    assert validate(make_config({"j0": "3644", **FAST_KEYS,
                                 "mode": "spectrum_only"})) == []
    # stability is necessary, not sufficient: near y = 2 sqrt(2) one step
    # loses norm, so the run at the named minimum fails on its drift check
    keys = [f"--{key}={value}" for key, value in passing.items()]
    assert main(["run"] + keys + ["--out", str(tmp_path / "out")]) == 1
    assert "norm drift" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # one ulp above 33 limits, span / limit rounds to 33 exactly, so its
    # ceiling is 33; but span / 33 exceeds the limit and 34 steps are needed
    limit, e_max = cli.RK4_STABILITY_LIMIT, 93.33809511662429
    assert e_max == np.nextafter(33 * limit, np.inf)
    assert math.ceil(e_max / limit) == 33 and e_max / 33 > limit
    config = ScenarioConfig(t_ff=1.0, integrator_steps=100_000, output_stride=1)
    assert cli._rk4_step(config, e_max) == (e_max / 100_000, 34)


@pytest.mark.parametrize("keys,knob", [(["--j0", "1e300"], "j0"),
                                       (["--b0=-1e300"], "b0"),
                                       (["--v_bar", "1e300"], "v_bar"),
                                       (["--model", "two_spin", "--j0", "1e100"], "j0")])
def test_overflowing_rk4_stage_names_the_coupling(keys, knob, tmp_path, capsys):
    # validate said "ok" to j0 = 1e300, and run overflowed in the RK4 stage
    problem = ("the couplings are too large: the RK4 stage matrices overflow "
               f"float64; lower {knob}")
    assert main(["validate"] + keys) == 2
    assert capsys.readouterr().out == problem + "\n"
    assert main(["run"] + keys + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"invalid config: {problem}\n"
    assert not (tmp_path / "out").exists()
    # the spectrum alone runs no RK4 and stays valid
    assert main(["validate", "--mode", "spectrum_only"] + keys) == 0


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
