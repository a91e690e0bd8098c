"""Command line interface: validated flat configs, deterministic CSV output.

Configs are flat ``key=value`` text files; every key can also be overridden
on the command line (``ffspin run --config run.cfg --v_bar 100``).  A run
writes its resolved configuration to ``run_manifest.txt`` next to the CSVs,
and identical configurations produce byte-identical files.

Modes and their outputs:

* ``fast_forward``     trajectory.csv, regularization.csv, eigenvalues.csv, gap.csv
* ``no_driving``       same files, driving disabled (w columns zero)
* ``spectrum_only``    eigenvalues.csv, gap.csv
* ``regularization_only``  regularization.csv
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .fastforward import FastForwardProfile, integrate, r_of_t
from .model import MODEL_KINDS, TWO_SPIN, ModelSpec, h0
from .regularization import coefficient_table
from .spectrum import (branch_vector_at, default_r_grid, eigensolve,
                       nearest_level_gap, track_branch)

MODES = ("fast_forward", "no_driving", "spectrum_only", "regularization_only")

TRAJECTORY_CSV = "trajectory.csv"
EIGENVALUES_CSV = "eigenvalues.csv"
REGULARIZATION_CSV = "regularization.csv"
GAP_CSV = "gap.csv"
MANIFEST = "run_manifest.txt"


@dataclass
class ScenarioConfig:
    """Flat run configuration; defaults give the standard vbar=10, T=1 run."""

    model: str = "three_spin_kagome"
    j0: float = 10.0
    b0: float = 0.0
    r0: float = 0.0
    v_bar: float = 10.0
    t_ff: float = 1.0
    grid_points: int = 2001
    integrator_steps: int = 10000
    output_stride: int = 100
    mode: str = "fast_forward"


_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read key=value lines; '#' starts a comment, blank lines ignored."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        raw[key] = value
    return raw


def make_config(raw: dict[str, str]) -> ScenarioConfig:
    """Build a ScenarioConfig from string values, rejecting unknown keys."""
    kwargs = {}
    for key, value in raw.items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        target = _FIELD_TYPES[key]
        if target in ("float", float):
            kwargs[key] = float(value)
        elif target in ("int", int):
            kwargs[key] = int(value)
        else:
            kwargs[key] = value
    return ScenarioConfig(**kwargs)


def validate(config: ScenarioConfig) -> list[str]:
    """Human-readable list of violations; empty means the config is runnable."""
    problems = []
    if config.model not in MODEL_KINDS:
        problems.append(f"model must be one of {MODEL_KINDS}, got {config.model!r}")
    if config.mode not in MODES:
        problems.append(f"mode must be one of {MODES}, got {config.mode!r}")
    if config.j0 <= 0:
        problems.append("j0 must be positive")
    if config.t_ff <= 0:
        problems.append("t_ff must be positive")
    if config.v_bar <= 0:
        problems.append("v_bar must be positive")
    if config.grid_points < 3:
        problems.append("grid_points must be at least 3 (continuity tracking)")
    if config.integrator_steps < 1:
        problems.append("integrator_steps must be positive")
    if config.output_stride < 1:
        problems.append("output_stride must be positive")
    elif config.integrator_steps % config.output_stride != 0:
        problems.append("integrator_steps must be a multiple of output_stride")
    return problems


def _fmt(x: float) -> str:
    """17 significant digits: round-trips float64 exactly."""
    return format(x, ".16e")


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _uniform_times(config: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, config.t_ff, config.grid_points)


def _spec_profile(config: ScenarioConfig) -> tuple[ModelSpec, FastForwardProfile]:
    spec = ModelSpec(kind=config.model, j0=config.j0, b0=config.b0, r0=config.r0)
    profile = FastForwardProfile(v_bar=config.v_bar, t_ff=config.t_ff)
    return spec, profile


def _manifest(config: ScenarioConfig) -> str:
    lines = [f"{key}={value}" for key, value in sorted(asdict(config).items())]
    lines.append(f"ffspin_version={__version__}")
    return "\n".join(lines) + "\n"


def _eigenvalues_and_gap_csv(config: ScenarioConfig, spec, profile,
                             branch) -> tuple[str, str]:
    times = _uniform_times(config)
    eig_rows = []
    gap_rows = []
    for t, r in zip(times, r_of_t(profile, spec.r0, times)):
        w, _ = eigensolve(h0(spec, r))
        eig_rows.append([_fmt(t), _fmt(r)] + [_fmt(e) for e in w])
        _, e_branch = branch_vector_at(spec, branch, float(r))
        gap_rows.append([_fmt(t), _fmt(r), _fmt(nearest_level_gap(w, e_branch))])
    header = ["t", "R"] + [f"E_{i + 1}" for i in range(spec.dim)]
    return _csv(header, eig_rows), _csv(["t", "R", "gap"], gap_rows)


def _regularization_csv(config: ScenarioConfig, spec, profile, table,
                        zero_driving: bool) -> str:
    times = _uniform_times(config)
    rs = r_of_t(profile, spec.r0, times)
    coeffs = table(rs)
    w1s = np.zeros_like(rs) if zero_driving else coeffs.w1
    w2s = np.zeros_like(rs) if zero_driving else coeffs.w2
    two_spin = spec.kind == TWO_SPIN
    rows = ([_fmt(t), _fmt(r), _fmt(w1), "" if two_spin else _fmt(w2)]
            for t, r, w1, w2 in zip(times, rs, w1s, w2s))
    return _csv(["t", "R", "w1", "w2"], rows)


def _trajectory_csv(config: ScenarioConfig, spec, profile, branch, table) -> str:
    records = integrate(spec, profile, steps=config.integrator_steps,
                        output_stride=config.output_stride,
                        branch=branch, table=table,
                        drive=(config.mode != "no_driving"))
    two_spin = spec.kind == TWO_SPIN
    header = (["t", "R", "v", "w1", "w2", "norm", "fidelity"]
              + [f"prob_{i + 1}" for i in range(spec.dim)])
    rows = ([_fmt(rec.t), _fmt(rec.r), _fmt(rec.v), _fmt(rec.coeffs.w1),
             "" if two_spin else _fmt(rec.coeffs.w2),
             _fmt(rec.norm), _fmt(rec.fidelity)]
            + [_fmt(p) for p in np.abs(rec.psi) ** 2]
            for rec in records)
    return _csv(header, rows)


def run(config: ScenarioConfig, out_dir: str | Path) -> int:
    """Execute one scenario, writing its output files; returns the exit status.

    Every file is computed before the output directory is created, so a run
    that fails leaves nothing behind.
    """
    problems = validate(config)
    if problems:
        for p in problems:
            print(f"invalid config: {p}", file=sys.stderr)
        return 2
    spec, profile = _spec_profile(config)
    grid = default_r_grid(spec, profile.r_end(spec.r0), config.grid_points)
    branch = track_branch(spec, grid)
    table = None
    if config.mode != "spectrum_only":
        table = coefficient_table(spec, branch)
    files = {}
    if config.mode in ("fast_forward", "no_driving"):
        files[TRAJECTORY_CSV] = _trajectory_csv(config, spec, profile, branch, table)
    if config.mode != "spectrum_only":
        files[REGULARIZATION_CSV] = _regularization_csv(
            config, spec, profile, table, zero_driving=(config.mode == "no_driving"))
    if config.mode != "regularization_only":
        files[EIGENVALUES_CSV], files[GAP_CSV] = _eigenvalues_and_gap_csv(
            config, spec, profile, branch)
    files[MANIFEST] = _manifest(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    return 0


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None,
                        help="path to a key=value config file")
    for f in fields(ScenarioConfig):
        parser.add_argument(f"--{f.name}", type=str, default=None,
                            help=f"override config key {f.name}")


def _resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    raw: dict[str, str] = {}
    if args.config is not None:
        raw.update(parse_config_file(args.config))
    for f in fields(ScenarioConfig):
        value = getattr(args, f.name)
        if value is not None:
            raw[f.name] = value
    return make_config(raw)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ffspin",
        description="Fast-forward dynamics of small XY spin clusters")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a scenario and write CSV output")
    _add_config_arguments(run_parser)
    run_parser.add_argument("--out", type=str, default="ffspin_out",
                            help="output directory (default: ffspin_out)")

    val_parser = sub.add_parser("validate", help="check a config and exit")
    _add_config_arguments(val_parser)

    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        problems = validate(config)
        if problems:
            for p in problems:
                print(p)
            return 2
        print("ok")
        return 0

    try:
        return run(config, args.out)
    except Exception as exc:  # surface module errors as a diagnostic, not a trace
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
