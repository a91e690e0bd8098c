"""Command line interface: validated flat configs, deterministic CSV output.

Configs are flat ``key=value`` text files; every key can also be overridden
on the command line (``ffspin run --config run.cfg --v_bar 100``).  A run
writes its resolved configuration to ``run_manifest.txt`` next to the CSVs,
and identical configurations produce byte-identical files.

Modes and their outputs:

* ``fast_forward``     trajectory.csv, regularization.csv, eigenvalues.csv, gap.csv
* ``no_driving``       same files, from a coefficient table of zeros (w columns zero)
* ``spectrum_only``    eigenvalues.csv, gap.csv
* ``regularization_only``  regularization.csv

``validate(config)`` judges the config alone, tracking nothing: its keys and
their ranges, the R grid, the spline's grid spacing and the RK4 step.
Configs above ``MAX_POINTS`` grid points or records are rejected.
``ffspin validate`` and ``run`` add ``run``'s set-up, ``_table``: it tracks
the branch on the configured grid and builds the couplings along it, so a
grid too coarse to follow the branch, an in-sector crossing or a spline too
fine for the couplings' slopes is reported before a run, with ``run``'s
message; ``spectrum_only`` reads nothing from the branch, so it neither
tracks nor checks it.

``eigenvalues.csv`` and ``gap.csv`` list all dim levels of h0, merged from
the four invariant blocks of ``model.SECTORS``: the branch sector's levels
come with the branch solve, and every other block (at most 3 x 3, so solved
in closed form) is solved by one ``eigensolve`` call.

``cli`` builds a run's CSVs as (header, columns) tables; their bytes, each
value the text of ``"%.16e" % x``, come from one ``_csvcells.emit`` call,
which formats each distinct column once.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .fastforward import (DEFAULT_STEPS, DEFAULT_STRIDE, FastForwardProfile,
                          integrate, r_of_t)
from .model import MODEL_KINDS, SECTORS, ModelSpec, h0
from .regularization import CoefficientTable, coefficient_table
from .spectrum import branch_vector_at, eigensolve, nearest_level_gap, track_branch

if TYPE_CHECKING:
    import argparse

MODES = ("fast_forward", "no_driving", "spectrum_only", "regularization_only")
#: the modes that propagate with RK4 and write trajectory.csv
INTEGRATING_MODES = ("fast_forward", "no_driving")
#: the modes that solve the driving couplings and interpolate them
COUPLING_MODES = ("fast_forward", "regularization_only")

TRAJECTORY_CSV = "trajectory.csv"
EIGENVALUES_CSV = "eigenvalues.csv"
REGULARIZATION_CSV = "regularization.csv"
GAP_CSV = "gap.csv"
MANIFEST = "run_manifest.txt"
#: the CSVs' coupling columns; a model with fewer generators leaves the rest empty
W_HEADER = ["w1", "w2"]
#: RK4's stability interval on the imaginary axis ends at y = 2 sqrt(2): for
#: a larger y = |E| dt, |R(iy)| > 1 (Hairer & Wanner, Solving ODEs II, IV.2)
RK4_STABILITY_LIMIT = 2.0 * math.sqrt(2.0)
#: cap on grid_points and on the record count; branch tracking holds about
#: 0.56 KB per grid point, so a config at the cap asks for about 560 MB
MAX_POINTS = 1_000_000


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
    integrator_steps: int = DEFAULT_STEPS
    output_stride: int = DEFAULT_STRIDE
    mode: str = "fast_forward"


_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read key=value lines; '#' starts a comment, blank lines ignored, and a
    key set on two lines raises."""
    raw: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in set_on:
            raise ValueError(
                f"{path}:{lineno}: key {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        raw[key] = value
    return raw


def make_config(raw: dict[str, str]) -> ScenarioConfig:
    """Build a ScenarioConfig from string values, rejecting unknown keys."""
    kwargs = {}
    for key, value in raw.items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        kind = _FIELD_TYPES[key]  # a string: annotations are not evaluated
        try:
            kwargs[key] = {"float": float, "int": int}.get(kind, str)(value)
        except ValueError:
            article = "an" if kind == "int" else "a"
            raise ValueError(f"{key} must be {article} {kind}, got {value!r}") from None
    return ScenarioConfig(**kwargs)


def validate(config: ScenarioConfig) -> list[str]:
    """Human-readable list of the config's violations, judged from the config
    alone: the keys and their ranges, the R grid, the spline's grid spacing
    and the RK4 step.  It tracks nothing, so it stays cheap at ``MAX_POINTS``
    grid points; empty does not mean that the set-up, ``_table``, succeeds.
    ``ffspin validate`` and ``run`` run that after it."""
    problems = []
    if config.model not in MODEL_KINDS:
        problems.append(f"model must be one of {MODEL_KINDS}, got {config.model!r}")
    if config.mode not in MODES:
        problems.append(f"mode must be one of {MODES}, got {config.mode!r}")
    for key in ("j0", "b0", "r0", "v_bar", "t_ff"):
        if not math.isfinite(getattr(config, key)):
            problems.append(f"{key} must be finite")
    r0, v_bar, t_ff = config.r0, config.v_bar, config.t_ff
    if (all(map(math.isfinite, (r0, v_bar, t_ff)))
            and not math.isfinite(r0 + v_bar * t_ff)):
        problems.append("the ramp end r0 + v_bar * t_ff must be finite")
    if config.j0 <= 0:
        problems.append("j0 must be positive")
    if config.t_ff <= 0:
        problems.append("t_ff must be positive")
    if config.v_bar <= 0:
        problems.append("v_bar must be positive")
    if config.grid_points < 3:
        problems.append("grid_points must be at least 3 (continuity tracking)")
    elif config.grid_points > MAX_POINTS:
        problems.append(f"grid_points must be at most {MAX_POINTS}")
    if config.integrator_steps < 1:
        problems.append("integrator_steps must be positive")
    if config.output_stride < 1:
        problems.append("output_stride must be positive")
    elif config.integrator_steps % config.output_stride != 0:
        problems.append("integrator_steps must be a multiple of output_stride")
    elif config.integrator_steps // config.output_stride + 1 > MAX_POINTS:
        problems.append(f"integrator_steps // output_stride + 1 (the record count) "
                        f"must be at most {MAX_POINTS}")
    if (not problems and config.mode != "spectrum_only"
            and np.any(np.diff(_r_grid(config)) <= 0)):
        problems.append("the R grid linspace(r0, r0 + v_bar * t_ff, grid_points) must "
                        "be strictly increasing; raise v_bar * t_ff against |r0| or "
                        "lower grid_points")
    if not problems and config.mode in COUPLING_MODES:
        # the spline's cubic coefficients are of order dw/dR / spacing^2
        spacing = config.v_bar * config.t_ff / (config.grid_points - 1)
        if spacing * spacing < sys.float_info.min:
            problems.append(f"the R grid spacing v_bar * t_ff / (grid_points - 1) = "
                            f"{spacing:.3g} is too fine for the couplings' spline, "
                            f"whose coefficients overflow float64; raise "
                            f"v_bar * t_ff or lower grid_points")
    if not problems and config.mode in INTEGRATING_MODES:
        problem = _rk4_problem(config)
        if problem:
            problems.append(problem)
    return problems


def _rk4_problem(config: ScenarioConfig) -> str | None:
    """Why RK4 cannot run the config, or None: its stage matrices can
    overflow float64, or its step lies outside the stability interval.

    Both are judged from h0 on the branch sector at the two ramp ends, where
    v = 0 and H_FF = h0.  h0 is affine in R, so the largest row sum s of
    |h0| there bounds every |level| along the ramp, and b = s dt / 2 bounds
    the row sums of the half-step stages B = (dt/2) A that
    ``fastforward._step_calls`` starts from.  With F = b (1 + b (1 + b)),
    the matrices it forms have row sums up to b (1 + b) (L2), F (L3), b F
    (B1 L3) and 2 (b + b (1 + b) + F + b F) <= 2 F (3 + b) (the partial
    sums of D).  The bound evaluated here, in Python floats, which overflow
    to inf, is s (1 + x (1 + x/2 (1 + x/2))) = s (1 + 2 F) with x = s dt.
    For dt <= 2, b <= s, so every matrix formed stays within twice that
    bound when s >= 3, and below 500 when s < 3.  For dt > 2 they can
    exceed it, and the stability check covers them: a step it accepts has
    max|E| dt <= 2 sqrt(2), so x <= 2 sqrt(6) (a k x k Hermitian matrix's
    row sums are at most sqrt(k) times its largest |level|, and k <= 3) and
    every matrix formed stays below 300.  The ramp-end levels are solved
    only when s allows a step beyond ``RK4_STABILITY_LIMIT``; otherwise the
    step is s's."""
    with np.errstate(over="ignore"):
        ends = h0(_spec(config), [config.r0, config.r0 + config.v_bar * config.t_ff],
                  "branch")
        e_max = float(np.max(np.sum(np.abs(ends), axis=-1)))
    x = e_max * config.t_ff / config.integrator_steps
    if not math.isfinite(e_max * (1.0 + x * (1.0 + 0.5 * x * (1.0 + 0.5 * x)))):
        scales = {"j0": abs(config.j0), "b0": abs(config.b0), "r0": abs(config.r0),
                  "v_bar": config.v_bar * config.t_ff}
        return (f"the couplings are too large: the RK4 stage matrices overflow "
                f"float64; lower {max(scales, key=scales.get)}")
    if x > RK4_STABILITY_LIMIT:
        e_max = float(np.max(np.abs(eigensolve(ends)[0])))
    y, steps = _rk4_step(config, e_max)
    if y > RK4_STABILITY_LIMIT:
        return (f"integrator_steps must be at least {steps}, the minimum for RK4 "
                f"stability (a run's norm-drift check may ask for more): at "
                f"{config.integrator_steps} the RK4 step max|E| dt = {y:.3g} at a "
                f"ramp end is outside the stability interval |E| dt <= 2 sqrt(2)")
    return None


def _rk4_step(config: ScenarioConfig, e_max: float) -> tuple[float, int]:
    """y = e_max dt, the RK4 step of the largest |level| e_max, and the
    smallest step count, a multiple of ``output_stride``, that keeps y within
    ``RK4_STABILITY_LIMIT``."""
    span = e_max * config.t_ff
    steps = max(1, math.ceil(span / RK4_STABILITY_LIMIT))
    while span / steps > RK4_STABILITY_LIMIT:  # ceil of a rounded quotient
        steps += 1
    stride = config.output_stride
    return span / config.integrator_steps, -(-steps // stride) * stride


#: a CSV's header and its (n,) or (n, k) float columns; None is an empty column
Table = tuple[list[str], list[np.ndarray | None]]


def _r_grid(config: ScenarioConfig) -> np.ndarray:
    """The uniform R grid from the ramp start to its end, for tracking."""
    return np.linspace(config.r0, config.r0 + config.v_bar * config.t_ff,
                       config.grid_points)


def _spec(config: ScenarioConfig) -> ModelSpec:
    return ModelSpec(kind=config.model, j0=config.j0, b0=config.b0, r0=config.r0)


def _table(config: ScenarioConfig) -> CoefficientTable | None:
    """A run's set-up: the branch tracked on the configured grid and the
    couplings solved along it, or the zero table in ``no_driving`` (the
    branch is still tracked, as the crossing and coarse-grid check), or
    None in ``spectrum_only``, which reads no branch."""
    if config.mode == "spectrum_only":
        return None
    branch = track_branch(_spec(config), _r_grid(config))
    if config.mode == "no_driving":
        return CoefficientTable.zeros(branch.spec, branch.r_grid)
    return coefficient_table(branch)


def _manifest(config: ScenarioConfig) -> bytes:
    # read by name: asdict() would deep-copy every value, on every run
    lines = [f"{name}={getattr(config, name)}" for name in sorted(_FIELD_TYPES)]
    lines.append(f"ffspin_version={__version__}")
    return ("\n".join(lines) + "\n").encode()


def _spectrum_tables(spec, times, rs) -> tuple[Table, Table]:
    """The eigenvalues and gap tables: the levels of the branch solve and of
    every other block, merged."""
    branch = branch_vector_at(spec, rs)[1]
    others = [eigensolve(h0(spec, rs, sector))[0] for sector in SECTORS
              if sector != "branch"]
    levels = np.sort(np.concatenate([branch, *others], axis=-1), axis=-1)
    gaps = nearest_level_gap(levels, branch[:, 0])
    header = ["t", "R"] + [f"E_{i + 1}" for i in range(spec.dim)]
    return (header, [times, rs, levels]), (["t", "R", "gap"], [times, rs, gaps])


def _w_columns(w: np.ndarray) -> list[np.ndarray | None]:
    """Couplings w as the ``W_HEADER`` columns: empty for a missing generator."""
    return [w] + [None] * (len(W_HEADER) - w.shape[1])


def _trajectory_table(config: ScenarioConfig, profile, table) -> Table:
    run = integrate(profile, steps=config.integrator_steps,
                    output_stride=config.output_stride, table=table)
    header = (["t", "R", "v", *W_HEADER, "norm", "fidelity"]
              + [f"prob_{i + 1}" for i in range(table.spec.dim)])
    return header, [run.t, run.r, run.v, *_w_columns(run.w), run.norm, run.fidelity,
                    np.abs(run.psi) ** 2]


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
    spec = _spec(config)
    profile = FastForwardProfile(v_bar=config.v_bar, t_ff=config.t_ff)
    table = _table(config)
    # the output time grid of the regularization and spectrum CSVs
    times = np.linspace(0.0, config.t_ff, config.grid_points)
    rs = r_of_t(profile, spec.r0, times)
    tables = {}
    if config.mode in INTEGRATING_MODES:
        tables[TRAJECTORY_CSV] = _trajectory_table(config, profile, table)
    if config.mode != "spectrum_only":
        tables[REGULARIZATION_CSV] = (["t", "R", *W_HEADER],
                                      [times, rs, *_w_columns(table(rs))])
    if config.mode != "regularization_only":
        tables[EIGENVALUES_CSV], tables[GAP_CSV] = _spectrum_tables(spec, times, rs)
    # imported here: compiling it at `import ffspin.cli` adds to every start-up
    from ._csvcells import emit

    files = {**emit(tables), MANIFEST: _manifest(config)}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out / name).write_bytes(data)
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
    # imported here: a library `import ffspin.cli` parses no arguments
    import argparse

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
        if not problems:
            try:
                _table(config)
            except (RuntimeError, ValueError) as exc:
                problems.append(str(exc))
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
