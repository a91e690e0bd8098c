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

``ffspin validate`` also tracks the branch on the configured grid, so a grid
too coarse to follow it or an in-sector crossing is reported before a run;
``spectrum_only`` reads nothing from the branch, so it neither tracks nor
checks it.  Configs above ``MAX_POINTS`` grid points or records are rejected.

``eigenvalues.csv`` and ``gap.csv`` list all dim levels of h0, merged from
the three invariant blocks of ``model.SECTORS``: the branch sector's levels
come with the branch solve, and the rest of the P = +1 block (empty or 1 x 1
for these models) and the P = -1 block are each solved whole.

A CSV cell is the text of ``"%.16e" % x``.  A run's CSVs are emitted in one
pass (``_emit``): each distinct column, by its bytes, is formatted once, and
every file gathers its rows from those cells.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .fastforward import (DEFAULT_STEPS, DEFAULT_STRIDE, FastForwardProfile,
                          integrate, r_of_t)
from .model import MODEL_KINDS, ModelSpec, h0
from .regularization import CoefficientTable, coefficient_table
from .spectrum import branch_vector_at, eigensolve, nearest_level_gap, track_branch

MODES = ("fast_forward", "no_driving", "spectrum_only", "regularization_only")
#: the modes that propagate with RK4 and write trajectory.csv
INTEGRATING_MODES = ("fast_forward", "no_driving")

TRAJECTORY_CSV = "trajectory.csv"
EIGENVALUES_CSV = "eigenvalues.csv"
REGULARIZATION_CSV = "regularization.csv"
GAP_CSV = "gap.csv"
MANIFEST = "run_manifest.txt"
#: the CSVs' coupling columns; a model with fewer generators leaves the rest empty
W_HEADER = ["w1", "w2"]
#: cap on grid_points and on the record count; branch tracking holds about
#: 0.56 KB per grid point, so a config at the cap asks for about 560 MB
MAX_POINTS = 1_000_000
#: CSV cells formatted at once, which bounds the formatter's temporaries
_BLOCK_VALUES = 2048


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
        kind = _FIELD_TYPES[key]  # a string: annotations are not evaluated
        try:
            kwargs[key] = {"float": float, "int": int}.get(kind, str)(value)
        except ValueError:
            article = "an" if kind == "int" else "a"
            raise ValueError(f"{key} must be {article} {kind}, got {value!r}") from None
    return ScenarioConfig(**kwargs)


def validate(config: ScenarioConfig) -> list[str]:
    """Human-readable list of violations; empty means the config is runnable."""
    problems = []
    if config.model not in MODEL_KINDS:
        problems.append(f"model must be one of {MODEL_KINDS}, got {config.model!r}")
    if config.mode not in MODES:
        problems.append(f"mode must be one of {MODES}, got {config.mode!r}")
    for key in ("j0", "b0", "r0", "v_bar", "t_ff"):
        if not np.isfinite(getattr(config, key)):
            problems.append(f"{key} must be finite")
    r0, v_bar, t_ff = config.r0, config.v_bar, config.t_ff
    if np.all(np.isfinite([r0, v_bar, t_ff])) and not np.isfinite(r0 + v_bar * t_ff):
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
    if not problems and np.any(np.diff(_r_grid(config)) <= 0):
        problems.append("the R grid linspace(r0, r0 + v_bar * t_ff, grid_points) must "
                        "be strictly increasing; raise v_bar * t_ff against |r0| or "
                        "lower grid_points")
    if not problems and config.mode in INTEGRATING_MODES and _stage_overflows(config):
        scales = {"j0": abs(config.j0), "b0": abs(config.b0), "r0": abs(config.r0),
                  "v_bar": config.v_bar * config.t_ff}
        knob = max(scales, key=scales.get)
        problems.append(f"the couplings are too large: the RK4 stage matrices "
                        f"overflow float64; lower {knob}")
    return problems


def _stage_overflows(config: ScenarioConfig) -> bool:
    """Whether the RK4 stages of the bare part of H_FF can overflow float64.

    With s the largest row sum of |h0| on the branch sector along the ramp
    (at a ramp end, since h0 is affine in R) and x = s dt, the stage
    K4 = A1 (I + dt A (I + dt/2 A (I + dt/2 A))) has row sums up to
    s (1 + x (1 + x/2 (1 + x/2))), and so has every partial sum of its
    matmuls.  That bound is evaluated in Python floats, which overflow to inf.
    """
    with np.errstate(over="ignore"):
        ends = h0(_spec(config), [config.r0, config.r0 + config.v_bar * config.t_ff],
                  "branch")
        s = float(np.max(np.sum(np.abs(ends), axis=-1)))
    x = s * config.t_ff / config.integrator_steps
    return not np.isfinite(s * (1.0 + x * (1.0 + 0.5 * x * (1.0 + 0.5 * x))))


#: a CSV's header and its (n,) or (n, k) float columns; None is an empty column
Table = tuple[list[str], list[np.ndarray | None]]


def _emit(tables: dict[str, Table]) -> dict[str, bytes]:
    """Each table as ASCII CSV bytes, formatting each distinct column once.

    A cell is the bytes of ``"%.16e" % x`` (which round-trips float64), and a
    None column is an empty cell.  Every column vector is keyed by its bytes,
    so bitwise-equal vectors share their cells across all the tables, while
    0.0 and -0.0 stay apart.  The distinct vectors are formatted end to end in
    blocks of ``_BLOCK_VALUES`` cells, and each file gathers its rows of cells
    from them.  Nothing is kept between calls.
    """
    # imported here: compiling it at `import ffspin.cli` adds to every start-up
    from ._csvcells import SLOT, cells

    firsts: dict[bytes, int] = {}  # vector bytes -> its first row of cells
    total = 1  # row 0 of the cells is the empty cell
    layouts = {}
    for name, (header, columns) in tables.items():
        rows = next(len(column) for column in columns if column is not None)
        starts = []  # per CSV column, its first row of cells
        for column in columns:
            if column is None:
                starts.append(0)
                continue
            array = np.asarray(column, dtype=float).reshape(rows, -1)
            for j in range(array.shape[1]):
                key = array[:, j].tobytes()
                if key not in firsts:
                    firsts[key] = total
                    total += rows
                starts.append(firsts[key])
        layouts[name] = header, rows, np.array(starts)
    values = np.frombuffer(b"".join(firsts), dtype=float)
    del firsts  # its keys are a second copy of the values
    grid = np.zeros((total, SLOT), np.uint8)
    for start in range(0, len(values), _BLOCK_VALUES):
        stop = start + _BLOCK_VALUES  # both slices end at the last value
        grid[1 + start:1 + stop] = cells(values[start:stop])
    del values

    files = {}
    for name, (header, rows, starts) in layouts.items():
        separators = np.full(len(starts), ord(","), np.uint8)
        separators[-1] = ord("\n")
        parts = [",".join(header).encode("ascii") + b"\n"]
        block = max(1, _BLOCK_VALUES // len(starts))
        for first in range(0, rows, block):
            offsets = np.arange(first, min(first + block, rows))[:, None]
            # every row of an empty column reads row 0
            part = np.take(grid, starts + offsets * (starts > 0), axis=0)
            part[..., -1] = separators
            parts.append(part.tobytes().translate(None, b"\0"))  # NUL padding goes
        files[name] = b"".join(parts)
    return files


def _csv(header: list[str], columns: list[np.ndarray | None]) -> bytes:
    """The CSV bytes of one table (see ``_emit``)."""
    return _emit({"": (header, columns)})[""]


def _r_grid(config: ScenarioConfig) -> np.ndarray:
    """The uniform R grid from the ramp start to its end, for tracking."""
    return np.linspace(config.r0, config.r0 + config.v_bar * config.t_ff,
                       config.grid_points)


def _spec(config: ScenarioConfig) -> ModelSpec:
    return ModelSpec(kind=config.model, j0=config.j0, b0=config.b0, r0=config.r0)


def _track(config: ScenarioConfig):
    """The branch tracked on the configured grid."""
    return track_branch(_spec(config), _r_grid(config))


def _manifest(config: ScenarioConfig) -> bytes:
    lines = [f"{key}={value}" for key, value in sorted(asdict(config).items())]
    lines.append(f"ffspin_version={__version__}")
    return ("\n".join(lines) + "\n").encode()


def _spectrum_tables(spec, times, rs) -> tuple[Table, Table]:
    """The eigenvalues and gap tables: the levels of the branch solve, of the
    rest of P = +1 and of the solved P = -1 block, merged."""
    branch = branch_vector_at(spec, rs)[1]
    rest, odd = (eigensolve(h0(spec, rs, sector))[0] for sector in ("rest", "odd"))
    levels = np.sort(np.concatenate([branch, rest, odd], axis=-1), axis=-1)
    gaps = nearest_level_gap(levels, branch[:, 0])
    header = ["t", "R"] + [f"E_{i + 1}" for i in range(spec.dim)]
    return (header, [times, rs, levels]), (["t", "R", "gap"], [times, rs, gaps])


def _w_columns(w: np.ndarray) -> list[np.ndarray | None]:
    """Couplings w as the ``W_HEADER`` columns: empty for a missing generator."""
    return [w] + [None] * (len(W_HEADER) - w.shape[1])


def _trajectory_table(config: ScenarioConfig, spec, profile, table) -> Table:
    run = integrate(spec, profile, steps=config.integrator_steps,
                    output_stride=config.output_stride, table=table)
    header = (["t", "R", "v", *W_HEADER, "norm", "fidelity"]
              + [f"prob_{i + 1}" for i in range(spec.dim)])
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
    table = None
    if config.mode == "no_driving":
        table = CoefficientTable.zeros(spec, _track(config).r_grid)
    elif config.mode != "spectrum_only":
        table = coefficient_table(spec, _track(config))
    # the output time grid of the regularization and spectrum CSVs
    times = np.linspace(0.0, config.t_ff, config.grid_points)
    rs = r_of_t(profile, spec.r0, times)
    tables = {}
    if config.mode in INTEGRATING_MODES:
        tables[TRAJECTORY_CSV] = _trajectory_table(config, spec, profile, table)
    if config.mode != "spectrum_only":
        tables[REGULARIZATION_CSV] = (["t", "R", *W_HEADER],
                                      [times, rs, *_w_columns(table(rs))])
    if config.mode != "regularization_only":
        tables[EIGENVALUES_CSV], tables[GAP_CSV] = _spectrum_tables(spec, times, rs)
    files = {**_emit(tables), MANIFEST: _manifest(config)}
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
        # tracked here, not in validate(): run() calls validate() and then tracks
        problems = validate(config)
        if not problems and config.mode != "spectrum_only":
            try:
                _track(config)
            except RuntimeError as exc:
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


if __name__ == "__main__":
    raise SystemExit(main())
