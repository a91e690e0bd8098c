"""One workload in a fresh process: gated, timed ``ffspin.cli.run`` calls.

Usage (normally started by ``run.py``, which fixes the environment):

    python3 perfbench/workload.py --workload three_spin --seed 0 \
        --seconds 32 --trace 0 --work .perfbench [--smoke]

Every run is checked by ``gate``; a failing run is counted, never timed.
An untimed warm-up run comes first; its output bytes are the reference that
every timed run must reproduce.
The last line of standard output is a JSON object with the run times, the
gate counts and, when traced, the per-layer figures.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from dataclasses import asdict
from importlib.util import find_spec
from pathlib import Path
from time import perf_counter

import numpy
import scipy
from ffspin import cli
from tracer import ROOT, Tracer, layer_metrics, median_metrics

#: Config overrides per workload; all run in fast_forward mode.  The sizes
#: keep one run under a second, so that the reference loop timed on either
#: side of it (``reference_s``) sees the machine at the speed the run saw,
#: and a run window holds dozens of runs.  The per-step and per-point work is that of the full-size runs, and each
#: workload keeps the ratios of steps, grid points and records that give its
#: layers their shares:
#:  three_spin     the paper's three-spin run at 1/5 size (grid 401, 2000
#:                 steps, 101 records): every layer takes a comparable share;
#:  long_ramp      the RK4 kernel is most of the run and only 11 records
#:                 are written, so spectral changes barely show;
#:  dense_two_spin 4x4 model recording every step: spectral work and CSV
#:                 emission dominate, the kernel is a small share.
#: Fewer than about 1000 steps per unit time breaks the norm gate (RK4 error).
WORKLOADS = {
    "three_spin": {"grid_points": 401, "integrator_steps": 2000,
                   "output_stride": 20},
    "long_ramp": {"grid_points": 201, "integrator_steps": 5000,
                  "output_stride": 500},
    "dense_two_spin": {"model": "two_spin", "grid_points": 801,
                       "integrator_steps": 800, "output_stride": 1},
}
#: Reduced sizes with the same structure, for the benchmark's own tests.
SMOKE = {
    "three_spin": {"grid_points": 201, "integrator_steps": 1000,
                   "output_stride": 10},
    "long_ramp": {"grid_points": 51, "integrator_steps": 1000,
                  "output_stride": 100},
    "dense_two_spin": {"model": "two_spin", "grid_points": 401,
                       "integrator_steps": 800, "output_stride": 2},
}

MAX_INFIDELITY = 1e-10
MAX_NORM_DRIFT = 1e-9
MAX_CORE_RESIDUAL = 1e-8
MIN_ATTEMPTS = 3
#: the reference loop's work: a fixed symmetric 8x8 matrix to diagonalize,
#: and the trip counts of its LAPACK and interpreter parts
REFERENCE_MATRIX = numpy.add.outer(numpy.arange(8.0), numpy.cos(numpy.arange(8.0)))
REFERENCE_MATRIX = REFERENCE_MATRIX + REFERENCE_MATRIX.T
REFERENCE_REPEATS, REFERENCE_EIGH, REFERENCE_LOOP = 10, 100, 15_000
OUTPUTS = (cli.TRAJECTORY_CSV, cli.REGULARIZATION_CSV, cli.EIGENVALUES_CSV,
           cli.GAP_CSV, cli.MANIFEST)


def make_config(workload: str, seed: int, smoke: bool = False) -> cli.ScenarioConfig:
    """Workload config for a seed: seed 0 is the paper's j0=10, others draw
    j0 uniformly from [9, 11].  The cost does not depend on j0; r0 stays 0
    because r0 != 0 two-spin runs follow a different branch."""
    j0 = 10.0 if seed == 0 else random.Random(seed).uniform(9.0, 11.0)
    sizes = (SMOKE if smoke else WORKLOADS)[workload]
    return cli.ScenarioConfig(j0=j0, **sizes)


def _column(rows: list[list[str]], header: list[str], name: str) -> list[float]:
    i = header.index(name)
    return [float(row[i]) for row in rows]


def gate(out: Path, config: cli.ScenarioConfig) -> list[str]:
    """Problems with one run's output directory; empty means it passed."""
    missing = [name for name in OUTPUTS if not (out / name).is_file()]
    if missing:
        return [f"missing outputs {missing}"]
    expected_rows = {
        cli.TRAJECTORY_CSV: config.integrator_steps // config.output_stride + 1,
        cli.REGULARIZATION_CSV: config.grid_points,
        cli.EIGENVALUES_CSV: config.grid_points,
        cli.GAP_CSV: config.grid_points,
    }
    lines = {name: (out / name).read_text().splitlines() for name in expected_rows}
    problems = [f"{name}: {len(lines[name]) - 1} rows, expected {rows}"
                for name, rows in expected_rows.items()
                if len(lines[name]) - 1 != rows]
    try:
        header, *rows = (line.split(",") for line in lines[cli.TRAJECTORY_CSV])
        infidelity = 1.0 - min(_column(rows, header, "fidelity"))
        drift = max(abs(n - 1.0) for n in _column(rows, header, "norm"))
    except (ValueError, IndexError) as exc:
        return problems + [f"{cli.TRAJECTORY_CSV} unreadable: {exc}"]
    if not infidelity <= MAX_INFIDELITY:
        problems.append(f"1 - min fidelity {infidelity:.3e} > {MAX_INFIDELITY}")
    if not drift <= MAX_NORM_DRIFT:
        problems.append(f"max |norm - 1| {drift:.3e} > {MAX_NORM_DRIFT}")
    return problems


def reference_s() -> float:
    """Wall time of a fixed loop of LAPACK and interpreter work (25-40 ms).

    It uses no ffspin code, so a change to the program leaves it alone,
    while a slow stretch of the machine slows it as much as a run.
    """
    start = perf_counter()
    for _ in range(REFERENCE_REPEATS):
        for _ in range(REFERENCE_EIGH):
            numpy.linalg.eigh(REFERENCE_MATRIX)
        total = 0
        for k in range(REFERENCE_LOOP):
            total += k * k
    return perf_counter() - start


def digests(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in OUTPUTS}


class Runner:
    """Gated ``cli.run`` calls of one config, with attempt and failure counts.

    ``run_fn`` replaces ``cli.run`` (looked up at call time) in tests.
    """

    def __init__(self, config: cli.ScenarioConfig, out: Path, run_fn=None):
        self.config = config
        self.out = out
        self.run_fn = run_fn
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bytes_written = 0

    def once(self, tracer=None) -> float | None:
        """One run; returns its wall time, or None if any gate failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        fn = self.run_fn or cli.run
        gc.collect()
        self.attempted += 1
        start = perf_counter()
        try:
            if tracer is None:
                status = fn(self.config, self.out)
            else:
                status = tracer.call(ROOT, fn, self.config, self.out)
        except Exception as exc:  # a crashed run is a failed run, not an abort
            status = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        problems = [] if status == 0 else [f"cli.run ended with {status}"]
        if not problems:
            problems = gate(self.out, self.config)
        if not problems:
            got = digests(self.out)
            if self.reference is None:
                self.reference = got
            changed = sorted(k for k in got if got[k] != self.reference[k])
            if changed:
                problems.append(f"bytes differ from the first run: {changed}")
        if not problems and tracer is not None:
            residual = float(tracer.last["cli.coefficient_table"].residuals.max())
            if not residual <= MAX_CORE_RESIDUAL:
                problems.append(f"core residual {residual:.3e} > {MAX_CORE_RESIDUAL}")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        self.bytes_written = sum(f.stat().st_size for f in self.out.iterdir())
        return elapsed

    def timed(self, seconds: float, modes: tuple[bool, ...] = (False,)):
        """Closed loop of runs for about ``seconds``.

        The runs cycle through ``modes`` (True means traced), so that slow
        and fast stretches of the machine fall on every mode alike; the loop
        ends after a whole cycle and at least MIN_ATTEMPTS runs.  The
        reference loop is timed before the first run and after every run.
        Returns one list per mode of (wall time, ratio, tracer or None) for
        every passing run, where ratio is the wall time over the mean of the
        reference times on either side of the run.  No cycle is started
        that, at the mean pace so far, would end past the budget.
        """
        passed: list[list] = [[] for _ in modes]
        attempts = 0
        start = perf_counter()
        before = reference_s()
        while True:
            slot = attempts % len(modes)
            tracer = Tracer() if modes[slot] else None
            with tracer.installed() if tracer else nullcontext():
                elapsed = self.once(tracer)
            after = reference_s()
            attempts += 1
            if elapsed is not None:
                passed[slot].append((elapsed, 2 * elapsed / (before + after), tracer))
            before = after
            spent = perf_counter() - start
            if attempts >= MIN_ATTEMPTS and slot == len(modes) - 1 \
                    and spent * (attempts + len(modes)) / attempts > seconds:
                return passed


def environment() -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba": "present" if find_spec("numba") else "absent",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True,
                        help="scratch directory for run outputs and spans")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    config = make_config(args.workload, args.seed, args.smoke)
    work = Path(args.work)
    runner = Runner(config, work / f"out-{args.workload}")
    # Warm-up: it takes every code path of the timed runs (lazy imports,
    # first calls) and sets the reference bytes.
    runner.once()
    result: dict[str, object] = {"env": environment(), "config": asdict(config)}
    if args.trace:
        plain, traced = runner.timed(args.seconds, modes=(False, True))
        if plain and traced:
            layers = median_metrics([layer_metrics(tr, config) for *_, tr in traced])
            layers["cli.bytes_written"] = runner.bytes_written
            layers["trace.run_s"] = statistics.median(t for t, *_ in traced)
            layers["trace.overhead_s"] = (layers["trace.run_s"]
                                          - statistics.median(t for t, *_ in plain))
            result["layers"] = layers
            result["samples"] = len(traced)
            traced[-1][2].write(work / f"spans-{args.workload}.csv")
    else:
        runs = runner.timed(args.seconds)[0]
        result["run_s"] = [t for t, _, _ in runs]
        result["run_ratio"] = [r for _, r, _ in runs]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems[:20])
    shutil.rmtree(runner.out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
