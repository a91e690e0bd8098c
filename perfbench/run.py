"""Benchmark of ``ffspin run``: run time, set-up time and memory per workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload three_spin --seed 0 --seconds 32 --trace 0

Workloads (see ``workload.py``): three_spin, long_ramp, dense_two_spin.
Each is a closed loop with one client: one ``ffspin.cli.run`` call at a time
in a fresh single-BLAS-thread process, after one untimed warm-up run.

With ``--trace 0`` the end-to-end metrics are measured untraced:

* run_ref_ratio  median over the gated runs of a run's wall time divided by
                 the wall time of a fixed reference loop timed beside it;
* setup_s        median time from a fresh interpreter to ``import ffspin.cli``;
* peak_rss_mb    peak resident memory of the workload process.

``run_ref_ratio`` is the run time in units of the reference loop
(``workload.reference_s``), which uses no ffspin code.  On a shared host the
speed of a core changes by up to 1.8x for stretches of seconds to minutes,
and the run times in seconds with it; the reference, timed right before and
after each run, slows down alike, so the ratio stays put.  The run times in
seconds are printed beside it, not gated.

With ``--trace 1`` the runs alternate between untraced and traced, with
every layer entry point wrapped (``tracer.py``), and the per-layer figures
are reported; the spans of the last traced run are written to
``.perfbench/``.

A run that fails any gate is counted in ``failed`` and excluded from the
times; ``failed / attempted`` is the failure fraction.  Human-readable lines
come first; the last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
#: BLAS threads for the workload processes: the matrices are 4x4 and 8x8,
#: so one thread is fastest and keeps runs from competing for the cores.
BLAS_THREADS = "1"
#: seconds the whole invocation may take
TIME_LIMIT = 170.0

END_TO_END_UNITS = {"run_ref_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "spectrum.track_s": "s",
    "spectrum.eigensolve_calls": "count",
    "spectrum.eigensolve_s": "s",
    "spectrum.eigensolves_per_point": "ratio",
    "spectrum.branch_vector_at_calls": "count",
    "spectrum.branch_vector_at_s": "s",
    "regularization.coefficients_s": "s",
    "fastforward.integrate_s": "s",
    "fastforward.records_s": "s",
    "fastforward.kernel_s": "s",
    "fastforward.ns_per_step": "ns",
    "fastforward.records": "count",
    "cli.emit_s": "s",
    "cli.bytes_written": "bytes",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def setup_times(env: dict[str, str], repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import ffspin.cli"], env=env,
                       cwd=ROOT, check=True, timeout=60)
        times.append(perf_counter() - start)
    return times


def run_workload(args, env: dict[str, str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(WORK)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=timeout,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(name: str, samples: list[float], unit: str) -> str:
    """name, median and unit, with the sample count, quartiles and extremes."""
    median = statistics.median(samples)
    q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else (median, median, median))
    return (f"{name:<34} {median:>14.6g} {unit:<6} n={len(samples)} "
            f"q1={q1:.6g} q3={q3:.6g} min={min(samples):.6g} max={max(samples):.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes and set-up repeats, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ffspin" / "cli.py").is_file():
        print(f"error: no ffspin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    began = perf_counter()
    env = child_env()
    WORK.mkdir(exist_ok=True)
    try:
        setup = ([] if args.trace
                 else setup_times(env, 2 if args.smoke else SETUP_REPEATS))
        result = run_workload(args, env, TIME_LIMIT - (perf_counter() - began))
    except (subprocess.SubprocessError, OSError, ValueError, IndexError) as exc:
        print(f"error: benchmark did not complete: {exc}", file=sys.stderr)
        return 1

    print("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    print(f"workload {args.workload} seed={args.seed} config={result['config']}")
    for problem in result["problems"]:
        print(f"gate failed: {problem}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'failed_frac':<34} {failed / attempted:>14.6g} {'':<6} "
          f"({failed} of {attempted} runs)")
    if args.trace:
        if "layers" not in result:
            print("error: no traced run passed its gates", file=sys.stderr)
            return 1
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        for name, m in metrics.items():
            print(f"{name:<34} {m['value']:>14.6g} {m['unit']:<6} "
                  f"n={result['samples']} (median over traced runs)")
    else:
        if not result["run_s"]:
            print("error: no timed run passed its gates", file=sys.stderr)
            return 1
        samples = {"run_ref_ratio": result["run_ratio"], "setup_s": setup,
                   "peak_rss_mb": [result["peak_rss_mb"]]}
        metrics = {}
        for name, unit in END_TO_END_UNITS.items():
            print(summary(name, samples[name], unit))
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
        print(summary("run_s (not gated)", result["run_s"], "s"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
