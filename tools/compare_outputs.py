"""Output files of two checkouts compared byte for byte on a fixed set of runs.

Usage, from the repository root, with two clean copies of commits (for
example made by ``git archive``):

    python3 tools/compare_outputs.py --parent ../parent --change ../change \\
        [--work DIR]

Each config in ``CONFIGS`` is run twice with ``python -m ffspin run`` on each
side, with that checkout's ``src/`` first on ``PYTHONPATH``, one run at a
time.  The configs cover both models in every mode at the defaults, the
benchmark's three workload sizes at seed 0 (``perfbench/workload.py``), the
fast undriven three-spin control, the two-spin run from r0 = 2.5, the
three-spin run across the reflection-odd crossing (j0 = 1, b0 = 3), whose
core system is the worst conditioned of the robustness sweep (min |C1| =
0.137), and a three-spin run whose record interval of 1000 steps is longer
than ``fastforward.CHUNK_STEPS``, so that each interval is propagated in
pieces of 512 and 488 steps.

For every output file the report says whether the parent's and the change's
bytes are identical, and otherwise gives the largest |change - parent| of
each CSV column that differs.  It also says whether each side's rerun
reproduced its first run byte for byte.  The exit status is 0 when every file
is identical across the sides and across the reruns, and 1 otherwise.
"""
from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
OUTPUTS = ("trajectory.csv", "regularization.csv", "eigenvalues.csv", "gap.csv",
           "run_manifest.txt")
MODES = ("fast_forward", "no_driving", "spectrum_only", "regularization_only")
#: name -> ``ffspin run`` arguments
CONFIGS = {
    **{f"{model}_{mode}": ["--model", model, "--mode", mode]
       for model in ("three_spin_kagome", "two_spin") for mode in MODES},
    "bench_three_spin": ["--grid_points", "401", "--integrator_steps", "2000",
                         "--output_stride", "20"],
    "bench_long_ramp": ["--grid_points", "201", "--integrator_steps", "5000",
                        "--output_stride", "500"],
    "bench_dense_two_spin": ["--model", "two_spin", "--grid_points", "801",
                             "--integrator_steps", "800", "--output_stride", "1"],
    "three_spin_fast_no_driving": ["--v_bar", "100", "--t_ff", "0.1",
                                   "--mode", "no_driving"],
    "two_spin_r0_2.5": ["--model", "two_spin", "--r0", "2.5"],
    "three_spin_crossing": ["--j0", "1", "--b0", "3", "--r0", "0",
                            "--grid_points", "401", "--integrator_steps", "2000",
                            "--output_stride", "100"],
    "three_spin_long_intervals": ["--grid_points", "201", "--integrator_steps", "3000",
                                  "--output_stride", "1000"],
}


def column_deltas(parent: str, change: str) -> dict[str, float] | str:
    """Largest |change - parent| of each column that differs between two CSV
    texts, or the reason they cannot be compared cell by cell.

    Cells with equal text count as 0; a cell that is not a number, or that is
    a number on one side only, counts as inf.
    """
    (head_a, *rows_a), (head_b, *rows_b) = (text.splitlines() for text in (parent, change))
    if head_a != head_b:
        return f"headers differ: {head_a!r} != {head_b!r}"
    if len(rows_a) != len(rows_b):
        return f"row counts differ: {len(rows_a)} != {len(rows_b)}"
    header = head_a.split(",")
    worst = dict.fromkeys(header, 0.0)
    for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=2):
        cells_a, cells_b = row_a.split(","), row_b.split(",")
        if len(cells_a) != len(header) or len(cells_b) != len(header):
            return f"line {line} does not have {len(header)} cells"
        for name, a, b in zip(header, cells_a, cells_b):
            if a != b:
                try:
                    delta = abs(float(b) - float(a))
                except ValueError:
                    delta = math.inf
                worst[name] = max(worst[name], delta if delta == delta else math.inf)
    return {name: delta for name, delta in worst.items() if delta}


def compare_file(parent: Path, change: Path) -> str:
    """One report line for an output file of the two sides."""
    if not (parent.is_file() and change.is_file()):
        return "missing on " + " and ".join(
            side for side, path in zip(SIDES, (parent, change)) if not path.is_file())
    a, b = parent.read_bytes(), change.read_bytes()
    if a == b:
        return "identical"
    if parent.suffix != ".csv":
        return "differs"
    deltas = column_deltas(a.decode(), b.decode())
    if isinstance(deltas, str):
        return f"differs: {deltas}"
    if not deltas:
        return "differs: same numbers, other spelling"
    return "differs: max |delta| " + ", ".join(
        f"{name} {delta:.3g}" for name, delta in deltas.items())


def run_config(checkout: Path, args: list[str], out: Path) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(checkout.resolve() / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ffspin", "run", *args,
                           "--out", str(out)], env=env).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for the run outputs (default: a "
                             "temporary directory, removed afterwards)")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        clean = True
        for name, config in CONFIGS.items():
            for side in SIDES:
                for rerun in ("first", "rerun"):
                    code = run_config(checkouts[side], config, work / side / rerun / name)
                    if code != 0:
                        print(f"{name}: {side} {rerun} run exited {code}")
                        clean = False
            for output in OUTPUTS:
                firsts = [work / side / "first" / name / output for side in SIDES]
                if not any(path.exists() for path in firsts):
                    continue  # a file this mode does not write
                line = compare_file(*firsts)
                reruns = [side for side in SIDES if compare_file(
                    *(work / side / rerun / name / output
                      for rerun in ("first", "rerun"))) != "identical"]
                clean = clean and line == "identical" and not reruns
                rerun_note = (f"; rerun differs on {', '.join(reruns)}" if reruns
                              else "; reruns identical")
                print(f"{name}/{output}: {line}{rerun_note}")
    print("all identical" if clean else "differences found")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
