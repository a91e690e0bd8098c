"""The robustness sweep: what ``ffspin validate`` and ``ffspin run`` make of a
fixed grid of 96 configs.

Usage, from the repository root:

    python3 tools/sweep.py

The configs are every combination of both models, j0 in {1, 10}, b0 in
{0, 3, -5}, r0 in {0, 2.5}, v_bar in {10, 100} and t_ff in {1, 0.1}, each
with 401 grid points, 2000 RK4 steps and a record every 100 steps.  Each
goes through ``ffspin validate`` and, if accepted, through ``ffspin run``
into a temporary directory, both in this process by ``cli.main`` on this
checkout's ``src/``.  The report counts the configs that run clean, that
``validate`` rejects, and that ``validate`` accepts but ``run`` fails, and
lists the last group: the swept keys of each config and its run's message.
The robustness aim is an empty last group: a config that ``validate``
accepts should run inside the invariants.  The exit status is 0 whatever
the counts.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from ffspin import cli  # noqa: E402  (the checkout's own sources)

#: key -> the values swept
GRID = {
    "model": ("two_spin", "three_spin_kagome"),
    "j0": ("1", "10"),
    "b0": ("0", "3", "-5"),
    "r0": ("0", "2.5"),
    "v_bar": ("10", "100"),
    "t_ff": ("1", "0.1"),
}
SIZES = {"grid_points": "401", "integrator_steps": "2000", "output_stride": "100"}
CLEAN, REJECTED, FAILED = "runs clean", "validate rejects", "validate ok but run fails"


def configs():
    """Every combination of ``GRID``, as ``ffspin`` arguments."""
    for values in itertools.product(*GRID.values()):
        keys = {**dict(zip(GRID, values)), **SIZES}
        yield [f"--{key}={value}" for key, value in keys.items()]


def _main(argv: list[str]) -> tuple[int, str]:
    """``cli.main``'s exit status and everything it printed."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        status = cli.main(argv)
    return status, text.getvalue().strip()


def sweep() -> dict[str, list[tuple[list[str], str]]]:
    """Outcome -> the (arguments, message) of each config with that outcome."""
    results = {CLEAN: [], REJECTED: [], FAILED: []}
    with tempfile.TemporaryDirectory() as tmp:
        for i, args in enumerate(configs()):
            status, message = _main(["validate", *args])
            if status != 0:
                results[REJECTED].append((args, message))
                continue
            status, message = _main(["run", *args, "--out", f"{tmp}/{i}"])
            results[CLEAN if status == 0 else FAILED].append((args, message))
    return results


def main() -> int:
    results = sweep()
    print(" / ".join(f"{outcome} {len(runs)}" for outcome, runs in results.items()))
    for args, message in results[FAILED]:
        print(f"  {' '.join(args[:len(GRID)])}: {message}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
