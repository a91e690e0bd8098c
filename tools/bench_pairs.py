"""Alternating parent/change pairs of the repository benchmark, kept in one
``BENCH_<label>.json``.

Usage, from the repository root, with two clean copies of commits (for
example made by ``git archive``):

    python3 tools/bench_pairs.py --parent ../parent --change ../change \\
        --workload dense_two_spin --first-seed 41 --pairs 10 \\
        --label exchange_solve [--trace] [--what TEXT] [--claim TEXT]

Each invocation runs the command that the checkout's ``BENCHMARK.json``
declares, for its ``run_seconds``, from the root of that checkout, one
invocation at a time.  Pair i runs seed ``first-seed + i`` on both sides.
The side that runs first alternates from pair to pair, counting the pairs
already in the file, so the order keeps flipping across calls.  The
benchmark files (``BENCHMARK.json`` and its ``paths``) must be identical in
both checkouts.  ``--trace`` runs the pairs with ``--trace 1`` for the
per-layer figures.

Every invocation's last output line (the benchmark's JSON result) is
appended to the file's ``invocations`` as its ``result``, with the lines
before it, the benchmark's human-readable report (``run_s (not gated)``
among them), as its ``stdout``; ``summary`` is recomputed from all of
them.  Repeated calls therefore collect several workloads and traced pairs
in one file.  For each untraced workload and end-to-end metric the
summary gives:

* each side's median, quartiles (inclusive method), extremes and count;
* how many pairs the change won, ties counting for neither side;
* the medians' relative change, the parent's interquartile range and the
  median difference in the better direction;
* ``gain_shown``: the change won at least 9 of every 10 pairs and the
  median difference exceeds the parent's interquartile range.

It also gives each side's median ``run_s`` (the run's own seconds, parsed
from the stored ``run_s (not gated)`` line), so that a shift of the
``run_ref_ratio`` can be told apart from a shift of the reference loop.

A traced pair is summarised by its per-layer figures, parent and change.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from importlib.metadata import PackageNotFoundError, version
from importlib.util import find_spec
from pathlib import Path

SIDES = ("parent", "change")
METHOD = (
    "each entry of 'invocations' is the last-line JSON ('result') and the "
    "other stdout lines ('stdout') of one benchmark invocation (its "
    "'command'), run from the root of a clean copy of each commit with "
    "identical benchmark files; parent and change alternate, the "
    "order flipping on every pair; one invocation at a time; written by "
    "tools/bench_pairs.py")
NO_CLAIM = ("none: no gain is claimed; the pairs check that no end-to-end "
            "metric gets worse")


def load_benchmark(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text())


def same_benchmark(parent: Path, change: Path) -> list[str]:
    """Files of the benchmark that differ between the two checkouts."""
    paths = ["BENCHMARK.json"] + load_benchmark(parent)["paths"]
    differ = []
    for rel in paths:
        a, b = parent / rel, change / rel
        if a.is_dir() and b.is_dir():
            cmp = filecmp.dircmp(a, b, ignore=["__pycache__"])
            stack = [(rel, cmp)]
            while stack:
                where, c = stack.pop()
                differ += [f"{where}/{n}"
                           for n in c.left_only + c.right_only + c.diff_files]
                stack += [(f"{where}/{n}", sub) for n, sub in c.subdirs.items()]
        elif not (a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False)):
            differ.append(rel)
    return differ


def run_invocation(checkout: Path, benchmark: dict, workload: str, seed: int,
                   trace: int) -> dict:
    command = list(benchmark["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", str(trace)]
    started = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"workload": workload, "seed": seed, "trace": trace,
            "command": " ".join(command), "exit": proc.returncode,
            "started_utc": started, "result": result,
            "stdout": lines if result is None else lines[:-1]}


def environment() -> dict:
    def installed(name: str) -> str:
        try:
            return version(name)
        except PackageNotFoundError:
            return "absent"

    return {"python": platform.python_version(), "numpy": installed("numpy"),
            "scipy": installed("scipy"), "nproc": os.cpu_count(),
            "numba": "present" if find_spec("numba") else "absent",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def stats(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def compare(pairs: dict[int, dict[str, float]], better: str) -> dict:
    """Summary of one metric from {pair: {side: value}}, pairs with both sides."""
    sign = 1.0 if better == "lower" else -1.0
    both = [p for p in pairs.values() if all(s in p for s in SIDES)]
    parent, change = (stats([p[s] for p in both]) for s in SIDES)
    wins = sum(sign * (p["change"] - p["parent"]) < 0 for p in both)
    iqr = parent["q3"] - parent["q1"]
    difference = sign * (parent["median"] - change["median"])
    return {"parent": parent, "change": change,
            "change_wins": f"{wins}/{len(both)}",
            "median_change_vs_parent": change["median"] / parent["median"] - 1.0,
            "parent_iqr": iqr, "median_difference": difference,
            "gain_shown": 10 * wins >= 9 * len(both) and difference > iqr}


def run_seconds(invocation: dict) -> float | None:
    """The ``run_s`` of an invocation, from its ``run_s (not gated)`` line."""
    for line in invocation.get("stdout", []):
        if line.startswith("run_s (not gated)"):
            return float(line.split()[3])
    return None


def summarize(invocations: list[dict], end_to_end: list[dict]) -> dict:
    """Per-workload summary of untraced pairs, per-seed figures of traced ones."""
    summary: dict[str, dict] = {}
    done = [i for i in invocations if i["result"] is not None]
    for workload in dict.fromkeys(i["workload"] for i in done if not i["trace"]):
        runs = [i for i in done if i["workload"] == workload and not i["trace"]]
        entry = {}
        for metric in end_to_end:
            pairs: dict[int, dict[str, float]] = {}
            for i in runs:
                if metric["name"] in i["result"]["metrics"]:
                    value = i["result"]["metrics"][metric["name"]]["value"]
                    pairs.setdefault(i["pair"], {})[i["side"]] = value
            if any(len(p) == 2 for p in pairs.values()):
                entry[metric["name"]] = compare(pairs, metric["better"])
        run_s = {s: [x for i in runs if i["side"] == s
                     for x in [run_seconds(i)] if x is not None] for s in SIDES}
        if all(run_s.values()):
            entry["run_s_median"] = {s: statistics.median(v) for s, v in run_s.items()}
        for count in ("failed", "attempted"):
            entry[f"{count}_runs"] = {s: sum(i["result"][count] for i in runs
                                             if i["side"] == s) for s in SIDES}
        summary[workload] = entry
    for i in done:
        if i["trace"]:
            key = f"{i['workload']}_traced_seed_{i['seed']}"
            for name, m in i["result"]["metrics"].items():
                summary.setdefault(key, {}).setdefault(name, {})[i["side"]] = m["value"]
    broken = {s: sum(i["result"] is None or i["exit"] != 0
                     for i in invocations if i["side"] == s) for s in SIDES}
    if any(broken.values()):
        summary["failed_invocations"] = broken
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--what", default=None,
                        help="what the two commits are (kept if omitted)")
    parser.add_argument("--claim", default=None,
                        help="the claimed gain (default: none)")
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory of BENCH_<label>.json (default: .)")
    args = parser.parse_args(argv)

    differ = same_benchmark(args.parent, args.change)
    if differ:
        print(f"error: benchmark files differ between the checkouts: {differ}",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark(args.parent)
    path = args.out_dir / f"BENCH_{args.label}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"invocations": []}
    invocations = doc["invocations"]
    first_pair = 1 + max((i["pair"] for i in invocations), default=-1)
    checkouts = {"parent": args.parent, "change": args.change}
    for n in range(args.pairs):
        pair = first_pair + n
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            entry = run_invocation(checkouts[side].resolve(), benchmark, args.workload,
                                   args.first_seed + n, int(args.trace))
            invocations.append({**entry, "pair": pair, "side": side, "order": position})
            print(f"pair {pair} {side}: exit {entry['exit']}", file=sys.stderr)
        doc = {"what": args.what or doc.get("what", ""), "method": METHOD,
               "claim": args.claim or doc.get("claim", NO_CLAIM),
               "environment": environment(),
               "summary": summarize(invocations, benchmark["end_to_end"]),
               "invocations": invocations}
        path.write_text(json.dumps(doc, indent=1) + "\n")  # after every pair
    return 0


if __name__ == "__main__":
    sys.exit(main())
