"""Layer spans recorded from outside ffspin by wrapping module attributes.

The wrapped names are the calls that cross a layer boundary.  A name bound
in a consumer module (``cli.eigensolve``) is wrapped separately from its
definition (``spectrum.eigensolve``): the first catches the CLI's own calls,
the second the calls made inside ``spectrum``.  Every span is kept in memory
as (label, start, end, parent index) and self times are derived from them.
"""
from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from ffspin import cli, fastforward, spectrum

#: (module, attribute) pairs replaced by span-recording wrappers
WRAPPED = (
    (cli, "track_branch"),
    (cli, "coefficient_table"),
    (cli, "integrate"),
    (cli, "eigensolve"),
    (cli, "branch_vector_at"),
    (fastforward, "branch_vector_at"),
    (spectrum, "eigensolve"),
)
#: label of the span the benchmark opens around each ``cli.run`` call
ROOT = "cli.run"


def label_of(module, name: str) -> str:
    return f"{module.__name__.rpartition('.')[2]}.{name}"


LABELS = (ROOT,) + tuple(label_of(m, n) for m, n in WRAPPED)


class Tracer:
    """Span recorder for one traced run; ``last`` holds each label's last result."""

    def __init__(self):
        self.spans: list[list] = []
        self.last: dict[str, object] = {}
        self._open: list[int] = []

    def call(self, label: str, fn, *args, **kwargs):
        span = [label, perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()
        self.last[label] = result
        return result

    def _wrapper(self, label: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(label, fn, *args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every name in ``WRAPPED`` for the duration of the block.

        A missing attribute raises AttributeError here, so a renamed layer
        entry point stops the traced run instead of reading as zero time.
        """
        saved = []
        try:
            for module, name in WRAPPED:
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, self._wrapper(label_of(module, name), original))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def totals(self) -> tuple[Counter, dict[str, float], dict[str, float]]:
        """Per-label call counts, inclusive times and self times.

        Raises RuntimeError if a wrapped label was never entered.
        """
        calls: Counter = Counter()
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        children = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            calls[label] += 1
            inclusive[label] += end - start
            if parent >= 0:
                children[parent] += end - start
        for (label, start, end, _), covered in zip(self.spans, children):
            self_time[label] += end - start - covered
        missing = [label for label in LABELS if calls[label] == 0]
        if missing:
            raise RuntimeError(f"unmeasured: traced run never entered {missing}")
        return calls, inclusive, self_time

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("label,start,end,parent\n")
            for label, start, end, parent in self.spans:
                fh.write(f"{label},{start!r},{end!r},{parent}\n")


def layer_metrics(tracer: Tracer, config) -> dict[str, float]:
    """Per-layer figures of one traced ``cli.run`` of a fast_forward config."""
    calls, inclusive, self_time = tracer.totals()
    records = len(tracer.last["cli.integrate"])
    eig = ("cli.eigensolve", "spectrum.eigensolve")
    bva = ("cli.branch_vector_at", "fastforward.branch_vector_at")
    eig_calls = sum(calls[k] for k in eig)
    kernel_s = self_time["cli.integrate"]
    return {
        "spectrum.track_s": inclusive["cli.track_branch"],
        "spectrum.eigensolve_calls": eig_calls,
        "spectrum.eigensolve_s": sum(inclusive[k] for k in eig),
        "spectrum.eigensolves_per_point":
            eig_calls / (2 * config.grid_points + records),
        "spectrum.branch_vector_at_calls": sum(calls[k] for k in bva),
        "spectrum.branch_vector_at_s": sum(inclusive[k] for k in bva),
        "regularization.coefficients_s": inclusive["cli.coefficient_table"],
        "fastforward.integrate_s": inclusive["cli.integrate"],
        "fastforward.records_s": inclusive["fastforward.branch_vector_at"],
        "fastforward.kernel_s": kernel_s,
        "fastforward.ns_per_step": 1e9 * kernel_s / config.integrator_steps,
        "fastforward.records": records,
        "cli.emit_s": self_time[ROOT],
    }


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    """Median of each figure over runs; counts stay whole numbers."""
    medians = {}
    for key, first in per_run[0].items():
        values = [run[key] for run in per_run]
        pick = statistics.median_low if isinstance(first, int) else statistics.median
        medians[key] = pick(values)
    return medians
