"""The RK4 propagator inside `integrate`: record layout, reproducibility and
the drive flag, on two-spin runs of a few hundred steps."""
from __future__ import annotations

import numpy as np
import pytest

from ffspin.fastforward import integrate


def _run(spec, profile, table, branch, steps=400, stride=100, drive=True):
    return integrate(spec, profile, steps=steps, output_stride=stride,
                     branch=branch, table=table, drive=drive)


def test_numpy_kernel_reproducible(two_spec, profile, two_table, two_branch):
    first = _run(two_spec, profile, two_table, two_branch)
    second = _run(two_spec, profile, two_table, two_branch)
    for a, b in zip(first, second):
        assert np.array_equal(a.psi, b.psi)
        assert (a.t, a.r, a.v, a.coeffs) == (b.t, b.r, b.v, b.coeffs)


def test_record_layout(two_spec, profile, two_table, two_branch):
    records = _run(two_spec, profile, two_table, two_branch)
    assert len(records) == 5
    assert all(rec.psi.shape == (4,) for rec in records)
    assert records[0].t == 0.0
    assert records[-1].t == 1.0  # the last stage time is exactly t_ff
    assert records[0].r == 0.0
    assert records[-1].r == pytest.approx(10.0, abs=1e-12)
    # velocity recorded as zero at both ends
    assert records[0].v == 0.0
    assert records[-1].v == 0.0


def test_drive_flag_changes_the_evolution(two_spec, profile, two_table, two_branch):
    driven = _run(two_spec, profile, two_table, two_branch, drive=True)
    bare = _run(two_spec, profile, two_table, two_branch, drive=False)
    assert not np.allclose(driven[-1].psi, bare[-1].psi)


def test_active_kernel_callable(two_spec, profile, two_table, two_branch):
    # a single record interval; 200 steps, since at 100 the RK4 norm drift
    # (1.5e-6) fails integrate's drift check
    records = _run(two_spec, profile, two_table, two_branch, steps=200, stride=200)
    assert len(records) == 2
