from __future__ import annotations

import numpy as np
import pytest

from ffspin._kernels import _rk4_run
from ffspin.model import ModelSpec, TWO_SPIN, driving_generators, h0_parts


def _kernel_args(table, branch, steps=400, stride=100, drive=True):
    spec = ModelSpec(kind=TWO_SPIN)
    h_base, h_slope = h0_parts(spec)
    breaks, coeffs = table.spline_data()
    psi0 = np.ascontiguousarray(branch.vectors[0], dtype=np.complex128)
    return (np.ascontiguousarray(h_base), np.ascontiguousarray(h_slope),
            np.ascontiguousarray(driving_generators(spec)),
            np.ascontiguousarray(breaks), np.ascontiguousarray(coeffs),
            0.0, 10.0, 1.0, psi0, steps, stride, drive)


def test_numpy_kernel_reproducible(two_table, two_branch):
    args = _kernel_args(two_table, two_branch)
    first = _rk4_run(*args)
    second = _rk4_run(*args)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_record_layout(two_table, two_branch):
    psis, ts, rs, vs, ws = _rk4_run(*_kernel_args(two_table, two_branch))
    assert psis.shape == (5, 4)
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(1.0, abs=1e-12)
    assert rs[0] == 0.0
    assert vs[0] == 0.0 and abs(vs[-1]) < 1e-12
    assert ws.shape == (5, 3)


def test_drive_flag_changes_the_evolution(two_table, two_branch):
    args_on = _kernel_args(two_table, two_branch, drive=True)
    args_off = _kernel_args(two_table, two_branch, drive=False)
    psis_on = _rk4_run(*args_on)[0]
    psis_off = _rk4_run(*args_off)[0]
    assert not np.allclose(psis_on[-1], psis_off[-1])


def test_active_kernel_callable(two_table, two_branch):
    psis, *_ = _rk4_run(*_kernel_args(two_table, two_branch, steps=100, stride=100))
    assert psis.shape[0] == 2
