"""The RK4 propagator inside `integrate`: record layout, reproducibility, the
drive flag, agreement with a plain per-step RK4 loop, the parity blocks it
leaves untouched and its chunking."""
from __future__ import annotations

import numpy as np
import pytest

from ffspin import fastforward
from ffspin.fastforward import h_ff, integrate, r_of_t
from ffspin.model import h0, parity_indices


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


def rk4_loop_reference(spec, profile, table, psi0, steps, stride, drive=True):
    """The plain propagator: one full-space RK4 step at a time, four
    mat-vecs per step, psi kept after every ``stride`` steps."""
    stage_t = np.linspace(0.0, profile.t_ff, 2 * steps + 1)
    if drive:
        h = h_ff(spec, profile, table, stage_t)
    else:
        h = h0(spec, r_of_t(profile, spec.r0, stage_t))
    minus_ih = -1j * h
    dt = profile.t_ff / steps
    psi = np.asarray(psi0, dtype=complex)
    out = [psi]
    for n in range(steps):
        start, mid, end = minus_ih[2 * n:2 * n + 3]
        k1 = start @ psi
        k2 = mid @ (psi + (0.5 * dt) * k1)
        k3 = mid @ (psi + (0.5 * dt) * k2)
        k4 = end @ (psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (n + 1) % stride == 0:
            out.append(psi)
    return np.array(out)


def _mixed_parity_state(spec, branch):
    """The branch start plus an equal odd-parity component."""
    odd = np.zeros(spec.dim)
    odd[parity_indices(spec.dim, -1)[0]] = 1.0
    return (branch.vectors[0] + odd) / np.sqrt(2.0)


@pytest.mark.parametrize("model", ["two", "three"])
@pytest.mark.parametrize("start", ["default", "mixed"])
@pytest.mark.parametrize("drive", [True, False])
def test_records_match_per_step_loop(model, start, drive, profile, request):
    spec, branch, table = (request.getfixturevalue(f"{model}_{name}")
                           for name in ("spec", "branch", "table"))
    psi0 = branch.vectors[0] if start == "default" else _mixed_parity_state(spec, branch)
    records = integrate(spec, profile, initial_state=psi0, steps=2000,
                        output_stride=100, branch=branch, table=table, drive=drive)
    expected = rk4_loop_reference(spec, profile, table, psi0, 2000, 100, drive)
    assert np.max(np.abs(np.array([rec.psi for rec in records]) - expected)) <= 1e-13


def test_default_start_leaves_odd_block_exactly_zero(two_spec, three_spec,
                                                     two_run, three_run):
    for spec, run in ((two_spec, two_run), (three_spec, three_run)):
        odd = parity_indices(spec.dim, -1)
        assert all(np.all(rec.psi[odd] == 0.0) for rec in run)
        assert np.any(run[-1].psi[parity_indices(spec.dim, 1)] != 0.0)


def test_small_chunks_match_default_chunks(monkeypatch, three_spec, profile,
                                           three_branch, three_table):
    def run():
        return integrate(three_spec, profile, steps=2000, output_stride=100,
                         branch=three_branch, table=three_table)

    reference = run()
    sizes = []
    original = fastforward.h_ff

    def counting_h_ff(*args, **kwargs):
        sizes.append(np.size(args[3]))
        return original(*args, **kwargs)

    monkeypatch.setattr(fastforward, "CHUNK_STEPS", 7)
    monkeypatch.setattr(fastforward, "h_ff", counting_h_ff)
    records = run()
    assert max(sizes) <= 2 * 7 + 1
    # each record interval of 100 steps is 14 chunks of 7 and one of 2
    assert len(sizes) == 20 * 15
    assert np.max(np.abs(np.array([rec.psi for rec in records])
                         - [rec.psi for rec in reference])) <= 1e-13
