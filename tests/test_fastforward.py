from __future__ import annotations

import numpy as np
import pytest

from ffspin.fastforward import (FastForwardProfile, fidelity, h_ff, integrate,
                                r_of_t, v_of_t)
from ffspin.model import h0

RNG = np.random.RandomState(7)

#: no-driving final fidelities recorded from high-accuracy reference runs
#: (fixed-step RK4 cross-checked against an adaptive 8th-order integrator)
NO_DRIVING_FINAL_FIDELITY = {"two_spin": 0.754258, "three_spin_kagome": 0.996447}


@pytest.fixture(scope="module")
def ramp_profile():
    return FastForwardProfile(v_bar=10.0, t_ff=1.0)


def test_r_of_t_endpoints_and_midpoint(ramp_profile):
    assert r_of_t(ramp_profile, 0.0, 0.0) == 0.0
    assert r_of_t(ramp_profile, 0.0, 0.5) == pytest.approx(5.0, abs=1e-13)
    assert r_of_t(ramp_profile, 0.0, 1.0) == pytest.approx(10.0, abs=1e-13)


def test_r_of_t_rejects_out_of_range(ramp_profile):
    with pytest.raises(ValueError, match="outside"):
        r_of_t(ramp_profile, 0.0, 1.5)
    with pytest.raises(ValueError, match="outside"):
        r_of_t(ramp_profile, 0.0, -0.1)


def test_v_of_t_endpoints_exact_and_peak(ramp_profile):
    assert v_of_t(ramp_profile, 0.0) == 0.0
    assert v_of_t(ramp_profile, 1.0) == 0.0
    assert v_of_t(ramp_profile, 0.5) == pytest.approx(20.0, abs=1e-12)


def test_v_of_t_is_derivative_of_r_of_t(ramp_profile):
    ts = np.linspace(1e-3, 1.0 - 1e-3, 1001)
    h = 1e-6
    for t in ts[::50]:
        fd = (r_of_t(ramp_profile, 0.0, t + h)
              - r_of_t(ramp_profile, 0.0, t - h)) / (2 * h)
        assert fd == pytest.approx(v_of_t(ramp_profile, t), abs=1e-7)


def test_profile_rejects_negative_parameters():
    with pytest.raises(ValueError):
        FastForwardProfile(v_bar=-1.0, t_ff=1.0)
    with pytest.raises(ValueError):
        FastForwardProfile(v_bar=1.0, t_ff=-1.0)


def test_h_ff_endpoint_pinning(two_spec, two_table, ramp_profile):
    assert np.array_equal(h_ff(two_spec, ramp_profile, two_table, 0.0),
                          h0(two_spec, 0.0))
    r_end = r_of_t(ramp_profile, 0.0, 1.0)
    assert abs(r_end - 10.0) < 1e-13
    assert np.array_equal(h_ff(two_spec, ramp_profile, two_table, 1.0),
                          h0(two_spec, r_end))


def test_h_ff_hermitian_at_random_times(three_spec, three_table, ramp_profile):
    for t in RNG.uniform(0.0, 1.0, size=100):
        m = h_ff(three_spec, ramp_profile, three_table, float(t))
        assert np.max(np.abs(m - m.conj().T)) < 1e-12


def test_h_ff_out_of_range_interpolation(two_spec, two_table):
    profile = FastForwardProfile(v_bar=20.0, t_ff=1.0)  # reaches R=20 > table
    with pytest.raises(ValueError, match="outside the tabulated"):
        h_ff(two_spec, profile, two_table, 0.8)


def test_h_ff_array_matches_scalar_calls(three_spec, three_table, ramp_profile):
    ts = np.linspace(0.0, 1.0, 65)
    stack = h_ff(three_spec, ramp_profile, three_table, ts)
    assert stack.shape == (65, 8, 8)
    assert np.array_equal(
        stack, [h_ff(three_spec, ramp_profile, three_table, t) for t in ts])
    assert np.array_equal(stack[0], h0(three_spec, 0.0))
    assert np.array_equal(stack[-1], h0(three_spec, r_of_t(ramp_profile, 0.0, 1.0)))


def test_fidelity_basics():
    x = np.array([1.0, 0.0], dtype=complex)
    y = np.array([0.0, 1.0], dtype=complex)
    assert fidelity(x, x) == pytest.approx(1.0)
    assert fidelity(x, y) == pytest.approx(0.0)
    with pytest.raises(ValueError, match="normalized"):
        fidelity(2 * x, x)


def test_zero_duration_returns_initial_state(two_spec, two_branch, two_table):
    profile = FastForwardProfile(v_bar=10.0, t_ff=0.0)
    records = integrate(two_spec, profile, branch=two_branch, table=two_table,
                        steps=100)
    assert len(records) == 1
    assert records[0].fidelity == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(records[0].psi, two_branch.vectors[0])


def test_driven_run_keeps_fidelity(two_run):
    assert min(rec.fidelity for rec in two_run) > 1.0 - 1e-9
    assert max(abs(rec.norm - 1.0) for rec in two_run) < 1e-9


def test_driven_run_matches_branch_populations(three_run, three_spec, three_branch):
    from ffspin.spectrum import branch_vector_at
    worst = 0.0
    for rec in three_run[::10]:
        vec, _ = branch_vector_at(three_spec, three_branch, rec.r)
        worst = max(worst, float(np.max(np.abs(np.abs(rec.psi) ** 2 - vec ** 2))))
    assert worst < 1e-9


def test_mirror_symmetry_of_three_spin_run(three_run):
    worst = max(abs(abs(rec.psi[3]) ** 2 - abs(rec.psi[6]) ** 2)
                for rec in three_run)
    assert worst < 1e-9


def test_records_cover_run(three_run):
    assert len(three_run) == 101
    assert three_run[0].t == 0.0
    assert three_run[-1].t == 1.0  # the last stage time is exactly t_ff
    assert three_run[-1].r == pytest.approx(10.0, abs=1e-12)
    # velocity recorded as zero at both ends
    assert three_run[0].v == 0.0
    assert three_run[-1].v == 0.0


def test_step_halving_fourth_order(two_spec, ramp_profile, two_branch, two_table):
    outs = []
    for steps in (2000, 4000, 8000):
        recs = integrate(two_spec, ramp_profile, steps=steps, output_stride=steps,
                         branch=two_branch, table=two_table)
        outs.append(recs[-1].psi)
    d1 = np.linalg.norm(outs[0] - outs[1])
    d2 = np.linalg.norm(outs[1] - outs[2])
    assert d1 / d2 > 12.0


def test_no_driving_controls(two_spec, three_spec, ramp_profile, two_branch,
                             two_table, three_branch, three_table,
                             three_run_no_driving):
    recs2 = integrate(two_spec, ramp_profile, branch=two_branch, table=two_table,
                      drive=False)
    fid2 = recs2[-1].fidelity
    assert fid2 == pytest.approx(NO_DRIVING_FINAL_FIDELITY["two_spin"], abs=1e-4)
    assert fid2 < 0.9  # the two-spin ramp alone is far from adiabatic
    fid3 = three_run_no_driving[-1].fidelity
    assert fid3 == pytest.approx(
        NO_DRIVING_FINAL_FIDELITY["three_spin_kagome"], abs=1e-4)
    # the three-spin ramp is already nearly adiabatic at this speed; the
    # driving still buys nine orders of magnitude in the fidelity deficit
    assert 1e-4 < 1.0 - fid3 < 1e-2
    # driving coefficients recorded as zero in control mode
    assert all(rec.coeffs.w1 == 0.0 for rec in three_run_no_driving)


def test_fast_profile_keeps_fidelity(three_fast_runs):
    # ten times faster over the same ramp: the velocity-scaled driving must
    # still pin the state to the branch
    recs, bare = three_fast_runs
    assert min(rec.fidelity for rec in recs) > 1.0 - 1e-9
    assert bare[-1].fidelity == pytest.approx(0.512644, abs=1e-4)


def test_zero_velocity_constant_hamiltonian(two_spec):
    # vbar = 0 keeps R pinned at the start; the eigenstate just gains phase
    profile = FastForwardProfile(v_bar=0.0, t_ff=1.0)
    recs = integrate(two_spec, profile, steps=2000, output_stride=500,
                     grid_points=5)
    assert min(rec.fidelity for rec in recs) > 1.0 - 1e-9
    assert all(rec.r == 0.0 for rec in recs)
    assert all(rec.v == 0.0 for rec in recs)


def test_integrate_validates_arguments(two_spec, ramp_profile, two_branch,
                                       two_table):
    with pytest.raises(ValueError, match="multiple"):
        integrate(two_spec, ramp_profile, steps=1001, output_stride=100,
                  branch=two_branch, table=two_table)
    bad = np.zeros(4, dtype=complex)
    with pytest.raises(ValueError, match="unit norm"):
        integrate(two_spec, ramp_profile, initial_state=bad,
                  branch=two_branch, table=two_table)
