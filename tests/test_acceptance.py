"""Acceptance suite for the fast-forward pipeline at the reference settings
(J0=10, B0=0, R0=0, vbar=10, T=1, 2001-point grid, 10000 RK4 steps).

Each test prints one `[criterion N] PASS/FAIL` line (run with ``-s`` to see
the lines for passing tests as well).

Targets come from the model itself, not from the pipeline's own output:

* criteria 1 and 2 final population: the branch at the end of the ramp
  (R = 10, where J1 = 0) is the ground vector of the 2x2 parity block on
  (|uu>, |dd>), built here from the schedules, so |C1(T)|^2 must equal
  (2 + sqrt(2))/4 = 0.8536 for both clusters;
* criterion 6 negative control: the three-spin ramp runs ten times faster,
  at vbar=100, T=0.1.  At vbar=10, T=1 the in-sector gap (>= 16.4) keeps
  the undriven ramp 99.6% adiabatic, so no control fails there; at the
  fast profile an independent adaptive integrator gives an undriven final
  fidelity of 0.5126, while the driven run must keep the branch.
"""
from __future__ import annotations

import numpy as np
import pytest

from ffspin.cli import make_config, run
from ffspin.fastforward import integrate, r_of_t, v_of_t
from ffspin.model import TWO_SPIN, _parity_indices, h0, schedules
from ffspin.regularization import coefficient_table, solve_core
from ffspin.spectrum import branch_vector_at, track_branch

from conftest import probabilities, ramp_grid
from oracles import (RESIDUAL_NOISE_ATOL, closed_form_two_spin,
                     component_form_three_spin, embed, full_ansatz_solve, gap_report,
                     h_ff)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def _end_of_ramp_population(spec, profile) -> float:
    """|C1|^2 of the branch at the end of the ramp, from a 2x2 block alone.

    The branch is the lower level of the parity P = +1 sector.  For the pair
    that sector is the block on (|uu>, |dd>).  For three spins at J1 = 0 the
    bonds to spin 2 vanish: spin 2 aligns with the field on its own, and
    spins 3 and 1 form the same block with y3y1 in place of y1y2.
    """
    j1, j2, bz = schedules(spec, r_of_t(profile, spec.r0, profile.t_ff))
    if spec.kind == TWO_SPIN:
        coupling = j1 - j2          # <uu| J1 x1x2 + J2 y1y2 |dd>
        p_spin2_up = 1.0
    else:
        assert abs(j1) < 1e-12, "spin 2 decouples only where J1 = 0"
        coupling = -j2              # <uu| J2 y3y1 |dd>
        _, spin2 = np.linalg.eigh(np.diag([bz / 2, -bz / 2]))
        p_spin2_up = float(spin2[0, 0] ** 2)
    _, pair = np.linalg.eigh(np.array([[bz, coupling], [coupling, -bz]]))
    return p_spin2_up * float(pair[0, 0] ** 2)


def _check_final_population(criterion, spec, profile, trajectory) -> None:
    expected = _end_of_ramp_population(spec, profile)
    p_final = float(probabilities(trajectory.psi[-1])[0])
    ok = abs(p_final - expected) <= 1e-9
    _report(criterion, ok,
            f"|C1(T)|^2 = {p_final:.12f}, end-of-ramp block gives "
            f"{expected:.12f} = (2+sqrt(2))/4, |diff| {abs(p_final - expected):.1e}")
    assert expected == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-12)
    assert p_final == pytest.approx(expected, abs=1e-9)


# -------------------------------------------------------------- criterion 1

def test_criterion_1_two_spin_fidelity_and_initial_state(two_run):
    fid_min = two_run.fidelity.min()
    p0 = probabilities(two_run.psi[0])
    ok = fid_min >= 0.999 and abs(p0[0] - 0.5) < 1e-6 and abs(p0[3] - 0.5) < 1e-6
    _report("1 (fidelity, start)", ok,
            f"min fidelity {fid_min:.12f}, start populations "
            f"({p0[0]:.9f}, {p0[3]:.9f})")
    assert fid_min >= 0.999
    assert p0[0] == pytest.approx(0.5, abs=1e-6)
    assert p0[3] == pytest.approx(0.5, abs=1e-6)


def test_criterion_1_two_spin_final_population(two_spec, profile, two_run):
    _check_final_population("1 (final population)", two_spec, profile, two_run)


# -------------------------------------------------------------- criterion 2

def test_criterion_2_three_spin_fidelity_and_symmetry(three_run):
    fid_min = three_run.fidelity.min()
    p = probabilities(three_run.psi)
    mirror = np.max(np.abs(p[:, 3] - p[:, 6]))
    ok = fid_min >= 0.999 and mirror < 1e-9
    _report("2 (fidelity, |C4|^2=|C7|^2)", ok,
            f"min fidelity {fid_min:.12f}, max ||C4|^2-|C7|^2| {mirror:.2e}")
    assert fid_min >= 0.999
    assert mirror < 1e-9


def test_criterion_2_three_spin_final_population(three_spec, profile,
                                                 three_run):
    _check_final_population("2 (final population)", three_spec, profile,
                            three_run)


# -------------------------------------------------------------- criterion 3

@pytest.mark.parametrize("fixture,spec_fixture", [
    ("two_run", "two_spec"),
    ("three_run", "three_spec"),
])
def test_criterion_3_tdse_matches_eigenvector(fixture, spec_fixture, request):
    trajectory = request.getfixturevalue(fixture)
    spec = request.getfixturevalue(spec_fixture)
    vecs, _ = branch_vector_at(spec, trajectory.r)
    full = embed(vecs, spec.kind)
    worst = float(np.max(np.abs(probabilities(trajectory.psi) - full ** 2)))
    ok = worst < 1e-3
    _report("3", ok, f"{spec.kind}: max ||C_i|^2(TDSE) - |C_i|^2(branch)| "
                     f"= {worst:.2e} < 1e-3")
    assert worst < 1e-3


# -------------------------------------------------------------- criterion 4

def test_criterion_4_driving_coefficient_oracles(two_spec, two_branch,
                                                 three_spec, three_branch):
    # 101 sample points across the ramp
    worst_closed = 0.0
    worst_resid = 0.0
    worst_bz = 0.0
    for k in range(0, 2001, 20):
        w, residual = solve_core(two_spec, two_branch.vectors[k],
                                 two_branch.d_vectors[k])
        cf = closed_form_two_spin(two_spec, float(two_branch.r_grid[k]))
        worst_closed = max(worst_closed, abs(w[0] - cf))
        worst_resid = max(worst_resid, residual)
        worst_bz = max(worst_bz, abs(full_ansatz_solve(
            two_spec, two_branch.vectors[k], two_branch.d_vectors[k])[1]))
    worst_comp = 0.0
    for k in range(0, 2001, 20):
        c = three_branch.vectors[k]
        w, residual = solve_core(three_spec, c, three_branch.d_vectors[k])
        worst_resid = max(worst_resid, residual)
        worst_bz = max(worst_bz, abs(full_ansatz_solve(
            three_spec, c, three_branch.d_vectors[k])[1]))
        full = embed(c, three_spec.kind)  # (C1, C4, C6) at kets 0, 3, 5
        weight = 3 * full[0] ** 2 - 2 * full[3] ** 2 - full[5] ** 2
        if abs(full[0]) > 1e-10 and abs(weight) > 1e-10:
            comp = component_form_three_spin(
                full, embed(three_branch.d_vectors[k], three_spec.kind))
            worst_comp = max(worst_comp, *np.abs(comp - w))
    ok = (worst_closed < 1e-8 and worst_comp < 1e-6
          and worst_resid < RESIDUAL_NOISE_ATOL and worst_bz < 1e-10)
    _report("4", ok,
            f"|closed-solve| {worst_closed:.2e}, |component-solve| "
            f"{worst_comp:.2e}, residual {worst_resid:.2e}, |bz| {worst_bz:.2e}")
    assert worst_closed < 1e-8
    assert worst_comp < 1e-6
    assert worst_resid < RESIDUAL_NOISE_ATOL
    assert worst_bz < 1e-10


# -------------------------------------------------------------- criterion 5

def test_criterion_5_start_value_and_endpoint_pinning(two_spec, two_table,
                                                      profile):
    w0 = closed_form_two_spin(two_spec, 0.0)
    pin_start = np.array_equal(h_ff(two_spec, profile, two_table, 0.0),
                               h0(two_spec, 0.0))
    r_end = r_of_t(profile, two_spec.r0, profile.t_ff)
    pin_end = np.array_equal(h_ff(two_spec, profile, two_table, profile.t_ff),
                             h0(two_spec, r_end))
    v_ends = (v_of_t(profile, 0.0), v_of_t(profile, profile.t_ff))
    # smoothness of the interpolated coefficient over the run
    ts = np.linspace(0.0, profile.t_ff, 2001)
    w1 = np.array([two_table(r_of_t(profile, 0.0, float(t)))[0] for t in ts])
    second_diff = float(np.max(np.abs(np.diff(w1, 2))))
    smooth = second_diff < 1e-2 * float(np.max(np.abs(w1)))
    ok = (abs(w0 - 0.05) < 1e-12 and pin_start and pin_end
          and v_ends == (0.0, 0.0) and smooth)
    _report("5", ok,
            f"w1(R=0) = {w0!r}, endpoint pinning exact = {pin_start and pin_end}, "
            f"v(0), v(T) = {v_ends}, max |d2 w1| = {second_diff:.2e}")
    assert w0 == pytest.approx(0.05, abs=1e-12)
    assert pin_start and pin_end
    assert v_ends == (0.0, 0.0)
    assert smooth


# -------------------------------------------------------------- criterion 6

def test_criterion_6_negative_control(three_fast_runs):
    driven, bare = three_fast_runs
    fid_final = bare.fidelity[-1]
    fid_min = driven.fidelity.min()
    ok = fid_final < 0.9 and fid_min >= 0.999
    _report("6", ok,
            f"vbar=100, T=0.1: no-driving final fidelity {fid_final:.6f} "
            f"(target < 0.9), driven min fidelity {fid_min:.12f} "
            "(target >= 0.999)")
    assert fid_final < 0.9
    assert fid_min >= 0.999


# -------------------------------------------------------------- criterion 7

def test_criterion_7_spectrum_properties(two_spec, two_branch, three_spec,
                                         three_branch):
    w = np.linalg.eigvalsh(h0(three_spec, 0.0))
    ground_ok = abs(w[0] + 20.0) < 1e-9
    double = (w[1] - w[0] < 1e-9) and (w[2] - w[0] > 1e-9)
    gaps3 = gap_report(three_branch, three_spec)
    no_crossing = bool(np.all(gaps3[1:] > 0.0))
    # the branch is solved in the P = +1 block: h0 never couples it to P = -1
    even, odd = _parity_indices(4), _parity_indices(4, -1)
    support = not np.any(h0(two_spec, two_branch.r_grid)[:, even[:, None], odd])
    idx_lo = int(np.searchsorted(two_branch.r_grid, 7.99))
    idx_hi = int(np.searchsorted(two_branch.r_grid, 8.01))
    crossing = (two_branch.energies[idx_lo] + 10.0 > 0.0
                and two_branch.energies[idx_hi] + 10.0 < 0.0)
    ok = ground_ok and double and no_crossing and support and crossing
    _report("7", ok,
            f"E0(R=0) = {w[0]:.12f} two-fold = {double}, min gap(0,10] = "
            f"{float(np.min(gaps3[1:])):.2e}, block support = {support}, "
            f"crossing in 8 +/- 0.01 = {crossing}")
    assert ground_ok and double
    assert no_crossing
    assert support
    assert crossing


# -------------------------------------------------------------- criterion 8

def test_criterion_8_numerical_hygiene(three_spec, profile, three_table,
                                       three_run, tmp_path):
    drift = float(np.max(np.abs(three_run.norm - 1.0)))

    finals = []
    for steps in (2000, 4000, 8000):
        final = integrate(profile, steps=steps, output_stride=steps,
                          table=three_table)
        finals.append(final.psi[-1])
    d1 = float(np.linalg.norm(finals[0] - finals[1]))
    d2 = float(np.linalg.norm(finals[1] - finals[2]))
    halving_ratio = d1 / d2

    dense_grid = ramp_grid(three_spec, profile, 4001)
    dense = coefficient_table(track_branch(three_spec, dense_grid))
    coeff_shift = 0.0
    for r in np.linspace(0.05, 9.95, 101):
        shift = np.abs(three_table(float(r)) - dense(float(r)))
        coeff_shift = max(coeff_shift, *shift)

    config = make_config({"model": "three_spin_kagome", "grid_points": "301",
                          "integrator_steps": "2000", "output_stride": "200"})
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run(config, dir_a) == 0
    assert run(config, dir_b) == 0
    identical = all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        for name in ("trajectory.csv", "regularization.csv", "eigenvalues.csv",
                     "gap.csv", "run_manifest.txt"))

    ok = (drift < 1e-9 and halving_ratio >= 12.0 and coeff_shift < 1e-6
          and identical)
    _report("8", ok,
            f"norm drift {drift:.2e}, halving ratio {halving_ratio:.1f}, "
            f"grid-doubling shift {coeff_shift:.2e}, byte-identical reruns "
            f"= {identical}")
    assert drift < 1e-9
    assert halving_ratio >= 12.0
    assert coeff_shift < 1e-6
    assert identical
