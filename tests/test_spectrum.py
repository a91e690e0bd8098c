from __future__ import annotations

import numpy as np
import pytest

from ffspin.model import THREE_SPIN_KAGOME, TWO_SPIN, ModelSpec, d_h0_dr, h0
from ffspin.spectrum import (branch_vector_at, eigensolve, fd_branch_derivative,
                             fix_gauge, gap_report, track_branch)

RNG = np.random.RandomState(42)

#: closed-form end-of-ramp ground population of the first basis state,
#: (2 + sqrt(2)) / 4, from diagonalizing the final 2x2 block by hand
END_POPULATION = (2.0 + np.sqrt(2.0)) / 4.0


def test_eigensolve_two_spin_closed_form_ground():
    spec = ModelSpec(kind=TWO_SPIN)
    # J1=10, J2=0, Bz=10 corresponds to b0=10, r=0
    w, _ = eigensolve(h0(ModelSpec(kind=TWO_SPIN, b0=10.0), 0.0))
    assert w[0] == pytest.approx(-np.sqrt(200.0), abs=1e-10)


def test_eigensolve_identity():
    w, _ = eigensolve(np.eye(5, dtype=complex))
    assert np.allclose(w, 1.0)


def test_eigensolve_three_spin_r0_degenerate_ground():
    spec = ModelSpec(kind=THREE_SPIN_KAGOME)
    w, _ = eigensolve(h0(spec, 0.0))
    assert w[0] == pytest.approx(-20.0, abs=1e-9)
    assert w[1] - w[0] == pytest.approx(0.0, abs=1e-10)
    assert w[2] - w[0] > 1.0


def test_eigensolve_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        eigensolve(m)


def test_eigensolve_random_hermitian_residuals():
    a = RNG.randn(8, 8) + 1j * RNG.randn(8, 8)
    h = a + a.conj().T
    w, v = eigensolve(h)
    assert np.max(np.abs(h @ v - v * w)) < 1e-10 * np.max(np.abs(w))
    assert np.allclose(v.conj().T @ v, np.eye(8), atol=1e-10)


def test_fix_gauge_removes_global_phase():
    v = 1j * np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    assert np.allclose(fix_gauge(v), [1, 0, 0, 0])


def test_fix_gauge_keeps_real_input_up_to_sign():
    v = np.array([-0.6, 0.0, 0.0, 0.8], dtype=complex)
    out = fix_gauge(v)
    assert np.allclose(out, [-0.6, 0, 0, 0.8]) or np.allclose(out, [0.6, 0, 0, -0.8])
    assert out[np.argmax(np.abs(out))] > 0


def test_fix_gauge_reference_sign():
    v = np.array([0.6, 0.0, 0.0, -0.8])
    ref = np.array([-1.0, 0.0, 0.0, 0.0])
    assert fix_gauge(v.astype(complex), reference=ref)[0] < 0


def test_fix_gauge_rejects_truly_complex_ray():
    v = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
    with pytest.raises(ValueError, match="complex"):
        fix_gauge(v)


def test_resolve_two_spin_initial_state(two_branch):
    c = two_branch.vectors[0]
    assert c[1] == 0.0 and c[2] == 0.0
    assert c[0] ** 2 == pytest.approx(0.5, abs=1e-10)
    assert c[3] ** 2 == pytest.approx(0.5, abs=1e-10)
    # the two nonzero amplitudes carry opposite signs
    assert c[0] * c[3] < 0


def test_resolve_three_spin_initial_state(three_branch):
    c = three_branch.vectors[0]
    for k in (1, 2, 4, 7):
        assert c[k] == 0.0
    assert c[3] == pytest.approx(c[6], abs=1e-9)
    assert abs(c[0]) == pytest.approx(0.5, abs=1e-8)


def test_two_spin_branch_endpoints(two_branch):
    start = two_branch.vectors[0]
    end = two_branch.vectors[-1]
    assert start[0] ** 2 == pytest.approx(0.5, abs=1e-9)
    assert start[3] ** 2 == pytest.approx(0.5, abs=1e-9)
    assert end[0] ** 2 == pytest.approx(END_POPULATION, abs=1e-9)
    assert end[3] ** 2 == pytest.approx(1.0 - END_POPULATION, abs=1e-9)


def test_two_spin_branch_stays_in_parity_block(two_branch):
    for k in (1, 2):
        assert np.all(two_branch.vectors[:, k] == 0.0)
        assert np.all(two_branch.d_vectors[:, k] == 0.0)


def test_two_spin_sector_crossing_near_eight(two_branch):
    # the flat odd-sector level sits at -(J1+J2) = -10 for every R
    idx_lo = int(np.searchsorted(two_branch.r_grid, 7.99))
    idx_hi = int(np.searchsorted(two_branch.r_grid, 8.01))
    g_lo = two_branch.energies[idx_lo] + 10.0
    g_hi = two_branch.energies[idx_hi] + 10.0
    assert g_lo > 0 > g_hi


def test_three_spin_branch_support(three_branch):
    vecs = three_branch.vectors
    for k in (1, 2, 4, 7):
        assert np.all(vecs[:, k] == 0.0)
        assert np.all(three_branch.d_vectors[:, k] == 0.0)
    assert np.max(np.abs(vecs[:, 3] - vecs[:, 6])) < 1e-9


@pytest.mark.parametrize("fixture", ["two_branch", "three_branch"])
def test_branch_unit_norm_and_orthogonal_derivative(fixture, request):
    branch = request.getfixturevalue(fixture)
    norms = np.linalg.norm(branch.vectors, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    inner = np.abs(np.sum(branch.vectors * branch.d_vectors, axis=1))
    assert np.max(inner) < 1e-6


@pytest.mark.parametrize("kind", [TWO_SPIN, THREE_SPIN_KAGOME])
def test_branch_eigen_residual(kind, request):
    branch = request.getfixturevalue(
        "two_branch" if kind == TWO_SPIN else "three_branch")
    spec = ModelSpec(kind=kind)
    for k in range(0, len(branch.r_grid), 200):
        h = h0(spec, float(branch.r_grid[k]))
        res = np.linalg.norm(h @ branch.vectors[k]
                             - branch.energies[k] * branch.vectors[k])
        assert res < 1e-10


def test_branch_energy_continuity(three_branch, three_spec):
    lipschitz = np.linalg.norm(d_h0_dr(three_spec), ord=2)
    dr = np.diff(three_branch.r_grid)
    de = np.abs(np.diff(three_branch.energies))
    assert np.all(de <= lipschitz * dr + 1e-9)


def test_consecutive_overlap_positive(two_branch):
    dots = np.sum(two_branch.vectors[:-1] * two_branch.vectors[1:], axis=1)
    assert np.all(dots > 0.99)


def test_constant_grid_keeps_vector_fixed():
    spec = ModelSpec(kind=TWO_SPIN)
    branch = track_branch(spec, np.full(5, 1.0))
    for k in range(1, 5):
        assert np.allclose(branch.vectors[k], branch.vectors[0], atol=1e-12)
        assert branch.energies[k] == pytest.approx(branch.energies[0], abs=1e-12)


def test_coarse_grid_raises():
    spec = ModelSpec(kind=TWO_SPIN)
    with pytest.raises(RuntimeError, match="grid too coarse"):
        track_branch(spec, np.linspace(0.0, 10.0, 5))


def test_gap_zero_at_start_positive_after(three_branch, three_spec):
    gaps = gap_report(three_branch, three_spec)
    assert gaps[0] == pytest.approx(0.0, abs=1e-10)
    assert np.all(gaps[1:] > 0.0)


def test_two_spin_gap_at_end(two_branch, two_spec):
    # |E_branch(10)| = sqrt(200); the nearest level is the flat one at -10
    gaps = gap_report(two_branch, two_spec)
    assert gaps[-1] == pytest.approx(np.sqrt(200.0) - 10.0, abs=1e-9)


@pytest.mark.parametrize("kind,indices", [(TWO_SPIN, (0, 700, 1600)),
                                          (THREE_SPIN_KAGOME, (0, 700, 1600))])
def test_fd_derivative_cross_checks_resolvent(kind, indices, request):
    branch = request.getfixturevalue(
        "two_branch" if kind == TWO_SPIN else "three_branch")
    spec = ModelSpec(kind=kind)
    for k in indices:
        fd = fd_branch_derivative(spec, float(branch.r_grid[k]), branch.vectors[k])
        assert np.max(np.abs(fd - branch.d_vectors[k])) < 1e-6


def test_branch_vector_at_between_samples(two_branch, two_spec):
    r = 3.141
    vec, energy = branch_vector_at(two_spec, two_branch, r)
    h = h0(two_spec, r)
    assert np.linalg.norm(h @ vec - energy * vec) < 1e-10
    j1, j2, bz = 10.0 - r, r, -r
    assert energy == pytest.approx(-np.sqrt(bz ** 2 + (j1 - j2) ** 2), abs=1e-10)


def test_track_branch_rejects_bad_grid():
    spec = ModelSpec(kind=TWO_SPIN)
    with pytest.raises(ValueError, match="monotone"):
        track_branch(spec, np.array([0.0, 1.0, 0.5]))


def test_in_sector_crossing_between_samples_raises():
    # with b0 = j0/2 the P = +1 block [[Bz, J1 - J2], [J1 - J2, -Bz]] is zero
    # at R = 5; a grid that steps over R = 5 sees the two levels swap
    spec = ModelSpec(kind=TWO_SPIN, j0=10.0, b0=5.0)
    with pytest.raises(RuntimeError, match=r"in-sector crossing .* between r=4\.99.* and r=5\.00"):
        track_branch(spec, np.linspace(0.0, 10.0, 2000))
