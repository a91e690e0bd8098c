from __future__ import annotations

import numpy as np
import pytest

from ffspin.model import (THREE_SPIN_KAGOME, TWO_SPIN, DrivingCoefficients,
                          ModelSpec, d_h0_dr, driving_generators, h0,
                          h_candidate, schedules)
from ffspin.spin_algebra import is_hermitian, pair_coupling, pauli_on_site


def reference_two_spin_matrix(j1: float, j2: float, bz: float) -> np.ndarray:
    """Hand-transcribed dense form, kept as an independent fixture."""
    return np.array([
        [bz, 0, 0, j1 - j2],
        [0, 0, j1 + j2, 0],
        [0, j1 + j2, 0, 0],
        [j1 - j2, 0, 0, -bz]], dtype=complex)


def reference_three_spin_matrix(j1: float, j2: float, bz: float) -> np.ndarray:
    """Hand-transcribed dense form, kept as an independent fixture."""
    b = bz
    return np.array([
        [3 * b / 2, 0, 0, j1, 0, -j2, j1, 0],
        [0, b / 2, j1, 0, j2, 0, 0, j1],
        [0, j1, b / 2, 0, j1, 0, 0, -j2],
        [j1, 0, 0, -b / 2, 0, j1, j2, 0],
        [0, j2, j1, 0, b / 2, 0, 0, j1],
        [-j2, 0, 0, j1, 0, -b / 2, j1, 0],
        [j1, 0, 0, j2, 0, j1, -b / 2, 0],
        [0, j1, -j2, 0, j1, 0, 0, -3 * b / 2]], dtype=complex)


@pytest.fixture
def two() -> ModelSpec:
    return ModelSpec(kind=TWO_SPIN)


@pytest.fixture
def three() -> ModelSpec:
    return ModelSpec(kind=THREE_SPIN_KAGOME)


def test_invalid_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        ModelSpec(kind="four_spin")


def test_schedules_linear(two):
    assert schedules(two, 0.0) == (10.0, 0.0, 0.0)
    assert schedules(two, 3.5) == (6.5, 3.5, -3.5)


@pytest.mark.parametrize("r", [0.0, 1.3, 3.7, 10.0])
def test_three_spin_h0_matches_reference_entrywise(three, r):
    j1, j2, bz = schedules(three, r)
    assert np.allclose(h0(three, r), reference_three_spin_matrix(j1, j2, bz),
                       atol=1e-14)


def test_three_spin_first_row(three):
    j1, j2, bz = 6.3, 3.7, -3.7
    row = reference_three_spin_matrix(j1, j2, bz)[0]
    assert np.allclose(row, [3 * bz / 2, 0, 0, j1, 0, -j2, j1, 0])
    assert np.allclose(h0(three, 3.7)[0], row, atol=1e-14)


@pytest.mark.parametrize("r", [0.0, 2.1, 8.0])
def test_two_spin_h0_matches_reference_entrywise(two, r):
    j1, j2, bz = schedules(two, r)
    assert np.allclose(h0(two, r), reference_two_spin_matrix(j1, j2, bz),
                       atol=1e-14)


def test_two_spin_equal_couplings_kill_corner(two):
    # J1 == J2 happens at r = j0/2
    m = h0(two, 5.0)
    assert m[0, 3] == 0.0 and m[3, 0] == 0.0


def test_two_spin_r0_eigenvalues(two):
    w = np.linalg.eigvalsh(h0(two, 0.0))
    assert np.allclose(np.sort(w), [-10, -10, 10, 10], atol=1e-12)


def test_three_spin_candidate_matches_pattern(three):
    m = h_candidate(three, DrivingCoefficients(w1=1.0, w2=0.0, bz_tilde=0.0))
    expected = np.zeros((8, 8), dtype=complex)
    for a, b in [(0, 3), (0, 6), (1, 7), (4, 7)]:
        expected[a, b] = -2.0j
        expected[b, a] = 2.0j
    assert np.allclose(m, expected, atol=1e-14)
    m2 = h_candidate(three, DrivingCoefficients(w1=0.0, w2=1.0, bz_tilde=0.0))
    assert m2[0, 5] == pytest.approx(-2.0j)
    assert m2[2, 7] == pytest.approx(-2.0j)
    mz = h_candidate(three, DrivingCoefficients(w1=0.0, w2=0.0, bz_tilde=2.0))
    assert np.allclose(np.diag(mz), [3, 1, 1, -1, 1, -1, -1, -3], atol=1e-14)


def test_candidate_zero_coefficients_gives_zero(three):
    m = h_candidate(three, DrivingCoefficients(0.0, 0.0, 0.0))
    assert np.array_equal(m, np.zeros((8, 8), dtype=complex))


def test_two_spin_candidate_coefficient_convention(two):
    # w1 is normalized to the full off-diagonal magnitude: entries -i w1 / +i w1.
    # The generator is therefore half of (x1 y2 + y1 x2).
    m = h_candidate(two, DrivingCoefficients(w1=1.0))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = -1.0j
    expected[3, 0] = 1.0j
    assert np.allclose(m, expected, atol=1e-14)
    pair = pair_coupling("x", "y", 1, 2, 2) + pair_coupling("y", "x", 1, 2, 2)
    assert np.allclose(driving_generators(two)[0], 0.5 * pair, atol=1e-14)


def test_two_spin_d_h0_dr_explicit(two):
    expected = (-pair_coupling("x", "x", 1, 2, 2)
                + pair_coupling("y", "y", 1, 2, 2)
                - 0.5 * (pauli_on_site("z", 1, 2) + pauli_on_site("z", 2, 2)))
    assert np.allclose(d_h0_dr(two), expected, atol=1e-14)


@pytest.mark.parametrize("kind", [TWO_SPIN, THREE_SPIN_KAGOME])
@pytest.mark.parametrize("delta", [1e-3, 0.1, 2.0])
def test_h0_affine_in_r(kind, delta):
    spec = ModelSpec(kind=kind)
    for r in (0.0, 1.7, 6.2):
        lhs = h0(spec, r + delta) - h0(spec, r)
        assert np.allclose(lhs, delta * d_h0_dr(spec), atol=1e-12)
    assert np.allclose(h0(spec, 4.2), h0(spec, 0) + 4.2 * d_h0_dr(spec), atol=1e-12)


def test_three_spin_dh_hermitian_traceless(three):
    m = d_h0_dr(three)
    assert is_hermitian(m)
    assert abs(np.trace(m)) < 1e-14


@pytest.mark.parametrize("kind", [TWO_SPIN, THREE_SPIN_KAGOME])
def test_candidate_offdiagonals_purely_imaginary_without_field(kind):
    spec = ModelSpec(kind=kind)
    m = h_candidate(spec, DrivingCoefficients(w1=0.7, w2=0.3, bz_tilde=0.0))
    assert is_hermitian(m)
    assert np.max(np.abs(m.real)) < 1e-14
    assert np.max(np.abs(np.diag(m))) < 1e-14


def test_three_spin_candidate_support_from_first_state(three):
    m = h_candidate(three, DrivingCoefficients(w1=0.7, w2=0.3, bz_tilde=0.0))
    coupled = {k for k in range(8) if abs(m[0, k]) > 1e-14}
    assert coupled == {3, 5, 6}  # 1-based positions 4, 6, 7
