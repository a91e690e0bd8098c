from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from ffspin.spin_algebra import is_hermitian, pair_coupling, pauli_on_site


def binary_labels(n_spins: int) -> list[str]:
    """Ket labels in binary counting order: site 1 most significant, u before d."""
    return ["".join(spins) for spins in product("ud", repeat=n_spins)]


def slow_pauli(axis: str, site: int, labels: list[str]) -> np.ndarray:
    """Independent oracle: build the operator by acting on ket labels."""
    action = {
        "x": {"u": ("d", 1.0), "d": ("u", 1.0)},
        "y": {"u": ("d", 1.0j), "d": ("u", -1.0j)},
        "z": {"u": ("u", 1.0), "d": ("d", -1.0)},
    }[axis]
    dim = len(labels)
    m = np.zeros((dim, dim), dtype=complex)
    for col, ket in enumerate(labels):
        new_spin, factor = action[ket[site - 1]]
        out = ket[:site - 1] + new_spin + ket[site:]
        m[labels.index(out), col] = factor
    return m


def test_pauli_z_site1_two_spin_is_diagonal_signs():
    m = pauli_on_site("z", 1, 2)
    assert np.array_equal(m, np.diag([1, 1, -1, -1]).astype(complex))


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("site", [1, 2, 3])
def test_pauli_squares_to_identity(axis, site):
    m = pauli_on_site(axis, site, 3)
    assert np.allclose(m @ m, np.eye(8), atol=1e-14)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_pauli_hermitian(axis):
    assert is_hermitian(pauli_on_site(axis, 2, 3))


def test_three_spin_yy_matrix_element():
    # <uuu| y1 y3 |dud> = -1; that ket pair sits at positions (1, 6)
    m = pair_coupling("y", "y", 1, 3, 3)
    labels = binary_labels(3)
    assert labels[0] == "uuu" and labels[5] == "dud"
    assert m[0, 5] == pytest.approx(-1.0)
    assert m[5, 0] == pytest.approx(-1.0)


def test_pair_xx_two_spin_antidiagonal_pattern():
    m = pair_coupling("x", "x", 1, 2, 2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = expected[3, 0] = 1.0
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.array_equal(m, expected)


def test_xy_plus_yx_corner_entries():
    m = pair_coupling("x", "y", 1, 2, 2) + pair_coupling("y", "x", 1, 2, 2)
    assert m[0, 3] == pytest.approx(-2.0j)
    assert m[3, 0] == pytest.approx(2.0j)
    # the middle block stays empty: the two orderings cancel there
    assert m[1, 2] == pytest.approx(0.0)
    assert is_hermitian(m)


@pytest.mark.parametrize("axes", [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")])
@pytest.mark.parametrize("sites", [(1, 2), (2, 3), (3, 1)])
def test_pair_coupling_traceless(axes, sites):
    m = pair_coupling(axes[0], axes[1], sites[0], sites[1], 3)
    assert abs(np.trace(m)) < 1e-14


@pytest.mark.parametrize("a", ["x", "y", "z"])
@pytest.mark.parametrize("b", ["x", "y", "z"])
def test_distinct_site_paulis_commute(a, b):
    ma = pauli_on_site(a, 1, 3)
    mb = pauli_on_site(b, 3, 3)
    assert np.allclose(ma @ mb, mb @ ma, atol=1e-14)


@pytest.mark.parametrize("n_spins", [2, 3])
def test_permutation_consistency(n_spins):
    # the Kronecker build agrees with the label-action oracle in binary order
    labels = binary_labels(n_spins)
    for axis in "xyz":
        for site in range(1, n_spins + 1):
            assert np.array_equal(pauli_on_site(axis, site, n_spins),
                                  slow_pauli(axis, site, labels))


def test_pair_coupling_same_site_raises():
    with pytest.raises(ValueError, match="distinct sites"):
        pair_coupling("x", "y", 2, 2, 3)


@pytest.mark.parametrize("site", [0, 4, -1])
def test_invalid_site_raises(site):
    with pytest.raises(ValueError, match="site"):
        pauli_on_site("x", site, 3)


def test_invalid_axis_raises():
    with pytest.raises(ValueError, match="axis"):
        pauli_on_site("q", 1, 2)
