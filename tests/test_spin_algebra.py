"""The Pauli words that the model's structural terms are built from
(``model.pauli_word`` and ``model.TERM_WORDS``), checked against operators
built by acting on ket labels."""
from __future__ import annotations

import numpy as np
import pytest

from ffspin.model import (MODEL_KINDS, TERM_WORDS, TWO_SPIN, ModelSpec, pauli_word,
                          structural_terms)

from oracles import binary_labels, is_hermitian, slow_pauli, slow_word


def on_sites(axes: dict[int, str], n_spins: int = 3) -> str:
    """The word with ``axes[i]`` on site i and the identity elsewhere."""
    return "".join(axes.get(site, "1") for site in range(1, n_spins + 1))


def test_pauli_z_site1_two_spin_is_diagonal_signs():
    assert np.array_equal(pauli_word("z1"), np.diag([1, 1, -1, -1]).astype(complex))


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("site", [1, 2, 3])
def test_pauli_squares_to_identity(axis, site):
    m = pauli_word(on_sites({site: axis}))
    assert np.array_equal(m @ m, np.eye(8))


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_pauli_hermitian(axis):
    assert is_hermitian(pauli_word(on_sites({2: axis})))


def test_three_spin_yy_matrix_element():
    # <uuu| y1 y3 |dud> = -1 in M_j2; that ket pair sits at positions (1, 6)
    m = structural_terms("three_spin_kagome")[1]
    labels = binary_labels(3)
    assert labels[0] == "uuu" and labels[5] == "dud"
    assert m[0, 5] == -1.0
    assert m[5, 0] == -1.0


def test_pair_xx_two_spin_antidiagonal_pattern():
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = expected[3, 0] = 1.0
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.array_equal(structural_terms(TWO_SPIN)[0], expected)


def test_xy_plus_yx_corner_entries():
    # the two-spin G_w1 is half of x1y2 + y1x2
    m = 2 * structural_terms(TWO_SPIN)[3]
    assert m[0, 3] == -2.0j
    assert m[3, 0] == 2.0j
    # the middle block stays empty: the two orderings cancel there
    assert m[1, 2] == 0.0
    assert is_hermitian(m)


@pytest.mark.parametrize("axes", [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")])
@pytest.mark.parametrize("sites", [(1, 2), (2, 3), (3, 1)])
def test_pair_coupling_traceless(axes, sites):
    m = pauli_word(on_sites(dict(zip(sites, axes))))
    assert np.trace(m) == 0.0


@pytest.mark.parametrize("a", ["x", "y", "z"])
@pytest.mark.parametrize("b", ["x", "y", "z"])
def test_distinct_site_paulis_commute(a, b):
    ma = pauli_word(on_sites({1: a}))
    mb = pauli_word(on_sites({3: b}))
    assert np.array_equal(ma @ mb, mb @ ma)


@pytest.mark.parametrize("n_spins", [2, 3])
def test_permutation_consistency(n_spins):
    # the Kronecker build agrees with the label-action oracle in binary order
    labels = binary_labels(n_spins)
    for axis in "xyz":
        for site in range(1, n_spins + 1):
            assert np.array_equal(pauli_word(on_sites({site: axis}, n_spins)),
                                  slow_pauli(axis, site, labels))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_every_table_word_matches_the_label_oracle(kind):
    n_spins = ModelSpec(kind=kind).n_spins
    words = [word for _, text in TERM_WORDS[kind] for word in text.split()]
    assert all(len(word) == n_spins for word in words)
    for word in words:
        m = pauli_word(word)
        assert np.array_equal(m, slow_word(word)), word
        assert is_hermitian(m), word
        assert np.array_equal(m @ m, np.eye(2 ** n_spins)), word
