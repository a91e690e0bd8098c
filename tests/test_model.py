from __future__ import annotations

import numpy as np
import pytest

from ffspin.model import (MODEL_KINDS, SECTORS, TERM_WORDS, THREE_SPIN_KAGOME,
                          TWO_SPIN, ModelSpec, _parity_indices, d_h0_dr,
                          h0, schedules, sector_basis, structural_terms)

from oracles import (bond_terms, h_candidate, is_hermitian, site_reversal,
                     slow_word)


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["j0", "b0", "r0"])
def test_non_finite_constant_is_rejected_by_name(key, value):
    # j0 = nan used to reach the eigensolver as "matrix is not Hermitian
    # (max deviation nan)"; r0 = nan tracked an explicit grid without error
    for kind in MODEL_KINDS:
        with pytest.raises(ValueError, match=f"^{key} must be finite$"):
            ModelSpec(kind=kind, **{key: value})


@pytest.mark.parametrize("kind,n_spins,n_generators", [(TWO_SPIN, 2, 1),
                                                     (THREE_SPIN_KAGOME, 3, 2)])
def test_sizes_come_from_the_word_table(kind, n_spins, n_generators):
    # the table lists the three H0 terms, then only the model's own generators
    spec = ModelSpec(kind=kind)
    assert (spec.n_spins, spec.dim, spec.n_generators) == (n_spins, 2 ** n_spins,
                                                           n_generators)
    assert len(TERM_WORDS[kind]) == 3 + n_generators
    assert structural_terms(kind).shape == (3 + n_generators, spec.dim, spec.dim)
    assert not any(set(word) == {"1"} for _, words in TERM_WORDS[kind]
                   for word in words.split())  # no identity-only dummy term
    assert MODEL_KINDS == tuple(TERM_WORDS)


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
    m = h_candidate(three, w1=1.0)
    expected = np.zeros((8, 8), dtype=complex)
    for a, b in [(0, 3), (0, 6), (1, 7), (4, 7)]:
        expected[a, b] = -2.0j
        expected[b, a] = 2.0j
    assert np.allclose(m, expected, atol=1e-14)
    m2 = h_candidate(three, w2=1.0)
    assert m2[0, 5] == pytest.approx(-2.0j)
    assert m2[2, 7] == pytest.approx(-2.0j)
    mz = h_candidate(three, bz=2.0)
    assert np.allclose(np.diag(mz), [3, 1, 1, -1, 1, -1, -1, -3], atol=1e-14)


def test_candidate_zero_coefficients_gives_zero(three):
    m = h_candidate(three, 0.0, 0.0, 0.0)
    assert np.array_equal(m, np.zeros((8, 8), dtype=complex))


def test_two_spin_candidate_coefficient_convention(two):
    # w1 is normalized to the full off-diagonal magnitude: entries -i w1 / +i w1.
    # The generator is therefore half of (x1 y2 + y1 x2).
    m = h_candidate(two, w1=1.0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = -1.0j
    expected[3, 0] = 1.0j
    assert np.allclose(m, expected, atol=1e-14)
    pair = slow_word("xy") + slow_word("yx")
    assert np.allclose(structural_terms(two.kind)[3], 0.5 * pair, atol=1e-14)


def test_two_spin_d_h0_dr_explicit(two):
    expected = (-slow_word("xx") + slow_word("yy")
                - 0.5 * (slow_word("z1") + slow_word("1z")))
    assert np.allclose(d_h0_dr(two), expected, atol=1e-14)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_structural_terms_equal_the_bond_sums(kind):
    terms = structural_terms(kind)
    assert terms.dtype == np.complex128 and not terms.flags.writeable
    expected = bond_terms(kind)
    assert len(terms) == len(expected)
    for term, oracle in zip(terms, expected):
        assert np.array_equal(term, oracle)


@pytest.mark.parametrize("kind", [TWO_SPIN, THREE_SPIN_KAGOME])
@pytest.mark.parametrize("delta", [1e-3, 0.1, 2.0])
def test_h0_affine_in_r(kind, delta):
    spec = ModelSpec(kind=kind)
    for r in (0.0, 1.7, 6.2):
        lhs = h0(spec, r + delta) - h0(spec, r)
        assert np.allclose(lhs, delta * d_h0_dr(spec), atol=1e-12)
    assert np.allclose(h0(spec, 4.2), h0(spec, 0) + 4.2 * d_h0_dr(spec), atol=1e-12)


#: the sectors that make up the full space (None) and each parity block
SECTORS_OF_PARITY = {None: (None,), 1: ("branch", "rest"), -1: ("odd", "odd_rest")}


@pytest.mark.parametrize("kind", [TWO_SPIN, THREE_SPIN_KAGOME])
@pytest.mark.parametrize("parity", [None, 1, -1])
def test_bare_hamiltonian_is_real(kind, parity):
    # xx, yy and z are real in the z basis; only the xy + yx generators are not
    spec = ModelSpec(kind=kind)
    for sector in SECTORS_OF_PARITY[parity]:
        assert not np.any(structural_terms(kind, sector)[:3].imag)
        assert h0(spec, 3.7, sector).dtype == np.float64
        assert h0(spec, np.linspace(0.0, 10.0, 3), sector).dtype == np.float64
        assert d_h0_dr(spec, sector).dtype == np.float64


@pytest.mark.parametrize("kind", [TWO_SPIN, THREE_SPIN_KAGOME])
@pytest.mark.parametrize("parity", [None, 1, -1])
def test_driving_generators_are_purely_imaginary(kind, parity):
    # the exchange-only core solve rests on this: with h0 real, a real part of
    # a generator would make the dropped field coefficient nonzero
    n_terms = 3 + ModelSpec(kind=kind).n_generators
    for sector in SECTORS_OF_PARITY[parity]:
        assert structural_terms(kind, sector).shape[0] == n_terms
        assert not np.any(structural_terms(kind, sector)[3:].real)


def test_three_spin_dh_hermitian_traceless(three):
    m = d_h0_dr(three)
    assert is_hermitian(m)
    assert abs(np.trace(m)) < 1e-14


@pytest.mark.parametrize("kind", [TWO_SPIN, THREE_SPIN_KAGOME])
def test_candidate_offdiagonals_purely_imaginary_without_field(kind):
    spec = ModelSpec(kind=kind)
    m = h_candidate(spec, w1=0.7, w2=0.3)
    assert is_hermitian(m)
    assert np.max(np.abs(m.real)) < 1e-14
    assert np.max(np.abs(np.diag(m))) < 1e-14


def test_three_spin_candidate_support_from_first_state(three):
    m = h_candidate(three, w1=0.7, w2=0.3)
    coupled = {k for k in range(8) if abs(m[0, k]) > 1e-14}
    assert coupled == {3, 5, 6}  # 1-based positions 4, 6, 7


# ------------------------------------------------------------------ sectors

@pytest.mark.parametrize("kind,dims", [(TWO_SPIN, (2, 0, 1, 1)),
                                       (THREE_SPIN_KAGOME, (3, 1, 3, 1))])
def test_sector_bases_are_orthonormal_and_split_the_space(kind, dims):
    bases = [sector_basis(kind, sector) for sector in SECTORS]
    assert tuple(u.shape[1] for u in bases) == dims
    for u in bases:
        assert not u.flags.writeable
        assert np.max(np.abs(u.T @ u - np.eye(u.shape[1])), initial=0.0) < 1e-15
    whole = np.hstack(bases)
    assert np.max(np.abs(whole.T @ whole - np.eye(len(whole)))) < 1e-15


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_table_symmetry_is_the_site_reversal(kind):
    # the reversal of the sites (the swap for two spins, site 1 <-> 3 for the
    # triangle) and P commute with every term of the word table
    n = ModelSpec(kind=kind).n_spins
    reversal = site_reversal(n)
    parity = np.diag([(-1.0) ** bin(i).count("1") for i in range(2 ** n)])
    for symmetry in (reversal, parity):
        for term in structural_terms(kind):
            assert np.array_equal(symmetry @ term, term @ symmetry)
    # the sectors are its eigenspaces: the branch and the rest of P = +1 are
    # reversal-even and -odd, exactly
    branch, rest = sector_basis(kind, "branch"), sector_basis(kind, "rest")
    assert np.array_equal(reversal @ branch, branch)
    assert np.array_equal(parity @ branch, branch)
    assert np.array_equal(reversal @ rest, -rest)
    assert np.array_equal(parity @ rest, rest)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("sector", SECTORS)
def test_every_term_leaves_each_sector_invariant(kind, sector):
    # T U = U (U^T T U): no term couples a sector to the others, so the
    # sector terms are the whole action of the terms there
    u = sector_basis(kind, sector)
    full = structural_terms(kind)
    assert np.max(np.abs(full @ u - u @ structural_terms(kind, sector)),
                  initial=0.0) < 1e-15
    for other in SECTORS:
        if other != sector:
            v = sector_basis(kind, other)
            assert np.max(np.abs(v.T @ full @ u), initial=0.0) < 1e-15


def test_two_spin_sectors_are_slices_of_the_full_terms():
    # the swap leaves the P = +1 block whole: U is identity columns 0 and 3,
    # so the block terms are a slice of the full ones, signed zeros too.
    # It splits P = -1 into (ud + du)/sqrt(2) and (ud - du)/sqrt(2), where
    # xx and yy are exactly +1 and -1
    full = structural_terms(TWO_SPIN)
    ix = _parity_indices(4)
    assert np.array_equal(sector_basis(TWO_SPIN, "branch"), np.eye(4)[:, ix])
    sliced = full[:, ix[:, None], ix]
    terms = structural_terms(TWO_SPIN, "branch")
    assert np.array_equal(terms, sliced)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(terms, part)),
                              np.signbit(getattr(sliced, part)))
    assert structural_terms(TWO_SPIN, "rest").shape == (4, 0, 0)
    for sector, sign in (("odd", 1.0), ("odd_rest", -1.0)):
        assert np.array_equal(sector_basis(TWO_SPIN, sector)[:, 0],
                              [0.0, np.sqrt(0.5), sign * np.sqrt(0.5), 0.0])
        assert np.array_equal(structural_terms(TWO_SPIN, sector)[:, 0, 0],
                              [sign, sign, 0.0, 0.0])


def test_three_spin_sector_terms_match_the_hand_written_matrix(three):
    # U^T h0 U on (uuu, (udd + ddu)/sqrt(2), dud) from the dense fixture
    j1, j2, bz = schedules(three, 2.7)
    u = sector_basis(THREE_SPIN_KAGOME, "branch")
    expected = u.T @ reference_three_spin_matrix(j1, j2, bz).real @ u
    assert np.allclose(h0(three, 2.7, "branch"), expected, atol=1e-14)
    assert np.allclose(u[[0, 3, 5, 6]], [[1, 0, 0], [0, 0.5 ** 0.5, 0],
                                         [0, 0, 1], [0, 0.5 ** 0.5, 0]], atol=0.0)


def test_three_spin_sector_terms_are_exact_or_correctly_rounded():
    # integer reversal sums scaled once: each entry is the double nearest the
    # exact restriction U^T T U, so M_j2[1, 1] is 1 (not 0.9999999999999998)
    # and the sqrt(2) entries are sqrt(2) rounded once (not 1.414213562373095)
    root2 = np.sqrt(2.0)  # IEEE sqrt is correctly rounded: 1.4142135623730951
    expected = [
        [[0, root2, 0], [root2, 0, root2], [0, root2, 0]],      # M_j1
        [[0, 0, -1], [0, 1, 0], [-1, 0, 0]],                    # M_j2
        [[1.5, 0, 0], [0, -0.5, 0], [0, 0, -0.5]],              # M_bz
        [[0, -2j * root2, 0], [2j * root2, 0, 0], [0, 0, 0]],   # G_w1
        [[0, 0, -2j], [0, 0, 0], [2j, 0, 0]],                   # G_w2
    ]
    terms = structural_terms(THREE_SPIN_KAGOME, "branch")
    assert np.array_equal(terms, expected)
    assert terms[1, 1, 1] == 1.0 and terms[0, 0, 1] == 1.4142135623730951
    rest = structural_terms(THREE_SPIN_KAGOME, "rest")
    assert np.array_equal(rest[:, 0, 0], [0, -1, -0.5, 0, 0])
    assert np.array_equal(sector_basis(THREE_SPIN_KAGOME, "branch")[[3, 6], 1],
                          [np.sqrt(0.5)] * 2)


def test_word_table_without_the_site_reversal_is_rejected(monkeypatch):
    # a three-site kind with only the (1,2) xx bond: reversed, its word is
    # 1xx, so the reversal sectors would not be invariant
    monkeypatch.setitem(TERM_WORDS, "bond_12", ((1, "xx1"),))
    with pytest.raises(ValueError, match="'bond_12' are not symmetric under the site reversal"):
        sector_basis("bond_12", "branch")


def test_unknown_sector_rejected():
    with pytest.raises(ValueError, match="sector must be one of"):
        sector_basis(TWO_SPIN, "even")
