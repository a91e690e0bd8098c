from __future__ import annotations

import warnings
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ffspin import spectrum
from ffspin.cli import ScenarioConfig, run
from ffspin.model import (SECTORS, THREE_SPIN_KAGOME, TWO_SPIN, ModelSpec,
                          _parity_indices, d_h0_dr, h0)
from ffspin.spectrum import branch_vector_at, eigensolve, fix_gauge, track_branch

from oracles import embed, gap_report

RNG = np.random.RandomState(42)

#: closed-form end-of-ramp ground population of the first basis state,
#: (2 + sqrt(2)) / 4, from diagonalizing the final 2x2 block by hand
END_POPULATION = (2.0 + np.sqrt(2.0)) / 4.0


def test_eigensolve_two_spin_closed_form_ground():
    # J1=10, J2=0, Bz=10 corresponds to b0=10, r=0; the branch block is
    # [[Bz, J1 - J2], [J1 - J2, -Bz]]
    w, _ = eigensolve(h0(ModelSpec(kind=TWO_SPIN, b0=10.0), 0.0, "branch"))
    assert w[0] == pytest.approx(-np.sqrt(200.0), abs=1e-10)


def test_eigensolve_identity():
    for d in (1, 2, 3):
        w, v = eigensolve(np.eye(d))
        assert np.allclose(w, 1.0) and np.allclose(v.T @ v, np.eye(d), atol=1e-15)


def test_eigensolve_three_spin_r0_degenerate_ground():
    # the sector blocks together hold the whole spectrum; the two-fold ground
    # level at R = 0 is shared between sectors
    spec = ModelSpec(kind=THREE_SPIN_KAGOME)
    w = np.sort(np.concatenate([eigensolve(h0(spec, 0.0, sector))[0]
                                for sector in SECTORS]))
    assert np.allclose(w, np.linalg.eigvalsh(h0(spec, 0.0)), rtol=0.0, atol=1e-12)
    assert w[0] == pytest.approx(-20.0, abs=1e-9)
    assert w[1] - w[0] == pytest.approx(0.0, abs=1e-10)
    assert w[2] - w[0] > 1.0


def test_eigensolve_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        eigensolve(m)


def test_eigensolve_rejects_complex_and_larger_stacks():
    # every sector block is real and at most 3 x 3; anything else is refused
    # by name, before any check or solve
    h = np.array([[[1.0, 1j], [-1j, 2.0]]] * 5)  # Hermitian
    with pytest.raises(ValueError, match=r"real \(\.\.\., d, d\) stacks with d <= 3, "
                                         r"got complex128 of shape \(5, 2, 2\)"):
        eigensolve(h)
    with pytest.raises(ValueError, match=r"d <= 3, got float64 of shape \(4, 4\)"):
        eigensolve(np.eye(4))


@pytest.mark.parametrize("kind", [TWO_SPIN, THREE_SPIN_KAGOME])
def test_eigensolve_stack_matches_per_matrix_calls(kind):
    hs = h0(ModelSpec(kind=kind), np.linspace(0.0, 10.0, 7), "branch")
    w, v = eigensolve(hs)
    assert w.shape == hs.shape[:2] and v.shape == hs.shape
    for k, h in enumerate(hs):
        wk, vk = eigensolve(h)
        assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)
    bad = hs.copy()
    bad[4, 0, 1] += 1e-6  # one non-Hermitian matrix inside the stack
    with pytest.raises(ValueError, match="Hermitian"):
        eigensolve(bad)


def test_eigensolve_random_hermitian_residuals():
    for d in (2, 3):
        a = RNG.randn(8, d, d)
        h = a + a.swapaxes(-1, -2)
        w, v = eigensolve(h)
        assert np.max(np.abs(h @ v - v * w[:, None, :])) < 1e-10 * np.max(np.abs(w))
        assert np.allclose(v.swapaxes(-1, -2) @ v, np.eye(d), atol=1e-10)


def _lapack_agreement(h, w, v):
    """Check (w, v) against ``np.linalg.eigh`` of a real symmetric (n, 2, 2)
    stack: levels within 4 ulp of each matrix's largest entry, vectors within
    1e-15 up to sign, scaled by the eigenvector condition scale / gap."""
    w_ref, v_ref = np.linalg.eigh(h)
    scale = np.max(np.abs(h), axis=(1, 2))
    assert np.all(np.abs(w - w_ref) <= 4 * np.spacing(scale)[:, None])
    half_gap = 0.5 * w_ref[:, 1] - 0.5 * w_ref[:, 0]  # the gap may overflow
    # Davis-Kahan: any backward stable solver fixes a vector only to
    # about eps * scale / gap; a gap of zero leaves it undetermined
    determined = half_gap > 0
    condition = np.maximum(1.0, 0.5 * scale[determined] / half_gap[determined])
    signs = np.sign(np.sum(v * v_ref, axis=1))[determined]
    error = np.max(np.abs(v[determined] * signs[:, None, :] - v_ref[determined]),
                   axis=(1, 2), initial=0.0)
    assert np.all(error <= 1e-15 * condition), (h[determined][error > 1e-15 * condition])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_closed_form_2x2_matches_lapack(data):
    # real symmetric 2 x 2 stacks at scales 1e-150 to 1e150, with exact
    # degeneracies (a = d, b = 0), diagonal matrices in both orders and
    # signed zeros among the entries
    n = data.draw(st.integers(1, 6))
    unit = hnp.arrays(np.float64, (n, 3), elements=st.floats(-1.0, 1.0))
    entries = data.draw(unit) * 10.0 ** data.draw(st.integers(-150, 150))
    shape = data.draw(st.sampled_from(["any", "a = d, b = 0", "b = 0"]))
    if shape != "any":
        entries[:, 1] = data.draw(st.sampled_from([0.0, -0.0]))
    if shape == "a = d, b = 0":
        entries[:, 2] = entries[:, 0]
    a, b, d = entries.T
    h = np.stack([a, b, b, d], axis=-1).reshape(n, 2, 2)
    w, v = eigensolve(h)
    assert np.all(w[:, 0] <= w[:, 1])
    _lapack_agreement(h, w, v)
    identity = (a == d) & (b == 0)
    assert np.array_equal(np.abs(v[identity]), np.broadcast_to(np.eye(2), v[identity].shape))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_closed_form_2x2_passing_its_residual_check_is_orthonormal_and_ascending(data):
    # eigensolve checks only the residual of a 2 x 2 solve: the rotation
    # [[c, -s], [s, c]] it returns must be orthonormal to 4 ulp and its levels
    # ascending wherever that check passes.  Scales 1e-300 to 1e300 and
    # entries near the largest double, with signed zeros, exact degeneracies
    # (a = d, b = 0) and diagonal matrices
    n = data.draw(st.integers(1, 8))
    unit = data.draw(hnp.arrays(np.float64, (n, 3), elements=st.floats(-1.0, 1.0)))
    scale = data.draw(st.one_of(st.integers(-300, 300).map(lambda p: 10.0 ** p),
                                st.sampled_from([1e307, 1e308, np.finfo(float).max])))
    entries = unit * scale
    shape = data.draw(st.sampled_from(["any", "a = d, b = 0", "b = 0"]))
    if shape != "any":
        entries[:, 1] = data.draw(st.sampled_from([0.0, -0.0]))
    if shape == "a = d, b = 0":
        entries[:, 2] = entries[:, 0]
    a, b, d = entries.T
    h = np.stack([a, b, b, d], axis=-1).reshape(n, 2, 2)
    with np.errstate(all="ignore"):  # an overflowing level fails the residual check
        w, v = spectrum._eigh_2x2(h)
        residual, bound = spectrum._residual(h, w, v)[1:]
    passed = np.all(residual <= bound, axis=(1, 2))
    ortho = np.abs(np.einsum("nki,nkj->nij", v, v) - np.eye(2))
    assert np.all(ortho[passed] <= 4 * np.finfo(float).eps)
    assert np.all(w[passed, 0] <= w[passed, 1])


def test_closed_form_2x2_failing_its_residual_check_takes_the_lapack_fallback(
        two_spec, monkeypatch):
    # a closed form with one level scaled by 1 + 1e-9 fails the residual check
    # on every matrix, so each is re-solved by LAPACK, in one call
    h = h0(two_spec, np.linspace(0.0, 10.0, 11), "branch")
    def scaled(h, _eigh_2x2=spectrum._eigh_2x2):
        w, v = _eigh_2x2(h)
        upper = np.abs(w[:, 1]) >= np.abs(w[:, 0])
        w[upper, 1] *= 1.0 + 1e-9
        w[~upper, 0] *= 1.0 + 1e-9
        return w, v
    monkeypatch.setattr(spectrum, "_eigh_2x2", scaled)
    lapack = _counted_eigh(monkeypatch)
    w, v = eigensolve(h)
    assert lapack == [(11, 2, 2)]
    monkeypatch.undo()
    w_ref, v_ref = np.linalg.eigh(h)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


def test_closed_form_2x2_on_the_two_spin_ramp(two_spec):
    # the branch block [[Bz, J1 - J2], [J1 - J2, -Bz]] of the default ramp;
    # the P = -1 blocks are the 1 x 1 levels +(J1 + J2) and -(J1 + J2)
    rs = np.linspace(0.0, 10.0, 801)
    h = h0(two_spec, rs, "branch")
    w, v = eigensolve(h)
    _lapack_agreement(h, w, v)
    for sector, sign in (("odd", 1.0), ("odd_rest", -1.0)):
        w, v = eigensolve(h0(two_spec, rs, sector))
        assert np.array_equal(w[:, 0], sign * h0(two_spec, rs, "odd")[:, 0, 0])
        assert np.allclose(w[:, 0], sign * 10.0, rtol=0.0, atol=1e-14)


def test_closed_form_2x2_near_the_float_limit():
    # entries near the largest double: a - d and e + r would overflow, the
    # scaled row does not; levels beyond it fail the residual check
    h = np.array([[[1e308, 1e308], [1e308, -1e308]], [[1e308, 0.0], [0.0, 1e308]]])
    w, v = eigensolve(h)
    _lapack_agreement(h, w, v)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="residual"):
        eigensolve(np.full((2, 2), 1.7e308) * [[1, 1], [1, -1]])


def _counted_eigh(monkeypatch) -> list:
    """The stack shapes ``np.linalg.eigh`` is called with from here on."""
    calls = []
    def counted(h, _eigh=np.linalg.eigh):
        calls.append(np.shape(h))
        return _eigh(h)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_closed_form_3x3_matches_lapack(monkeypatch):
    # random real symmetric 3 x 3 stacks at scales 1e-150 to 1e150: levels
    # within 16 ulp of the largest level, vectors within 64 eps of LAPACK's
    # up to sign, scaled by the condition scale / gap, and no fallback
    rng = np.random.default_rng(2024)
    a = rng.uniform(-1.0, 1.0, (3000, 3, 3)) * 10.0 ** rng.integers(-150, 151, (3000, 1, 1))
    h = a + a.swapaxes(-1, -2)
    lapack = _counted_eigh(monkeypatch)
    w, v = eigensolve(h)
    assert lapack == []
    monkeypatch.undo()
    w_ref, v_ref = np.linalg.eigh(h)
    scale = np.max(np.abs(w_ref), axis=1)
    assert np.all(np.abs(w - w_ref) <= 16 * np.spacing(scale)[:, None])
    steps = np.diff(w_ref, axis=1)
    gap = np.stack([steps[:, 0], np.minimum(steps[:, 0], steps[:, 1]), steps[:, 1]], axis=1)
    signs = np.sign(np.sum(v * v_ref, axis=1))
    error = np.max(np.abs(v * signs[:, None, :] - v_ref), axis=1)
    assert np.all(error <= 64 * np.finfo(float).eps * np.maximum(1.0, scale[:, None] / gap))


def _rotated(levels, seed=7):
    q = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))[0]
    return (q * levels) @ q.T


@pytest.mark.parametrize("h", [
    pytest.param(np.diag([1.0, 1.0, 2.0]), id="exact pair"),
    pytest.param(np.diag([-3.0, 2.0, 2.0]), id="exact upper pair"),
    pytest.param(_rotated([1.0, 1.0, -2.0]), id="rotated exact pair"),
    pytest.param(_rotated([1.0, 1.0 + 1e-9, 2.0]), id="1e-9 split"),
    pytest.param(_rotated([0.0, 1.0, 1.0 + 1e-9]), id="1e-9 upper split"),
    pytest.param(3.0 * np.eye(3), id="c I"),
    pytest.param(np.zeros((3, 3)), id="zero"),
])
def test_closed_form_3x3_degeneracies_take_the_lapack_fallback(h, monkeypatch):
    # a degenerate pair gets equal (or zero) cross-product vectors, which fail
    # the orthonormality check; that matrix alone is re-solved by LAPACK,
    # and the well-separated matrices around it stay in closed form
    h = 0.5 * (h + h.T)
    good = h0(ModelSpec(kind=THREE_SPIN_KAGOME), [1.0, 2.0], "branch")
    stack = np.stack([good[0], h, good[1]])
    lapack = _counted_eigh(monkeypatch)
    w, v = eigensolve(stack)
    assert lapack == [(1, 3, 3)]
    monkeypatch.undo()
    w_ref, v_ref = np.linalg.eigh(h)
    assert np.array_equal(w[1], w_ref) and np.array_equal(v[1], v_ref)
    assert not np.any(np.isnan(w)) and not np.any(np.isnan(v))
    assert np.array_equal(w[[0, 2]], eigensolve(good)[0])


def test_matrices_resolved_by_lapack_are_checked_again(monkeypatch):
    # the closed-form matrices passed their checks once; the re-solved one is
    # checked again, here against a LAPACK result with doubled vectors
    good = h0(ModelSpec(kind=THREE_SPIN_KAGOME), [1.0, 2.0], "branch")
    stack = np.stack([good[0], 3.0 * np.eye(3), good[1]])
    def doubled(h, _eigh=np.linalg.eigh):
        w, v = _eigh(h)
        return w, 2.0 * v
    monkeypatch.setattr(np.linalg, "eigh", doubled)
    with pytest.raises(RuntimeError, match=r"not orthonormal to 3\.000e\+00"):
        eigensolve(stack)


def test_closed_form_3x3_at_extreme_scales():
    # entries near 1e200 and 1e-200 are solved without overflow or NaN; near
    # the largest double the levels overflow, and the input raises the
    # residual error exactly as it did when LAPACK solved every 3 x 3 block
    rng = np.random.default_rng(3)
    a = rng.uniform(-1.0, 1.0, (2, 3, 3))
    for exponent in (200, -200):
        h = (a + a.swapaxes(-1, -2)) * 10.0 ** exponent
        w, v = eigensolve(h)
        w_ref = np.linalg.eigvalsh(h)
        assert np.all(np.abs(w - w_ref) <= 16 * np.spacing(np.max(np.abs(w_ref))))
    h = np.full((3, 3), 1.7e308) * [[1, 1, 0], [1, -1, 1], [0, 1, 1]]
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="residual nan"):
        eigensolve(h)


def test_eigensolve_takes_one_by_one_and_empty_stacks():
    w, v = eigensolve(np.zeros((4, 0, 0)))
    assert w.shape == (4, 0) and v.shape == (4, 0, 0)
    entries = np.array([-2.5, 0.0, 1e300])
    w, v = eigensolve(entries.reshape(3, 1, 1))
    assert np.array_equal(w, entries[:, None]) and np.array_equal(v, np.ones((3, 1, 1)))
    with pytest.raises(ValueError, match="Hermitian"):  # NaN is not its own level
        eigensolve(np.full((1, 1), np.nan))


def test_fix_gauge_keeps_real_input_up_to_sign():
    v = np.array([-0.6, 0.0, 0.0, 0.8])
    out = fix_gauge(v)
    assert np.allclose(out, [-0.6, 0, 0, 0.8]) or np.allclose(out, [0.6, 0, 0, -0.8])
    assert out[np.argmax(np.abs(out))] > 0


def _argmax_gauge(vector: np.ndarray) -> np.ndarray:
    """``fix_gauge``'s rule written with ``np.argmax``: the sign of the first
    largest-magnitude component, a NaN counting as the largest."""
    v = np.asarray(vector, dtype=float)
    largest = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
    return np.where(largest < 0.0, -v, v)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_fix_gauge_keeps_argmaxs_rule_bitwise(d):
    # random rows, and rows drawn from values with equal magnitudes of both
    # signs, signed zeros, infinities and NaN, as stacks and one row at a
    # time; -0.0 and a NaN's sign must come out as argmax's rule gives them
    rng = np.random.default_rng(d)
    tied = np.array([1.0, -1.0, 0.5, -0.5, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    for rows in (rng.normal(size=(300, d)), rng.choice(tied, size=(2000, d)),
                 rng.choice(tied[:6], size=(4, 100, d))):
        expected = _argmax_gauge(rows)
        assert fix_gauge(rows).tobytes() == expected.tobytes()
        for row, signed in zip(rows.reshape(-1, d)[:200], expected.reshape(-1, d)):
            assert fix_gauge(row).tobytes() == signed.tobytes()


# branch vectors are branch sector components: two spins (uu, dd), three
# spins (uuu, (udd + ddu)/sqrt(2), dud), the paper's (C1, sqrt(2) C4, C6)

@pytest.mark.parametrize("fixture,dim", [("two_branch", 4), ("three_branch", 8)])
def test_branch_vectors_are_block_components(fixture, dim, request):
    branch = request.getfixturevalue(fixture)
    n = len(branch.r_grid)
    k = {4: 2, 8: 3}[dim]
    assert branch.vectors.shape == branch.d_vectors.shape == branch.d2_vectors.shape == (n, k)


def test_resolve_two_spin_initial_state(two_branch):
    c = two_branch.vectors[0]
    assert c[0] ** 2 == pytest.approx(0.5, abs=1e-10)
    assert c[1] ** 2 == pytest.approx(0.5, abs=1e-10)
    # the two nonzero amplitudes carry opposite signs
    assert c[0] * c[1] < 0


def test_resolve_three_spin_initial_state(three_branch):
    c = embed(three_branch.vectors[0], THREE_SPIN_KAGOME)
    assert c[3] == pytest.approx(c[6], abs=1e-9)
    assert abs(c[0]) == pytest.approx(0.5, abs=1e-8)


def test_two_spin_branch_endpoints(two_branch):
    start = two_branch.vectors[0]
    end = two_branch.vectors[-1]
    assert start[0] ** 2 == pytest.approx(0.5, abs=1e-9)
    assert start[1] ** 2 == pytest.approx(0.5, abs=1e-9)
    assert end[0] ** 2 == pytest.approx(END_POPULATION, abs=1e-9)
    assert end[1] ** 2 == pytest.approx(1.0 - END_POPULATION, abs=1e-9)


def test_two_spin_sector_crossing_near_eight(two_branch):
    # the flat odd-sector level sits at -(J1+J2) = -10 for every R
    idx_lo = int(np.searchsorted(two_branch.r_grid, 7.99))
    idx_hi = int(np.searchsorted(two_branch.r_grid, 8.01))
    g_lo = two_branch.energies[idx_lo] + 10.0
    g_hi = two_branch.energies[idx_hi] + 10.0
    assert g_lo > 0 > g_hi


def test_three_spin_branch_support(three_spec, three_branch):
    # C4 = C7: the mirror symmetry of the triangle's bonds.  Mapped by U, the
    # sector branch is level 0 of the whole P = +1 block on this ramp, from a
    # LAPACK solve of that 4 x 4 block (uuu, udd, dud, ddu) of the full h0
    vecs = embed(three_branch.vectors, three_spec.kind)
    assert np.max(np.abs(vecs[:, 3] - vecs[:, 6])) < 1e-9
    even = _parity_indices(8)
    block = h0(three_spec, three_branch.r_grid)[:, even[:, None], even]
    levels, block_vecs = np.linalg.eigh(block)
    assert np.max(np.abs(levels[:, 0] - three_branch.energies)) < 1e-12
    overlap = np.abs(np.sum(block_vecs[:, :, 0] * vecs[:, even], axis=1))
    assert np.max(np.abs(overlap - 1.0)) < 1e-12


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
        c = embed(branch.vectors[k], spec.kind)
        assert np.linalg.norm(h @ c - branch.energies[k] * c) < 1e-10


def test_branch_energy_continuity(three_branch, three_spec):
    lipschitz = np.linalg.norm(d_h0_dr(three_spec), ord=2)
    dr = np.diff(three_branch.r_grid)
    de = np.abs(np.diff(three_branch.energies))
    assert np.all(de <= lipschitz * dr + 1e-9)


def test_consecutive_overlap_positive(two_branch):
    dots = np.sum(two_branch.vectors[:-1] * two_branch.vectors[1:], axis=1)
    assert np.all(dots > 0.99)


def test_sign_carried_where_largest_component_changes():
    # at b0 = 3 the block ground vector is (1, -1)/sqrt(2) at R = 3, so its
    # largest component changes there; the sign must still follow sample to
    # sample
    branch = track_branch(ModelSpec(kind=TWO_SPIN, b0=3.0),
                          np.linspace(0.0, 10.0, 2001))
    dots = np.sum(branch.vectors[:-1] * branch.vectors[1:], axis=1)
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


@pytest.mark.parametrize("kind", [TWO_SPIN, THREE_SPIN_KAGOME])
def test_gap_csv_matches_the_full_space_gap_report(kind, tmp_path):
    # a run reads the gap off the sector blocks' levels; the oracle masks the
    # branch level out of LAPACK's levels of the full space
    assert run(ScenarioConfig(model=kind), tmp_path) == 0
    _, r, gap = np.loadtxt(tmp_path / "gap.csv", delimiter=",", skiprows=1,
                           unpack=True)
    spec = ModelSpec(kind=kind)
    assert np.max(np.abs(gap - gap_report(track_branch(spec, r), spec))) <= 1e-12


def test_branch_fields_cannot_be_reassigned(three_branch):
    # coefficient_table pairs the samples with the branch's own r_grid: a
    # field assigned later would pair them with another grid
    for field in fields(three_branch):
        with pytest.raises(FrozenInstanceError):
            setattr(three_branch, field.name, getattr(three_branch, field.name))


def test_two_spin_gap_at_end(two_branch, two_spec):
    # |E_branch(10)| = sqrt(200); the nearest level is the flat one at -10
    gaps = gap_report(two_branch, two_spec)
    assert gaps[-1] == pytest.approx(np.sqrt(200.0) - 10.0, abs=1e-9)


def probed(spec: ModelSpec, r: float, vector: np.ndarray) -> np.ndarray:
    """Level 0 of the branch sector at r from a fresh solve, signed like
    ``vector``.  Probe points may fall slightly outside the tracked R
    interval, which is fine because the Hamiltonian is defined for every R."""
    probe = eigensolve(h0(spec, r, "branch"))[1][:, 0]
    return probe if probe @ vector >= 0.0 else -probe


def fd_branch_derivative(spec: ModelSpec, r: float, vector: np.ndarray,
                         step: float = 1e-4) -> np.ndarray:
    """Central finite-difference dC/dR of level 0 of the branch sector, signed
    like ``vector``, with one Richardson extrapolation: an oracle for the
    resolvent derivative that shares only ``h0`` and ``eigensolve`` with it."""
    coarse = (probed(spec, r + step, vector) - probed(spec, r - step, vector)) / (2.0 * step)
    fine = (probed(spec, r + step / 2.0, vector)
            - probed(spec, r - step / 2.0, vector)) / step
    return (4.0 * fine - coarse) / 3.0


def fd_branch_second_derivative(spec: ModelSpec, r: float, vector: np.ndarray,
                                step: float = 1e-2) -> np.ndarray:
    """Central second difference d^2C/dR^2 of level 0 of the branch sector,
    signed like ``vector``, with one Richardson extrapolation."""

    def second(h: float) -> np.ndarray:
        return (probed(spec, r + h, vector) - 2.0 * probed(spec, r, vector)
                + probed(spec, r - h, vector)) / (h * h)

    return (4.0 * second(step / 2.0) - second(step)) / 3.0


@pytest.mark.parametrize("kind,indices", [(TWO_SPIN, (0, 700, 1600)),
                                          (THREE_SPIN_KAGOME, (0, 700, 1600))])
def test_fd_derivative_cross_checks_resolvent(kind, indices, request):
    branch = request.getfixturevalue(
        "two_branch" if kind == TWO_SPIN else "three_branch")
    spec = ModelSpec(kind=kind)
    for k in indices:
        fd = fd_branch_derivative(spec, float(branch.r_grid[k]), branch.vectors[k])
        assert np.max(np.abs(fd - branch.d_vectors[k])) < 1e-6


@pytest.mark.parametrize("kind,indices", [(TWO_SPIN, (0, 700, 1600)),
                                          (THREE_SPIN_KAGOME, (0, 700, 1600))])
def test_fd_second_derivative_cross_checks_resolvent(kind, indices, request):
    # bound 1e-9: the second differences at h = 1e-2 and 5e-3 round to
    # about eps |C| / h^2 ~ 1e-11 and Richardson leaves an O(h^4) truncation
    # error; measured at most 1.4e-11 for max|C''| between 0.009 and 0.07
    # (smaller steps only add rounding: 1e-9 at h = 1e-3)
    branch = request.getfixturevalue(
        "two_branch" if kind == TWO_SPIN else "three_branch")
    spec = ModelSpec(kind=kind)
    for k in indices:
        fd = fd_branch_second_derivative(spec, float(branch.r_grid[k]), branch.vectors[k])
        assert np.max(np.abs(fd - branch.d2_vectors[k])) < 1e-9


def test_branch_vector_at_between_samples(two_spec):
    r = 3.141
    vec, levels = branch_vector_at(two_spec, r)
    energy = levels[..., 0]
    c = embed(vec, two_spec.kind)
    assert np.linalg.norm(h0(two_spec, r) @ c - energy * c) < 1e-10
    j1, j2, bz = 10.0 - r, r, -r
    assert energy == pytest.approx(-np.sqrt(bz ** 2 + (j1 - j2) ** 2), abs=1e-10)


def test_branch_vector_at_array_matches_scalar_calls(two_spec):
    # spacing 1/8: grid values and the midpoints between them are exact
    branch = track_branch(two_spec, np.linspace(0.0, 10.0, 81))
    grid = branch.r_grid
    mid = 0.5 * (grid[40] + grid[41])
    rs = np.array([grid[0], grid[-1], mid, np.nextafter(mid, 11.0), 3.141])
    vecs, levels = branch_vector_at(two_spec, rs)
    assert vecs.shape == (5, 2) and levels.shape == (5, 2)
    for k, r in enumerate(rs):
        vec, level = branch_vector_at(two_spec, float(r))
        assert np.array_equal(vecs[k], vec) and np.array_equal(levels[k], level)
    assert np.allclose(vecs[0], branch.vectors[0], atol=1e-14)
    assert np.allclose(vecs[1], branch.vectors[-1], atol=1e-14)


def test_track_branch_rejects_bad_grid():
    spec = ModelSpec(kind=TWO_SPIN)
    with pytest.raises(ValueError, match="monotone"):
        track_branch(spec, np.array([0.0, 1.0, 0.5]))
    for grid in (np.zeros((2, 3)), np.array([])):
        with pytest.raises(ValueError, match="^r_grid must be a non-empty 1-d array$"):
            track_branch(spec, grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_track_branch_rejects_non_finite_grid(bad):
    # rejected before h0 is built, so an inf warns nothing on the way
    spec = ModelSpec(kind=TWO_SPIN)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^r_grid must contain only finite values$"):
            track_branch(spec, np.array([0.0, 1.0, bad]))


def test_in_sector_crossing_between_samples_raises():
    # with b0 = j0/2 the P = +1 block [[Bz, J1 - J2], [J1 - J2, -Bz]] is zero
    # at R = 5; a grid that steps over R = 5 sees the two levels swap
    spec = ModelSpec(kind=TWO_SPIN, j0=10.0, b0=5.0)
    with pytest.raises(RuntimeError, match=r"in-sector crossing .* between r=4\.99.* and r=5\.00"):
        track_branch(spec, np.linspace(0.0, 10.0, 2000))
