from __future__ import annotations

import warnings

import numpy as np
import pytest

from ffspin.model import THREE_SPIN_KAGOME, TWO_SPIN, DrivingCoefficients, ModelSpec
from ffspin.regularization import (RESIDUAL_NOISE_ATOL, closed_form_two_spin,
                                   closed_form_w,
                                   coefficient_table, component_form_three_spin,
                                   solve_core)


def test_solve_core_two_spin_at_start(two_spec, two_branch):
    sol = solve_core(two_spec, two_branch.vectors[0], two_branch.d_vectors[0])
    assert sol.coeffs.w1 == pytest.approx(0.05, abs=1e-9)
    assert sol.coeffs.w2 == 0.0
    assert abs(sol.coeffs.bz_tilde) < 1e-10
    assert sol.residual < 1e-10


def test_solve_core_flat_branch_gives_zero(three_spec, three_branch):
    c = three_branch.vectors[100]
    sol = solve_core(three_spec, c, np.zeros_like(c))
    assert sol.coeffs.w1 == pytest.approx(0.0, abs=1e-14)
    assert sol.coeffs.w2 == pytest.approx(0.0, abs=1e-14)
    assert sol.coeffs.bz_tilde == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("fixture,spec_kind", [("two_branch", TWO_SPIN),
                                               ("three_branch", THREE_SPIN_KAGOME)])
def test_field_coefficient_vanishes_along_branch(fixture, spec_kind, request):
    branch = request.getfixturevalue(fixture)
    spec = ModelSpec(kind=spec_kind)
    for k in range(0, len(branch.r_grid), 100):
        sol = solve_core(spec, branch.vectors[k], branch.d_vectors[k])
        assert abs(sol.coeffs.bz_tilde) < 1e-10


@pytest.mark.parametrize("fixture,spec_kind", [("two_branch", TWO_SPIN),
                                               ("three_branch", THREE_SPIN_KAGOME)])
def test_solve_core_stack_matches_per_sample_calls(fixture, spec_kind, request):
    branch = request.getfixturevalue(fixture)
    spec = ModelSpec(kind=spec_kind)
    ks = np.arange(0, len(branch.r_grid), 125)
    stacked = solve_core(spec, branch.vectors[ks], branch.d_vectors[ks])
    assert stacked.residual.shape == ks.shape
    for i, k in enumerate(ks):
        single = solve_core(spec, branch.vectors[k], branch.d_vectors[k])
        assert single.coeffs == DrivingCoefficients(
            stacked.coeffs.w1[i], stacked.coeffs.w2[i], stacked.coeffs.bz_tilde[i])
        assert single.residual == stacked.residual[i]


def test_rank_deficient_sample_warns_once_per_call(two_spec, two_branch):
    # the odd-parity state (ud - du)/sqrt(2): no driving generator reaches it
    dark = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    vectors = np.stack([two_branch.vectors[0], dark, two_branch.vectors[5], dark])
    d_vectors = np.stack([two_branch.d_vectors[0], np.zeros(4),
                          two_branch.d_vectors[5], np.zeros(4)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_core(two_spec, vectors, d_vectors)
    assert [str(w.message) for w in caught] == [
        "core system rank 0 < 2; returning the minimum-norm solution"]
    assert sol.coeffs.w1[1] == 0.0 and sol.coeffs.w1[3] == 0.0
    assert sol.coeffs.w1[0] == pytest.approx(0.05, abs=1e-9)


def test_closed_form_at_start_is_exact(two_spec):
    assert closed_form_two_spin(two_spec, 0.0).w1 == pytest.approx(0.05, abs=1e-15)


def test_closed_form_zero_field_zero_rate_vanishes():
    for j1, j2 in [(3.0, 1.0), (10.0, 0.0), (1.0, 7.0)]:
        assert closed_form_w(0.0, j1, j2, 0.0, -1.0, 1.0) == 0.0


def test_closed_form_singular_point_raises():
    with pytest.raises(ValueError, match="singular"):
        closed_form_w(0.0, 2.0, 2.0, -1.0, -1.0, 1.0)


def test_closed_form_wrong_model_raises(three_spec):
    with pytest.raises(ValueError, match="two-spin"):
        closed_form_two_spin(three_spec, 1.0)


def test_closed_form_agrees_with_solver_on_grid(two_spec, two_branch):
    for k in range(0, len(two_branch.r_grid), 20):
        sol = solve_core(two_spec, two_branch.vectors[k], two_branch.d_vectors[k])
        cf = closed_form_two_spin(two_spec, float(two_branch.r_grid[k]))
        assert abs(sol.coeffs.w1 - cf.w1) < 1e-8


def test_component_form_agrees_with_solver(three_spec, three_branch):
    checked = 0
    for k in range(0, len(three_branch.r_grid), 20):
        c = three_branch.vectors[k]
        weight = 3 * c[0] ** 2 - 2 * c[3] ** 2 - c[5] ** 2
        if abs(c[0]) < 1e-10 or abs(weight) < 1e-10:
            continue
        comp = component_form_three_spin(c, three_branch.d_vectors[k])
        sol = solve_core(three_spec, c, three_branch.d_vectors[k])
        assert abs(comp.w1 - sol.coeffs.w1) < 1e-6
        assert abs(comp.w2 - sol.coeffs.w2) < 1e-6
        checked += 1
    assert checked > 90


def test_component_form_flat_branch_zero(three_branch):
    c = three_branch.vectors[500]
    coeffs = component_form_three_spin(c, np.zeros_like(c))
    assert coeffs.w1 == 0.0 and coeffs.w2 == 0.0


def test_component_form_singular_at_half_amplitude():
    c = np.zeros(8)
    c[0], c[3], c[5], c[6] = 0.5, -0.5, 0.5, -0.5
    with pytest.raises(ValueError, match="solve_core"):
        component_form_three_spin(c, np.zeros_like(c))


def test_gauge_flip_leaves_coefficients_unchanged(three_spec, three_branch):
    k = 800
    sol = solve_core(three_spec, three_branch.vectors[k], three_branch.d_vectors[k])
    flipped = solve_core(three_spec, -three_branch.vectors[k],
                         -three_branch.d_vectors[k])
    assert flipped.coeffs.w1 == pytest.approx(sol.coeffs.w1, abs=1e-12)
    assert flipped.coeffs.w2 == pytest.approx(sol.coeffs.w2, abs=1e-12)


def test_ansatz_insufficient_raises(three_spec, three_branch):
    # inject a derivative component outside the reachable subspace
    bad = three_branch.d_vectors[300].copy()
    bad[1] += 0.05
    with pytest.raises(RuntimeError, match="ansatz insufficient"):
        solve_core(three_spec, three_branch.vectors[300], bad)


def test_table_residuals_and_interpolation(three_spec, three_table):
    assert float(np.max(three_table.residuals)) < RESIDUAL_NOISE_ATOL
    # interpolation hits the samples
    k = 700
    r = float(three_table.r_grid[k])
    coeffs = three_table(r)
    assert coeffs.w1 == pytest.approx(three_table.w1[k], abs=1e-12)
    assert coeffs.w2 == pytest.approx(three_table.w2[k], abs=1e-12)


def test_grid_doubling_stability(three_spec, three_table, profile):
    from ffspin.spectrum import default_r_grid, track_branch
    grid = default_r_grid(three_spec, profile.r_end(three_spec.r0), 4001)
    dense = coefficient_table(three_spec, track_branch(three_spec, grid))
    probes = np.linspace(0.05, 9.95, 101)
    for r in probes:
        a, b = three_table(float(r)), dense(float(r))
        assert abs(a.w1 - b.w1) < 1e-6
        assert abs(a.w2 - b.w2) < 1e-6


def test_spline_data_matches_table(two_table):
    # one spline over the (w1, w2, bz) columns: evaluate its segment
    # polynomial by hand at a probe point
    spline = two_table._spline
    assert spline.c.shape == (4, len(two_table.r_grid) - 1, 3)
    r = 4.321
    j = int(np.searchsorted(spline.x, r)) - 1
    u = r - spline.x[j]
    w1 = ((spline.c[0, j, 0] * u + spline.c[1, j, 0]) * u + spline.c[2, j, 0]) * u \
        + spline.c[3, j, 0]
    assert w1 == pytest.approx(two_table(r).w1, abs=1e-12)
    # an array of r gives the per-point values
    probes = np.linspace(0.0, 10.0, 37)
    stacked = two_table(probes)
    for i, r in enumerate(probes):
        assert two_table(float(r)) == DrivingCoefficients(
            stacked.w1[i], stacked.w2[i], stacked.bz_tilde[i])
