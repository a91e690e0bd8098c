from __future__ import annotations

from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from ffspin.fastforward import integrate
from ffspin.model import TERM_WORDS, THREE_SPIN_KAGOME, TWO_SPIN, ModelSpec
from ffspin.regularization import CoefficientTable, coefficient_table, solve_core
from ffspin.spectrum import track_branch

from conftest import ramp_grid
from oracles import (RESIDUAL_NOISE_ATOL, closed_form_two_spin, closed_form_w,
                     component_form_three_spin, embed, exact_core_columns,
                     exact_core_solve, full_ansatz_solve)


def test_solve_core_two_spin_at_start(two_spec, two_branch):
    w, residual = solve_core(two_spec, two_branch.vectors[0], two_branch.d_vectors[0])
    assert w.shape == (1,)
    assert w[0] == pytest.approx(0.05, abs=1e-9)
    assert residual < 1e-10


def test_solve_core_flat_branch_gives_zero(three_spec, three_branch):
    c = three_branch.vectors[100]
    w, _ = solve_core(three_spec, c, np.zeros_like(c))
    assert np.max(np.abs(w)) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("fixture,spec_kind", [("two_branch", TWO_SPIN),
                                               ("three_branch", THREE_SPIN_KAGOME)])
def test_field_coefficient_vanishes_along_branch(fixture, spec_kind, request):
    branch = request.getfixturevalue(fixture)
    spec = ModelSpec(kind=spec_kind)
    for k in range(0, len(branch.r_grid), 100):
        _, bz, _ = full_ansatz_solve(spec, branch.vectors[k], branch.d_vectors[k])
        assert abs(bz) < 1e-10


@pytest.mark.parametrize("fixture,spec_kind", [("two_branch", TWO_SPIN),
                                               ("three_branch", THREE_SPIN_KAGOME)])
def test_full_ansatz_oracle_has_no_field_and_matches_exchange_solve(
        fixture, spec_kind, request):
    # the paper's ansatz with the field as a third unknown, at every sample:
    # time reversal makes bz vanish, and the exchange couplings and residual
    # are then those of the field-free solve
    branch = request.getfixturevalue(fixture)
    spec = ModelSpec(kind=spec_kind)
    w, residual = solve_core(spec, branch.vectors, branch.d_vectors)
    solves = [full_ansatz_solve(spec, c, d)
              for c, d in zip(branch.vectors, branch.d_vectors)]
    oracle_w, oracle_bz, oracle_residual = (np.array(x) for x in zip(*solves))
    assert oracle_w.shape == w.shape
    assert np.max(np.abs(oracle_bz)) < 1e-15
    assert np.max(np.abs(oracle_w - w)) < 1e-14
    assert np.max(np.abs(oracle_residual - residual)) < 1e-14


@pytest.mark.parametrize("fixture,spec_kind", [("two_branch", TWO_SPIN),
                                               ("three_branch", THREE_SPIN_KAGOME)])
def test_solve_core_stack_matches_per_sample_calls(fixture, spec_kind, request):
    branch = request.getfixturevalue(fixture)
    spec = ModelSpec(kind=spec_kind)
    ks = np.arange(0, len(branch.r_grid), 125)
    w, residual = solve_core(spec, branch.vectors[ks], branch.d_vectors[ks])
    assert w.shape == ks.shape + (spec.n_generators,) and residual.shape == ks.shape
    for i, k in enumerate(ks):
        single_w, single_residual = solve_core(spec, branch.vectors[k],
                                               branch.d_vectors[k])
        assert np.array_equal(single_w, w[i])
        assert single_residual == residual[i]


def test_dependent_core_columns_raise(three_spec):
    # the unit C = (0, 1, 0) has C1 = 0: Im(G_2) C vanishes, so the square
    # system [Im(G_1) C | Im(G_2) C | C] is singular
    with pytest.raises(RuntimeError, match="driving ansatz insufficient: .* "
                                           "linearly dependent"):
        solve_core(three_spec, np.array([0.0, 1.0, 0.0]), np.zeros(3))


@pytest.mark.parametrize("fixture,spec_kind", [("two_branch", TWO_SPIN),
                                               ("three_branch", THREE_SPIN_KAGOME)])
def test_nan_sample_fails_the_residual_check(fixture, spec_kind, request):
    # one NaN in a dC/dR sample gives a NaN residual, which must fail the
    # check rather than return NaN couplings
    branch = request.getfixturevalue(fixture)
    d_vectors = branch.d_vectors.copy()
    d_vectors[7, 0] = np.nan
    with pytest.raises(RuntimeError, match="core residual nan"):
        solve_core(ModelSpec(kind=spec_kind), branch.vectors, d_vectors)


#: j0 = 1, b0 = 3, r0 = 0 on 401 points: the reflection-odd crossing run,
#: whose core system is the worst conditioned of the robustness sweep
CROSSING_SPEC = ModelSpec(kind=THREE_SPIN_KAGOME, j0=1.0, b0=3.0, r0=0.0)


@pytest.mark.parametrize("model", ["two", "three", "crossing"])
def test_closed_form_core_matches_an_exact_rational_solve(model, request):
    # every 4th sample: w from dC/dR, and dw from C'' - sum_k w_k Im(G_k) C'
    # with the table's w, each solved exactly from the same doubles.  Bound
    # 4 ulp of each array's largest magnitude; measured at most 2 ulp, as
    # LAPACK's gesv read on the same samples
    if model == "crossing":
        spec = CROSSING_SPEC
        branch = track_branch(spec, np.linspace(0.0, 10.0, 401))
    else:
        spec, branch = (request.getfixturevalue(f"{model}_{name}")
                        for name in ("spec", "branch"))
    table = coefficient_table(branch)
    ks = range(0, len(branch.r_grid), 4)
    exact_w, exact_dw = [], []
    for k in ks:
        exact_w.append(exact_core_solve(spec, branch.vectors[k], branch.d_vectors[k]))
        columns = exact_core_columns(spec, branch.d_vectors[k])
        rhs = [Fraction(b) - sum(Fraction(w) * column[i]
                                 for w, column in zip(table.w[k].tolist(), columns))
               for i, b in enumerate(branch.d2_vectors[k].tolist())]
        exact_dw.append(exact_core_solve(spec, branch.vectors[k], rhs))
    for got, exact in ((table.w[::4], exact_w), (table.dw[::4], exact_dw)):
        ulp = np.spacing(np.max(np.abs(got)))
        assert np.max(np.abs(got - np.array(exact))) <= 4 * ulp


def test_closed_form_at_start_is_exact(two_spec):
    assert closed_form_two_spin(two_spec, 0.0) == pytest.approx(0.05, abs=1e-15)


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
        w, _ = solve_core(two_spec, two_branch.vectors[k], two_branch.d_vectors[k])
        cf = closed_form_two_spin(two_spec, float(two_branch.r_grid[k]))
        assert abs(w[0] - cf) < 1e-8


def test_component_form_agrees_with_solver(three_spec, three_branch):
    checked = 0
    for k in range(0, len(three_branch.r_grid), 20):
        c = three_branch.vectors[k]
        full = embed(c, three_spec.kind)  # (C1, C4, C6) at kets 0, 3, 5
        weight = 3 * full[0] ** 2 - 2 * full[3] ** 2 - full[5] ** 2
        if abs(full[0]) < 1e-10 or abs(weight) < 1e-10:
            continue
        comp = component_form_three_spin(
            full, embed(three_branch.d_vectors[k], three_spec.kind))
        w, _ = solve_core(three_spec, c, three_branch.d_vectors[k])
        assert np.max(np.abs(comp - w)) < 1e-6
        checked += 1
    assert checked > 90


def test_component_form_flat_branch_zero(three_spec, three_branch):
    c = embed(three_branch.vectors[500], three_spec.kind)
    assert not np.any(component_form_three_spin(c, np.zeros_like(c)))


def test_component_form_singular_at_half_amplitude():
    # uuu, udd, dud, ddu = 1/2, -1/2, 1/2, -1/2
    c = np.zeros(8)
    c[[0, 3, 5, 6]] = [0.5, -0.5, 0.5, -0.5]
    with pytest.raises(ValueError, match="solve_core"):
        component_form_three_spin(c, np.zeros_like(c))


def test_gauge_flip_leaves_coefficients_unchanged(three_spec, three_branch):
    k = 800
    w, _ = solve_core(three_spec, three_branch.vectors[k], three_branch.d_vectors[k])
    flipped, _ = solve_core(three_spec, -three_branch.vectors[k],
                            -three_branch.d_vectors[k])
    assert np.max(np.abs(flipped - w)) <= 1e-12


def test_ansatz_insufficient_raises(three_spec, three_branch):
    # inject a derivative component along C, which no column Im(G_k) C
    # reaches: each Im(G_k) is antisymmetric, so C is orthogonal to them all
    bad = three_branch.d_vectors[300] + 0.05 * three_branch.vectors[300]
    with pytest.raises(RuntimeError, match="ansatz insufficient"):
        solve_core(three_spec, three_branch.vectors[300], bad)


def test_table_residuals_and_interpolation(three_spec, three_table):
    assert float(np.max(three_table.residuals)) < RESIDUAL_NOISE_ATOL
    # interpolation hits the samples
    k = 700
    r = float(three_table.r_grid[k])
    assert np.max(np.abs(three_table(r) - three_table.w[k])) <= 1e-12


@pytest.mark.parametrize("r", [4.321, np.linspace(0.0, 10.0, 7),
                               np.full((2, 3), 5.0)])
def test_table_call_shape(r, two_spec, two_table):
    # a spline table, and a single-point one (v_bar = 0: no spline)
    fixed = np.full(5, two_spec.r0)
    flat = coefficient_table(track_branch(two_spec, fixed))
    assert flat._spline is None and two_table._spline is not None
    for table in (two_table, flat):
        assert table(r).shape == np.shape(r) + (1,)


@pytest.mark.parametrize("model", ["two", "three"])
def test_slopes_match_central_differences_of_the_core_solve(model, request):
    # w does not depend on the sign of C, so the solves at r +/- h need no
    # sign matching.  Bound 1e-9: at h = 1e-5 the truncation error
    # h^2 |d^3w/dR^3| / 6 and the rounding error eps |w| / h both stay below
    # 1e-10; measured at most 1.1e-11, for max|dw| of 0.081 (two spins) and
    # 0.0061 (three)
    spec, branch, table = (request.getfixturevalue(f"{model}_{name}")
                           for name in ("spec", "branch", "table"))

    def w_at(r):
        probe = track_branch(spec, r)
        return solve_core(spec, probe.vectors, probe.d_vectors)[0]

    h = 1e-5
    fd = (w_at(branch.r_grid + h) - w_at(branch.r_grid - h)) / (2.0 * h)
    assert table.dw.shape == table.w.shape
    assert np.max(np.abs(fd - table.dw)) < 1e-9


@pytest.mark.parametrize("kind,n_points,bound", [(THREE_SPIN_KAGOME, 401, 1e-11),
                                                 (TWO_SPIN, 801, 1e-10)])
def test_table_matches_the_core_solve_between_samples(kind, n_points, bound, profile):
    # the benchmark's grids; the couplings solved directly at the grid
    # midpoints, where the interpolation error peaks.  Measured 2.3e-12
    # (three spins) and 2.4e-11 (two spins)
    spec = ModelSpec(kind=kind)
    table = coefficient_table(track_branch(spec, ramp_grid(spec, profile, n_points)))
    midpoints = 0.5 * (table.r_grid[1:] + table.r_grid[:-1])
    exact = track_branch(spec, midpoints)
    w, _ = solve_core(spec, exact.vectors, exact.d_vectors)
    assert np.max(np.abs(table(midpoints) - w)) <= bound


def test_grid_doubling_stability(three_spec, three_table, profile):
    grid = ramp_grid(three_spec, profile, 4001)
    dense = coefficient_table(track_branch(three_spec, grid))
    probes = np.linspace(0.05, 9.95, 101)
    for r in probes:
        assert np.max(np.abs(three_table(float(r)) - dense(float(r)))) < 1e-6


def test_spline_data_matches_table(two_table):
    # one spline over the columns of w (w1 alone for two spins): evaluate its
    # segment polynomial by hand at a probe point
    c = two_table._spline
    assert c.shape == (4, 1, len(two_table.r_grid) - 1) and c.flags.c_contiguous
    r = 4.321
    j = int(np.searchsorted(two_table.r_grid, r)) - 1
    u = r - two_table.r_grid[j]
    w1 = ((c[0, 0, j] * u + c[1, 0, j]) * u + c[2, 0, j]) * u + c[3, 0, j]
    assert w1 == pytest.approx(two_table(r)[0], abs=1e-12)
    # an array of r gives the per-point values
    probes = np.linspace(0.0, 10.0, 37)
    stacked = two_table(probes)
    for i, r in enumerate(probes):
        assert np.array_equal(two_table(float(r)), stacked[i])


def _spline_probes(r_grid: np.ndarray, seed: int) -> np.ndarray:
    """Knots, midpoints, random interior points and the ends padded by the
    1e-9 that ``_h_ff_coefficients`` allows."""
    pad = 1e-9 * max(1.0, r_grid[-1] - r_grid[0])
    interior = np.random.default_rng(seed).uniform(r_grid[0], r_grid[-1], 2000)
    return np.concatenate([r_grid, 0.5 * (r_grid[1:] + r_grid[:-1]), interior,
                           [r_grid[0] - pad, r_grid[-1] + pad]])


#: the spec of the hand-built spline tables; the spline reads only r_grid, w
#: and dw
SPLINE_SPEC = ModelSpec(kind=THREE_SPIN_KAGOME)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and float64 bit patterns: unlike ``np.array_equal``, -0.0
    differs from 0.0."""
    a, b = (np.ascontiguousarray(x, dtype=np.float64) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _assert_matches_scipy_bitwise(table: CoefficientTable, seed: int) -> None:
    spline = CubicHermiteSpline(table.r_grid, table.w, table.dw)
    assert _same_bits(table._spline, spline.c.transpose(0, 2, 1))
    probes = _spline_probes(table.r_grid, seed)
    assert _same_bits(table(probes), spline(probes))
    for r in probes[::97].tolist():
        assert _same_bits(table(r), spline(r))


@pytest.mark.parametrize("fixture", ["two_table", "three_table"])
def test_spline_reproduces_scipy_on_the_fixture_tables(fixture, request):
    _assert_matches_scipy_bitwise(request.getfixturevalue(fixture), seed=5)


@pytest.mark.parametrize("n_points", [201, 401, 801, 2001])
@pytest.mark.parametrize("kind", [TWO_SPIN, THREE_SPIN_KAGOME])
def test_spline_reproduces_scipy_on_uniform_grids(kind, n_points, profile):
    spec = ModelSpec(kind=kind)
    grid = ramp_grid(spec, profile, n_points)
    _assert_matches_scipy_bitwise(coefficient_table(track_branch(spec, grid)),
                                  seed=n_points)


def test_spline_keeps_scipys_signed_zeros():
    # w = -(r^3 + r^2 + r) is -0.0 at r = 0 and the spline reproduces the
    # cubic, so every term at that knot is -0.0; scipy's sum starts from +0.0
    r_grid = np.linspace(0.0, 1.0, 9)
    w = -(r_grid ** 3 + r_grid ** 2 + r_grid)
    dw = -(3 * r_grid ** 2 + 2 * r_grid + 1)
    zero = np.full(9, -0.0)
    table = CoefficientTable(r_grid, np.stack([w, zero], axis=-1),
                             np.stack([dw, zero], axis=-1), np.zeros(9), SPLINE_SPEC)
    assert np.signbit(table.w[0]).all() and not np.signbit(table(0.0)).any()
    _assert_matches_scipy_bitwise(table, seed=9)


def test_spline_matches_scipy_on_jittered_grids():
    # from two points up, with random slopes: no slope system is solved, so
    # the table is scipy's on any grid, to the bit
    rng = np.random.default_rng(77)
    for _ in range(300):
        n = int(rng.integers(2, 120))
        r_grid = np.cumsum(rng.uniform(0.7, 1.3, n))
        w, dw = rng.normal(size=(2, n, int(rng.integers(1, 4)))) * rng.uniform(0.1, 10.0)
        _assert_matches_scipy_bitwise(CoefficientTable(r_grid, w, dw, np.zeros(n), SPLINE_SPEC),
                                      seed=n)


@pytest.mark.parametrize("r_grid, bad, message", [
    ([0.0, 1.0, 1.0, 2.0], None, "strictly increasing"),
    ([0.0, 2.0, 1.0, 3.0], None, "strictly increasing"),
    ([0.0, np.nan, 2.0, 3.0], None, "r_grid must contain only finite"),
    ([0.0, 1.0, 2.0, np.inf], None, "r_grid must contain only finite"),
    ([0.0, 1.0, 2.0, 3.0], np.nan, "w must contain only finite"),
    ([0.0, 1.0, 2.0, 3.0], -np.inf, "w must contain only finite"),
    # equal ends do not make a constant table
    ([0.0, 1.0, 2.0, 0.0], None, "strictly increasing"),
    # a one-point table is constant, and checked all the same
    ([1.0], np.nan, "w must contain only finite"),
    ([0.0, 1.0, 2.0, 3.0], [[0.0, 0.0]] * 2 + [[0.0, np.inf], [0.0, 0.0]],
     "dw must contain only finite"),
    ([0.0, 1.0, 2.0, 3.0], [[0.0]] * 4, r"^dw has shape \(4, 1\), w has \(4, 2\)$"),
    # w and dw need one row per grid point, and the grid a point
    ([0.0, 1.0, 2.0], "w", r"^w has shape \(2, 2\): one row per r_grid point needs 3 rows$"),
    ([0.0, 1.0, 2.0], "dw", r"^dw has shape \(2, 2\), w has \(3, 2\)$"),
    ([], None, r"^r_grid must be a non-empty 1-d array, got shape \(0,\)$"),
    ([[0.0, 1.0], [2.0, 3.0]], None,
     r"^r_grid must be a non-empty 1-d array, got shape \(2, 2\)$"),
])
def test_spline_rejects_bad_tables(r_grid, bad, message):
    # bad is None, a value put into w, the whole dw, or the name of the array
    # given one row too few
    n = len(r_grid)
    w, dw = np.ones((n, 2)), np.zeros((n, 2))
    if isinstance(bad, list):
        dw = np.array(bad)
    elif bad == "w":
        w = w[1:]
    elif bad == "dw":
        dw = dw[1:]
    elif bad is not None:
        w[n // 2, 1] = bad
    with pytest.raises(ValueError, match=message):
        CoefficientTable(np.array(r_grid), w, dw, np.zeros(n), SPLINE_SPEC)


def test_spline_whose_coefficients_overflow_raises():
    # unit slopes on a spacing of 1e-160: the cubic coefficients are ~1e320
    r_grid = np.array([0.0, 1e-160, 2e-160])
    with pytest.raises(ValueError, match="the spline coefficients overflow float64"):
        CoefficientTable(r_grid, np.zeros((3, 2)), np.ones((3, 2)), np.zeros(3),
                         SPLINE_SPEC)


@pytest.mark.parametrize("n, w, residuals, message", [
    (11, np.zeros(11), np.zeros(11),
     r"^w must be a 2-d array \(n, n_generators\), got shape \(11,\)$"),
    (1, np.zeros(1), np.zeros(1),
     r"^w must be a 2-d array \(n, n_generators\), got shape \(1,\)$"),
    (11, np.zeros((11, 2)), np.zeros(3),
     r"^residuals has shape \(3,\): one per r_grid point needs shape \(11,\)$"),
], ids=["1d_w", "1d_w_on_one_point", "short_residuals"])
def test_table_rejects_a_misshapen_w_or_residuals_by_name(n, w, residuals, message):
    # a 1-d w used to fail inside the spline build with numpy's shape
    # message, or, on one point, to run and lose the generator axis
    r_grid = np.linspace(0.0, 10.0, n)
    with pytest.raises(ValueError, match=message):
        CoefficientTable(r_grid, w, np.zeros_like(w), residuals, SPLINE_SPEC)


def test_table_fields_cannot_be_reassigned(three_spec):
    # the spline is built from the fields when the table is made: a field
    # assigned later would leave it describing the old couplings
    table = CoefficientTable.zeros(three_spec, np.linspace(0.0, 10.0, 11))
    for name in ("r_grid", "w", "dw", "residuals", "spec", "_spline"):
        with pytest.raises(FrozenInstanceError):
            setattr(table, name, getattr(table, name))
    assert not np.any(table(5.0))


def test_zero_table_is_the_undriven_control(three_spec, three_branch):
    table = CoefficientTable.zeros(three_spec, three_branch.r_grid)
    assert table.r_grid is three_branch.r_grid
    assert table.w.shape == three_branch.r_grid.shape + (2,) and not np.any(table.w)
    assert table.dw.shape == table.w.shape and not np.any(table.dw)
    assert table.residuals.shape == three_branch.r_grid.shape
    assert not np.any(table.residuals)
    assert not np.any(table(np.linspace(0.0, 10.0, 7)))


def test_list_fields_are_converted_when_the_table_is_made(two_spec, two_table, profile):
    # a list grid for the zero table, and w and dw as nested lists, run to
    # the bit as the array tables do
    grid = [0.0, 5.0, 10.0]
    listed = CoefficientTable(two_table.r_grid, two_table.w.tolist(), two_table.dw.tolist(),
                              two_table.residuals, two_spec)
    for table, arrays in ((CoefficientTable.zeros(two_spec, grid),
                           CoefficientTable.zeros(two_spec, np.array(grid))),
                          (listed, two_table)):
        run, reference = (integrate(profile, 2000, output_stride=100, table=t)
                          for t in (table, arrays))
        for field in fields(run):
            assert (getattr(run, field.name).tobytes()
                    == getattr(reference, field.name).tobytes())
    # an all-equal list grid is a constant table, as the same array is
    flat = CoefficientTable([5.0] * 3, [[0.25, -1.0]] * 3, [[0.0, 0.0]] * 3, [0.0] * 3,
                            SPLINE_SPEC)
    assert flat._spline is None
    assert np.array_equal(flat(np.array([4.0, 6.0])), [[0.25, -1.0]] * 2)


@pytest.mark.parametrize("model", ["two", "three"])
def test_couplings_have_one_column_per_generator(model, profile, request):
    # w1 alone for two spins, (w1, w2) for three: the table's generators
    spec, branch, table = (request.getfixturevalue(f"{model}_{name}")
                           for name in ("spec", "branch", "table"))
    n, k = len(branch.r_grid), len(TERM_WORDS[spec.kind]) - 3
    zeros = CoefficientTable.zeros(spec, branch.r_grid)
    assert solve_core(spec, branch.vectors, branch.d_vectors)[0].shape == (n, k)
    assert table.w.shape == zeros.w.shape == (n, k)
    assert table(np.linspace(0.0, 10.0, 7)).shape == (7, k)
    for driving in (table, zeros):
        run = integrate(profile, 400, table=driving)
        assert run.w.shape == (len(run), k)
