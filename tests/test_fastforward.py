from __future__ import annotations

import re

import numpy as np
import pytest

from ffspin import fastforward
from ffspin.fastforward import FastForwardProfile, integrate, r_of_t, v_of_t
from ffspin.model import (MODEL_KINDS, THREE_SPIN_KAGOME, TWO_SPIN, ModelSpec, h0,
                          sector_basis)
from ffspin.regularization import CoefficientTable, coefficient_table
from ffspin.spectrum import branch_vector_at, track_branch

from conftest import ramp_grid
from oracles import embed, h_ff

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
    for t_ff in (0.0, np.inf):
        with pytest.raises(ValueError, match="t_ff must be finite and positive"):
            FastForwardProfile(v_bar=1.0, t_ff=t_ff)
    for v_bar in (np.nan, np.inf):
        with pytest.raises(ValueError, match="v_bar"):
            FastForwardProfile(v_bar=v_bar, t_ff=1.0)


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
    # the records' couplings extrapolate; the stage coefficients refuse
    with pytest.raises(ValueError, match="outside the tabulated"):
        integrate(profile, 200, output_stride=200, table=two_table)


def test_h_ff_array_matches_scalar_calls(three_spec, three_table, ramp_profile):
    ts = np.linspace(0.0, 1.0, 65)
    stack = h_ff(three_spec, ramp_profile, three_table, ts)
    assert stack.shape == (65, 8, 8)
    assert np.array_equal(
        stack, [h_ff(three_spec, ramp_profile, three_table, t) for t in ts])
    assert np.array_equal(stack[0], h0(three_spec, 0.0))
    assert np.array_equal(stack[-1], h0(three_spec, r_of_t(ramp_profile, 0.0, 1.0)))


def test_driven_run_keeps_fidelity(two_run):
    assert two_run.fidelity.min() > 1.0 - 1e-9
    assert np.max(np.abs(two_run.norm - 1.0)) < 1e-9


def test_driven_run_matches_branch_populations(three_run, three_spec):
    vecs, _ = branch_vector_at(three_spec, three_run.r[::10])
    full = embed(vecs, three_spec.kind)
    assert np.max(np.abs(np.abs(three_run.psi[::10]) ** 2 - full ** 2)) < 1e-9


def test_mirror_symmetry_of_three_spin_run(three_run):
    p = np.abs(three_run.psi) ** 2
    assert np.max(np.abs(p[:, 3] - p[:, 6])) < 1e-9


def test_records_cover_run(three_run):
    assert len(three_run) == 101
    assert three_run.psi.shape == (101, 8)
    assert three_run.t[0] == 0.0
    assert three_run.t[-1] == 1.0  # the last stage time is exactly t_ff
    assert three_run.r[-1] == pytest.approx(10.0, abs=1e-12)
    # velocity recorded as zero at both ends
    assert three_run.v[0] == 0.0
    assert three_run.v[-1] == 0.0


def test_step_halving_fourth_order(two_spec, ramp_profile, two_table):
    outs = []
    for steps in (2000, 4000, 8000):
        run = integrate(ramp_profile, steps=steps, output_stride=steps,
                        table=two_table)
        outs.append(run.psi[-1])
    d1 = np.linalg.norm(outs[0] - outs[1])
    d2 = np.linalg.norm(outs[1] - outs[2])
    assert d1 / d2 > 12.0


def test_no_driving_controls(two_spec, ramp_profile, two_branch,
                             three_run_no_driving):
    recs2 = integrate(ramp_profile,
                      table=CoefficientTable.zeros(two_spec, two_branch.r_grid))
    fid2 = recs2.fidelity[-1]
    assert fid2 == pytest.approx(NO_DRIVING_FINAL_FIDELITY["two_spin"], abs=1e-4)
    assert fid2 < 0.9  # the two-spin ramp alone is far from adiabatic
    fid3 = three_run_no_driving.fidelity[-1]
    assert fid3 == pytest.approx(
        NO_DRIVING_FINAL_FIDELITY["three_spin_kagome"], abs=1e-4)
    # the three-spin ramp is already nearly adiabatic at this speed; the
    # driving still buys nine orders of magnitude in the fidelity deficit
    assert 1e-4 < 1.0 - fid3 < 1e-2
    # driving coefficients recorded as zero in control mode
    assert np.all(three_run_no_driving.w == 0.0)


def test_fast_profile_keeps_fidelity(three_fast_runs):
    # ten times faster over the same ramp: the velocity-scaled driving must
    # still pin the state to the branch
    driven, bare = three_fast_runs
    assert driven.fidelity.min() > 1.0 - 1e-9
    assert bare.fidelity[-1] == pytest.approx(0.512644, abs=1e-4)


def test_zero_velocity_constant_hamiltonian(two_spec):
    # vbar = 0 keeps R pinned at the start; the eigenstate just gains phase
    profile = FastForwardProfile(v_bar=0.0, t_ff=1.0)
    branch = track_branch(two_spec, ramp_grid(two_spec, profile, 5))
    run = integrate(profile, steps=2000, output_stride=500,
                    table=coefficient_table(branch))
    assert run.fidelity.min() > 1.0 - 1e-9
    assert np.all(run.r == 0.0)
    assert np.all(run.v == 0.0)


def test_integrate_validates_arguments(two_spec, ramp_profile, two_branch,
                                       two_table):
    with pytest.raises(ValueError, match="multiple"):
        integrate(ramp_profile, steps=1001, output_stride=100, table=two_table)
    with pytest.raises(ValueError, match="steps must be positive"):
        integrate(ramp_profile, 0, table=two_table)
    # a hand-built two-spin table with two coupling columns, where two spins have one
    n = len(two_branch.r_grid)
    two_columns = CoefficientTable(two_branch.r_grid, np.zeros((n, 2)), np.zeros((n, 2)),
                                   np.zeros(n), two_spec)
    with pytest.raises(ValueError, match="^table has 2 coupling columns; the two_spin "
                                         "model needs 1$"):
        integrate(ramp_profile, table=two_columns)
    # an empty or a 2-d r_grid: the table rejects it when it is made
    for r_grid in (np.empty(0), two_branch.r_grid[None]):
        with pytest.raises(ValueError, match=re.escape(
                f"r_grid must be a non-empty 1-d array, got shape {r_grid.shape}")):
            integrate(ramp_profile, table=CoefficientTable(
                r_grid, np.zeros((r_grid.size, 1)), np.zeros((r_grid.size, 1)),
                np.zeros(r_grid.size), two_spec))


@pytest.mark.parametrize("steps, stride, message", [
    (1e4, 100, "steps must be an integer, got 10000.0"),
    (np.float64(1e4), 100, "steps must be an integer, got 10000.0"),
    (1000, 100.0, "output_stride must be an integer, got 100.0"),
    ("1000", 100, "steps must be an integer, got 1000"),
], ids=["float", "numpy_float", "float_stride", "string"])
def test_integrate_rejects_a_step_count_that_is_not_an_integer(
        steps, stride, message, ramp_profile, two_table, monkeypatch):
    # by name and before any work: the records' branch vectors are not solved
    solves = []
    monkeypatch.setattr(fastforward, "branch_vector_at",
                        lambda *args: solves.append(args) or branch_vector_at(*args))
    with pytest.raises(TypeError, match=f"^{message}$"):
        integrate(ramp_profile, steps, output_stride=stride, table=two_table)
    assert not solves
    # numpy integers are integers
    run = integrate(ramp_profile, np.int64(1000), output_stride=np.int32(100),
                    table=two_table)
    assert len(run) == 11 and len(solves) == 1


def test_a_table_runs_the_spec_its_branch_was_tracked_for(ramp_profile):
    # the couplings belong to the branch's model: a table solved at j0 = 7
    # carries j0 = 7, and integrate runs it at j0 = 7, on its branch
    other = ModelSpec(kind=THREE_SPIN_KAGOME, j0=7.0)
    branch = track_branch(other, ramp_grid(other, ramp_profile, 401))
    assert branch.spec == other
    table = coefficient_table(branch)
    assert table.spec == other
    run = integrate(ramp_profile, 400, output_stride=100, table=table)
    assert run.fidelity.min() > 1.0 - 1e-9
    final = embed(branch_vector_at(other, run.r[-1])[0], other.kind)
    assert np.max(np.abs(np.abs(run.psi[-1]) ** 2 - final ** 2)) < 1e-6


@pytest.mark.parametrize("r0", [0.0, 2.5])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_run_starts_on_the_tracked_sample_zero(kind, r0, ramp_profile):
    # on the grid a run tracks, linspace(r0, r_end, n), the start vector is
    # U C(R(0) = r0) for tracked sample 0, bit for bit, and every fresh solve
    # is a tracked sample up to its sign, with its largest component positive
    spec = ModelSpec(kind=kind, r0=r0)
    grid = ramp_grid(spec, ramp_profile, 401)
    branch = track_branch(spec, grid)
    run = integrate(ramp_profile, 400, output_stride=100,
                    table=coefficient_table(branch))
    start = run.psi[0]
    assert np.array_equal(start.real, embed(branch.vectors[0], kind))
    assert not np.any(start.imag)
    vecs, _ = branch_vector_at(spec, grid)
    signs = np.sign(np.sum(vecs * branch.vectors, axis=1))
    assert np.array_equal(vecs, signs[:, None] * branch.vectors)
    assert np.all(vecs[np.arange(len(vecs)), np.argmax(np.abs(vecs), axis=1)] > 0.0)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_psi_is_the_sector_components_times_u_transposed(kind, ramp_profile,
                                                         monkeypatch):
    # the same run with the identity as its branch basis records the sector
    # components c themselves.  Each row of U has at most one nonzero, so each
    # entry of c U^T is one product and psi equals it exactly; the kets
    # outside the sector are exactly 0
    spec = ModelSpec(kind=kind)
    branch = track_branch(spec, ramp_grid(spec, ramp_profile, 201))
    table = coefficient_table(branch)
    psi = integrate(ramp_profile, 400, table=table, output_stride=40).psi
    u = sector_basis(kind, "branch")
    monkeypatch.setattr(fastforward, "sector_basis",
                        lambda kind, sector: np.eye(u.shape[1]))
    c = integrate(ramp_profile, 400, table=table, output_stride=40).psi
    assert c.shape == (11, u.shape[1]) and np.all(np.abs(c[1:].imag) > 0)
    assert np.array_equal(c[0], branch_vector_at(spec, spec.r0)[0])  # C(R0), real
    assert np.array_equal(psi, c @ u.T)
    assert not np.any(psi[:, ~u.any(axis=1)])
    if kind == TWO_SPIN:  # U is identity columns 0 and 3: psi holds c as is
        assert np.array_equal(psi[:, [0, 3]], c)
