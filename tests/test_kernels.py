"""The RK4 propagator inside `integrate`: record layout, reproducibility, the
undriven control on a zero table, agreement with a plain per-step RK4 loop
in the full space, the blocks outside the branch sector that it leaves
untouched, its chunking, the per-call plans of views that its chunks reuse,
and its real-form stage terms."""
from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from ffspin import CoefficientTable, coefficient_table, fastforward, track_branch
from ffspin.fastforward import FastForwardProfile, integrate, r_of_t, v_of_t
from ffspin.model import (MODEL_KINDS, ModelSpec, _parity_indices, combine, h0,
                          schedules, sector_basis, structural_terms)

from oracles import embed, h_ff, step_increments_nine_pass


def _run(spec, profile, table, steps=400, stride=100):
    # steps passed by position: it is the second positional parameter
    return integrate(profile, steps, output_stride=stride, table=table)


def test_rerun_is_bitwise_identical(two_spec, profile, two_table):
    first = _run(two_spec, profile, two_table)
    second = _run(two_spec, profile, two_table)
    for name in ("t", "r", "v", "w", "psi", "norm", "fidelity"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_record_layout(two_spec, profile, two_table):
    run = _run(two_spec, profile, two_table)
    assert len(run) == 5
    assert run.psi.shape == (5, 4)
    for name in ("t", "r", "v", "norm", "fidelity"):
        assert getattr(run, name).shape == (5,)
    assert run.w.shape == (5, 1)  # w1 alone: two spins have one generator
    assert np.array_equal(run.w, two_table(run.r))
    assert run.t[0] == 0.0
    assert run.t[-1] == 1.0  # the last stage time is exactly t_ff
    assert run.r[0] == 0.0
    assert run.r[-1] == pytest.approx(10.0, abs=1e-12)
    # velocity recorded as zero at both ends
    assert run.v[0] == 0.0
    assert run.v[-1] == 0.0


def test_zero_table_changes_the_evolution(two_spec, profile, two_table, two_branch):
    driven = _run(two_spec, profile, two_table)
    bare = _run(two_spec, profile, CoefficientTable.zeros(two_spec, two_branch.r_grid))
    assert not np.allclose(driven.psi[-1], bare.psi[-1])
    assert np.all(bare.w == 0.0)


def test_single_record_interval_gives_two_records(two_spec, profile, two_table):
    # a single record interval; 200 steps, since at 100 the RK4 norm drift
    # (1.5e-6) fails integrate's drift check
    run = _run(two_spec, profile, two_table, steps=200, stride=200)
    assert len(run) == 2


def rk4_loop_reference(spec, profile, table, psi0, steps, stride, drive=True):
    """The plain propagator: one full-space RK4 step at a time, four
    mat-vecs per step, psi kept after every ``stride`` steps."""
    stage_t = np.linspace(0.0, profile.t_ff, 2 * steps + 1)
    if drive:
        h = h_ff(spec, profile, table, stage_t)
    else:
        h = h0(spec, r_of_t(profile, spec.r0, stage_t))
    minus_ih = -1j * h
    dt = profile.t_ff / steps
    psi = np.asarray(psi0, dtype=complex)
    out = [psi]
    for n in range(steps):
        start, mid, end = minus_ih[2 * n:2 * n + 3]
        k1 = start @ psi
        k2 = mid @ (psi + (0.5 * dt) * k1)
        k3 = mid @ (psi + (0.5 * dt) * k2)
        k4 = end @ (psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (n + 1) % stride == 0:
            out.append(psi)
    return np.array(out)


# stride 1 scans 512 record intervals per chunk; 1000 spans two chunks.  The
# stride-100 cases keep their ids without a stride suffix.  The run always
# starts on the branch vector, which the "default" in every id names; the
# undriven runs (drive False) pass a zero table, and the reference builds
# them from h0 alone.
@pytest.mark.parametrize("model, drive, stride", [
    pytest.param(model, drive, stride, id="-".join(
        [str(drive), "default", model] + ([f"stride{stride}"] if stride != 100 else [])))
    for stride in (100, 1, 1000) for drive in (True, False)
    for model in ("two", "three")])
def test_records_match_per_step_loop(model, drive, stride, profile, request):
    spec, branch, table = (request.getfixturevalue(f"{model}_{name}")
                           for name in ("spec", "branch", "table"))
    run = integrate(profile, steps=2000, output_stride=stride,
                    table=table if drive else CoefficientTable.zeros(spec, branch.r_grid))
    expected = rk4_loop_reference(spec, profile, table,
                                  embed(branch.vectors[0], spec.kind), 2000, stride,
                                  drive)
    assert np.max(np.abs(run.psi - expected)) <= 1e-13


def test_default_start_leaves_odd_block_exactly_zero(two_spec, three_spec,
                                                     two_run, three_run):
    for spec, run in ((two_spec, two_run), (three_spec, three_run)):
        odd = _parity_indices(spec.dim, -1)
        assert np.all(run.psi[:, odd] == 0.0)
        assert np.any(run.psi[-1, _parity_indices(spec.dim, 1)] != 0.0)
        # the rest of P = +1 too: psi is U psi_sector, so udd = ddu exactly
        assert np.all(run.psi @ sector_basis(spec.kind, "rest") == 0.0)


def test_small_chunks_match_default_chunks(monkeypatch, three_spec, profile,
                                           three_table):
    def run():
        return integrate(profile, steps=2000, output_stride=100,
                         table=three_table)

    reference = run()
    sizes = []
    original = fastforward._h_ff_coefficients

    def counting_coefficients(*args, **kwargs):
        sizes.append(np.size(args[2]))
        return original(*args, **kwargs)

    monkeypatch.setattr(fastforward, "CHUNK_STEPS", 7)
    monkeypatch.setattr(fastforward, "_h_ff_coefficients", counting_coefficients)
    small = run()
    assert max(sizes) <= 2 * 7 + 1
    # each record interval of 100 steps is 14 chunks of 7 and one of 2
    assert len(sizes) == 20 * 15
    assert np.max(np.abs(small.psi - reference.psi)) <= 1e-13


@pytest.mark.parametrize("model, steps, stride, lengths", [
    ("three", 5000, 500, [500]),          # ten chunks of one interval each
    ("three", 3000, 1000, [512, 488]),    # each interval in two pieces
    ("two", 800, 1, [512, 288])])         # a shorter last chunk
def test_one_plan_per_distinct_chunk_length(model, steps, stride, lengths, profile,
                                            monkeypatch, request):
    table = request.getfixturevalue(f"{model}_table")
    built = []
    original = fastforward._chunk_plan

    def counting_plan(workspace, length, group, dt):
        built.append(length)
        return original(workspace, length, group, dt)

    monkeypatch.setattr(fastforward, "_chunk_plan", counting_plan)
    integrate(profile, steps, output_stride=stride, table=table)
    assert built == lengths
    built.clear()
    integrate(profile, steps, output_stride=stride, table=table)
    assert built == lengths  # plans are per call


def _workspace(steps):
    """A workspace as ``integrate`` allocates it for three spins (5
    structural terms, 6 x 6 real stages), for chunks of up to ``steps`` steps."""
    return (np.empty((5, 2 * steps + 1)), np.empty((2 * steps + 1, 6, 6)),
            np.empty((3, steps, 6, 6)))


# the chunk shapes (steps, group) of the benchmark's workloads: three_spin's
# (500, 20), long_ramp's (500, 500) and dense_two_spin's (512, 1) and
# (288, 1); and (488, 488), the second piece of a 1000-step interval
@pytest.mark.parametrize("steps, group", [(500, 500), (500, 20), (488, 488), (288, 1),
                                          (512, 1)])
def test_a_reused_plan_matches_fresh_kernel_calls(steps, group):
    workspace = _workspace(fastforward.CHUNK_STEPS)
    dt = 1.0 / 3000
    coefficients, stages, calls, products = fastforward._chunk_plan(
        workspace, steps, group, dt)
    assert coefficients.shape == (2 * steps + 1, 5)
    assert stages.shape == (2 * steps + 1, 6, 6)
    assert products.shape == (steps // group, 6, 6)
    # views only: every array of the plan lies in the workspace
    arrays = [coefficients, stages, products] + [
        x for _, args in calls for x in args if isinstance(x, np.ndarray)]
    assert all(any(np.shares_memory(x, buffer) for buffer in workspace) for x in arrays)
    rng = np.random.default_rng(steps + group)
    for _ in range(2):  # a second, different stack through the same views
        a = rng.normal(size=stages.shape)
        stages[...] = a
        fastforward._run(calls)
        # a fresh plan on a fresh workspace, sized to this chunk alone
        _, fresh_stages, fresh_calls, expected = fastforward._chunk_plan(
            _workspace(steps), steps, group, dt)
        fresh_stages[...] = a
        fastforward._run(fresh_calls)
        assert np.array_equal(products.view(np.uint64), expected.view(np.uint64))


def _real_form(a):
    """[[Re a, -Im a], [Im a, Re a]] of each matrix in a complex stack."""
    top = np.concatenate([a.real, -a.imag], axis=-1)
    bottom = np.concatenate([a.imag, a.real], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("parity", [1])
def test_real_stage_terms_are_real_forms_of_minus_i_terms(kind, parity):
    # the stage terms are those of the branch sector, which lies in P = parity
    terms = fastforward._real_stage_terms(kind)
    assert terms.dtype == np.float64
    assert not terms.flags.writeable
    assert np.array_equal(terms, _real_form(-1j * structural_terms(kind, "branch")))
    u = sector_basis(kind, "branch")
    outside = np.setdiff1d(np.arange(len(u)), _parity_indices(len(u), parity))
    assert not np.any(u[outside])


def test_stage_times_equal_linspace():
    for steps in (800, 2000, 12345, 200_000):
        for t_ff in (0.1, 0.37, 1.0, 3.0):
            profile = FastForwardProfile(v_bar=1.0, t_ff=t_ff)
            grid = np.linspace(0.0, t_ff, 2 * steps + 1)
            for index in (np.arange(2 * steps + 1),
                          np.arange(10, 2 * steps + 1),      # a last chunk
                          np.arange(0, 2 * steps + 1, 4)):   # stride-2 records
                assert np.array_equal(
                    fastforward._stage_times(profile, steps, index), grid[index])


def test_stage_time_memory_does_not_grow_with_steps(three_spec, profile,
                                                   three_table):
    def peak(steps):
        tracemalloc.start()
        try:
            integrate(profile, steps=steps, output_stride=steps,
                      table=three_table)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)  # builds the table's spline outside the measured calls
    assert peak(200_000) <= 1.1 * peak(10_000)


def _chunk_stage_times(profile, steps, stride):
    """Every chunk's stage times, as ``integrate`` builds them."""
    return [fastforward._stage_times(profile, steps, np.arange(2 * first, 2 * last + 1))
            for first, last in fastforward._chunks(steps, stride)]


@pytest.mark.parametrize("model", ["two", "three"])
@pytest.mark.parametrize("v_bar,t_ff", [(10.0, 1.0), (27.0, 0.37)])
def test_fused_coefficients_match_the_public_functions(model, v_bar, t_ff, request):
    spec = request.getfixturevalue(f"{model}_spec")
    table = request.getfixturevalue(f"{model}_table")  # solved on R in [0, 10]
    profile = FastForwardProfile(v_bar=v_bar, t_ff=t_ff)
    # 513 steps at stride 513 end on a 1-step chunk; 1 step is one chunk
    times = [t for steps, stride in ((2000, 100), (2000, 1), (513, 513), (1, 1))
             for t in _chunk_stage_times(profile, steps, stride)]
    assert min(map(len, times)) == 3  # a 1-step chunk: start, midpoint, end
    assert times[0][0] == 0.0 and times[-1][-1] == profile.t_ff
    for t in times:
        r = r_of_t(profile, spec.r0, t)
        expected = np.column_stack([*schedules(spec, r),
                                    v_of_t(profile, t)[:, None] * table(r)])
        got = np.full(expected.shape, np.nan)
        fastforward._h_ff_coefficients(profile, table, t, got)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    # a table that ends short of the ramp names the first r outside it
    short = CoefficientTable(table.r_grid[:50], table.w[:50], table.dw[:50],
                             table.residuals[:50], spec)
    t = times[0]
    r = r_of_t(profile, spec.r0, t)
    first = r[r > short.r_grid[-1] + 1e-9 * (short.r_grid[-1] - short.r_grid[0])][0]
    with pytest.raises(ValueError, match=re.escape(f"r={first} outside the tabulated")):
        fastforward._h_ff_coefficients(profile, short, t,
                                       np.empty((len(t), 3 + spec.n_generators)))


def _running_products(d):
    """(I + d[j]) ... (I + d[0]) - I for every j, one factor at a time, in
    extended precision and in the form e -> d + e + d e, so that no I + d
    is rounded."""
    e, out = np.zeros_like(d[0], dtype=np.longdouble), []
    for x in d.astype(np.longdouble):
        e = x + e + x @ e
        out.append(e)
    return np.array(out)


@pytest.mark.parametrize("g", [1, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 13, 500])
def test_ordered_product_with_odd_leftovers_matches_per_step_product(g, m):
    # a plan of g record intervals of m steps: odd m leave a last factor
    # over in some round of the interval products (13 -> 7 -> 4, 500 -> 250
    # -> 125 -> 63 -> 32), and g = 3 one in the prefix scan over them
    steps, dt = g * m, 1e-3
    _, stages, calls, products = fastforward._chunk_plan(_workspace(steps), steps, m, dt)
    # stages of unit size, so the step increments are of RK4's size, ~dt
    stages[...] = np.random.default_rng(100 * g + m).normal(size=stages.shape)
    expected = _running_products(step_increments_nine_pass(stages, dt))[m - 1::m]
    fastforward._run(calls)
    assert products.shape == (g, 6, 6)
    for product, reference in zip(products, expected):
        assert np.max(np.abs(product - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("kind, j0", [("two_spin", 1e5), ("three_spin_kagome", 1e6),
                                      ("three_spin_kagome", 3644.0)])
def test_overflowing_propagation_raises_only_the_drift_error(kind, j0):
    # `validate` refuses these j0 (the RK4 step is unstable at the ramp ends);
    # called directly, the propagation overflows.  Under the suite's
    # warnings-as-errors rule a numpy RuntimeWarning from the records' norms
    # (as at j0 = 3644) would replace the error
    spec = ModelSpec(kind=kind, j0=j0)
    profile = FastForwardProfile(v_bar=10.0, t_ff=1.0)
    table = coefficient_table(track_branch(spec, np.linspace(0.0, 10.0, 301)))
    with pytest.raises(RuntimeError, match=re.escape(
            "norm drift nan: the RK4 propagation overflowed; lower j0, b0 or v_bar")):
        integrate(profile, 2000, output_stride=200, table=table)


def _stage_stack(spec, profile, table, steps):
    """The 2 steps + 1 stage matrices of a run's first chunk, as ``integrate``
    builds them."""
    first, last = next(fastforward._chunks(steps, steps))
    t = fastforward._stage_times(profile, steps, np.arange(2 * first, 2 * last + 1))
    coefficients = np.empty((3 + spec.n_generators, len(t))).T  # generator-major
    fastforward._h_ff_coefficients(profile, table, t, coefficients)
    return combine(coefficients, fastforward._real_stage_terms(spec.kind))


def _run_step_calls(a, dt, work):
    """D = P - I of a stage stack's steps, from the calls that a chunk plan
    runs first, into work[0]."""
    calls, d = fastforward._step_calls(a, dt, work)
    fastforward._run(calls)
    return d


@pytest.mark.parametrize("model", ["two", "three"])
@pytest.mark.parametrize("steps", [800, 2000, 5000])  # the benchmark's workloads
def test_doubled_stages_equal_the_nine_pass_step(model, steps, profile, request):
    spec, table = (request.getfixturevalue(f"{model}_{name}") for name in ("spec", "table"))
    a = _stage_stack(spec, profile, table, steps)
    dt = profile.t_ff / steps
    work = np.full((3, len(a) // 2) + a.shape[1:], np.nan)
    assert np.array_equal(_run_step_calls(a, dt, work), step_increments_nine_pass(a, dt))


@pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
@pytest.mark.parametrize("k", [4, 6])
def test_doubled_stages_equal_the_nine_pass_step_on_random_stacks(scale, k):
    rng = np.random.default_rng(int(k * scale * 1000))
    a = scale * rng.normal(size=(2 * 37 + 1, k, k))
    work = np.empty((3, 40, k, k))  # larger than the 37 steps, as the last chunk's
    for dt in (1e-4, 0.1 / scale, 1.0 / 3):
        assert np.array_equal(_run_step_calls(a, dt, work),
                              step_increments_nine_pass(a, dt))


@pytest.mark.parametrize("model", ["two", "three"])
def test_coefficients_into_the_workspace_equal_a_fresh_array(model, profile, request):
    spec, table = (request.getfixturevalue(f"{model}_{name}") for name in ("spec", "table"))
    width = 3 + spec.n_generators
    # generator-major, as in integrate's workspace; the last chunk of 1000
    # steps at stride 1000 is 1000 - 512 = 488 steps, shorter than CHUNK_STEPS
    buffer = np.full((width, 2 * fastforward.CHUNK_STEPS + 1), np.nan)
    for t in _chunk_stage_times(profile, 1000, 1000):
        n = len(t)
        buffer[...] = np.nan
        fastforward._h_ff_coefficients(profile, table, t, buffer[:, :n].T)
        expected = np.empty((n, width))
        fastforward._h_ff_coefficients(profile, table, t, expected)
        assert np.array_equal(buffer[:, :n].T.view(np.uint64), expected.view(np.uint64))
    assert n == 2 * 488 + 1
    assert np.all(np.isnan(buffer[:, n:]))  # nothing past the chunk's view
