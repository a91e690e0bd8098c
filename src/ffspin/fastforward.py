"""Time-magnification profile and fast-forward TDSE integration.

The production schedule is the asymptotic (large magnification) limit:

    R(t) = R0 + 2 vbar (t/2 - T sin(2 pi t / T) / (4 pi)),
    v(t) = vbar (1 - cos(2 pi t / T)),

so v vanishes at both endpoints and the full Hamiltonian coincides with the
bare one there.  The fast-forward Hamiltonian (Masuda & Nakamura, Proc. R.
Soc. A 466, 1135 (2010)) is

    H_FF(t) = H0(R(t)) + v(t) sum_k w_k(R(t)) G_k,

with one coupling w_k per generator G_k of the model's word table.

Every term leaves the branch sector invariant (``model``), and the run starts
on the branch vector C(R0), which lies in it, so :func:`integrate` propagates
only the k sector components (k = 2 for two spins, 3 for three), in their
real form: a complex matrix a = ar + i ai becomes [[ar, -ai], [ai, ar]] and
psi becomes [Re psi; Im psi], so the stage matrices -iH (2k x 2k: 4 x 4 and
6 x 6) are one real matmul of the H_FF coefficients with cached real forms
of -iT for the model's structural terms T on the sector.  The undriven
control is the same Hamiltonian with a coefficient table of zeros.  RK4 is
linear in psi, so each fixed step is a matrix; these are built as batched
matmuls a chunk of steps at a time, multiplied pairwise within each record
interval (Blelloch, "Prefix sums and their applications", 1990) and joined by
an inclusive prefix scan over the chunk's intervals (Hillis & Steele, CACM
29, 1170 (1986)), so each record is one product with psi.  A chunk's fixed
cost is kept to a few numpy calls: ``_h_ff_coefficients`` writes its stage
coefficients into the workspace in one fused pass over its stage times,
which ``_stage_times`` makes inside [0, t_ff] and whose r the one
table-range check of each ``integrate`` call bounds, so none is checked.

Each call allocates one workspace, sized by min(CHUNK_STEPS, steps), and
every chunk writes into it: the stage coefficients, generator-major, the
couplings as ``table(r)`` times v; the stage matrices, scaled by dt/2
(below); and three step scratches, in which the rounds of products then
take turns, so no chunk allocates an array of stage size.  A chunk of m
steps stores its 2m + 1 stage times, coefficient rows and stage matrices
as the m + 1 step ends followed by the m midpoints (``_stage_order``), so
the steps' starts, ends and midpoints are the contiguous blocks a[:m],
a[1:m+1] and a[m+1:]; each time, row and matrix is still computed on its
own.  The kernel has one
entry: a plan of the views into the workspace that a chunk uses (the stage
order, the stage split, the step scratches, the operands of every product
and prefix round and the result) and of the numpy calls on them, built by
``_chunk_plan`` once per distinct chunk length in a call (at most two: the
regular chunk and a shorter last one, or the two pieces of a record
interval longer than ``CHUNK_STEPS``) and run by ``_run``, so every chunk
makes the same numpy calls in the same order and memory still does not
grow with the step count.  Each call scales the cached stage terms by dt/2
once, so the workspace holds the half-step stages B = (dt/2) A and a step
needs no identity matrix: with L = (dt/2) K, L2 = Bm + Bm B0, L3 = Bm +
Bm L2 and P - I = (B0 + B1 + 2 (L2 + L3 + B1 L3)) / 3.
``ramp_end_step`` bounds the stage matrices at the ramp ends and finds the
smallest step count inside RK4's stability interval there; ``cli.validate``
refuses a config whose stage bound overflows or whose step is outside it.

The recorded psi is U psi, its real and imaginary parts embedded by one
real matmul, so no run makes a complex matmul.  There is no per-step
renormalization; the norm is recorded so that drift stays visible as a
diagnostic instead of being hidden.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from operator import setitem

import numpy as np

from .model import ModelSpec, combine, h0, schedules, sector_basis, structural_terms
from .regularization import CoefficientTable
from .spectrum import branch_vector_at, eigensolve

DEFAULT_STEPS = 10_000
DEFAULT_STRIDE = 100
NORM_DRIFT_LIMIT = 1e-6
#: RK4 steps whose stage and step matrices are built in one batch; the
#: workspace holds 5 * CHUNK_STEPS + 1 matrices whatever the step count
CHUNK_STEPS = 512
#: RK4's stability interval on the imaginary axis ends at y = 2 sqrt(2): for
#: a larger y = |E| dt, |R(iy)| > 1 (Hairer & Wanner, Solving ODEs II, IV.2)
RK4_STABILITY_LIMIT = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class FastForwardProfile:
    """Velocity scale and finite positive duration of the fast-forwarded schedule."""

    v_bar: float
    t_ff: float

    def __post_init__(self):
        if not 0 <= self.v_bar < np.inf:  # NaN fails too
            raise ValueError("v_bar must be finite and non-negative")
        if not 0 < self.t_ff < np.inf:
            raise ValueError("t_ff must be finite and positive")


def _check_time(profile: FastForwardProfile, t: float | np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    outside = ~((0.0 <= t) & (t <= profile.t_ff))
    if outside.any():
        raise ValueError(f"t={t[outside][0]} outside [0, {profile.t_ff}]")
    return t


def _ramp(profile: FastForwardProfile, r0: float, t: float | np.ndarray):
    """R(t) and v(t) at times t (a float or an array) the caller keeps in [0, t_ff]."""
    phase = 2.0 * np.pi * t / profile.t_ff
    r = r0 + 2.0 * profile.v_bar * (0.5 * t - profile.t_ff * np.sin(phase)
                                    / (4.0 * np.pi))
    return r, profile.v_bar * (1.0 - np.cos(phase))


def r_of_t(profile: FastForwardProfile, r0: float, t: float | np.ndarray):
    """Control parameter at time t (a float or an array) of the schedule."""
    return _ramp(profile, r0, _check_time(profile, t))[0]


def v_of_t(profile: FastForwardProfile, t: float | np.ndarray):
    """dR/dt at time t (a float or an array); exactly zero at t = 0 and t = t_ff."""
    return _ramp(profile, 0.0, _check_time(profile, t))[1]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Records of a fast-forward run, one array row per sampled step: (n,)
    arrays, ``w`` (n, n_generators) (zero when undriven) and ``psi`` (n, dim)."""

    t: np.ndarray
    r: np.ndarray
    v: np.ndarray
    w: np.ndarray
    psi: np.ndarray
    norm: np.ndarray
    fidelity: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


def _h_ff_coefficients(profile: FastForwardProfile, table: CoefficientTable,
                       t: np.ndarray, out: np.ndarray) -> None:
    """Write H_FF's coefficients (J1, J2, Bz, v w1, ...) on the structural
    terms of the table's model at the 1-d stage times t into ``out``, shape
    (len(t), 3 + n_generators).  Nothing is checked here: ``_stage_times``
    keeps t in [0, t_ff], and ``integrate`` has checked the table's R range
    once, on the records' r, which bound every stage r.

    One pass: r and v come from ``_ramp``, as in ``r_of_t`` and ``v_of_t``,
    (J1, J2, Bz) from ``model.schedules`` and the couplings from
    ``table(r)``, each written into its columns."""
    spec = table.spec
    r, v = _ramp(profile, spec.r0, t)
    for k, column in enumerate(schedules(spec, r)):  # (J1, J2, Bz)
        out[:, k] = column
    # generator-major, the memory order of ``table(r)`` and of the workspace
    np.multiply(table(r).T, v, out=out[:, 3:].T)


@lru_cache(maxsize=None)
def _real_stage_terms(kind: str) -> np.ndarray:
    """Real forms [[Re a, -Im a], [Im a, Re a]] of a = -i T for the structural
    terms T on the branch sector, as a read-only (n_terms, 2k, 2k) stack."""
    a = -1j * structural_terms(kind, "branch")
    terms = np.block([[a.real, -a.imag], [a.imag, a.real]])
    terms.flags.writeable = False
    return terms


def _stage_times(profile: FastForwardProfile, steps: int, index: np.ndarray):
    """Entries ``index`` of linspace(0, t_ff, 2 * steps + 1), bit for bit."""
    t = index * (profile.t_ff / (2 * steps))
    t[index == 2 * steps] = profile.t_ff
    return t


def _chunks(steps: int, stride: int):
    """[first, last) step ranges of at most ``CHUNK_STEPS`` steps that never
    straddle a record: whole record intervals, or pieces of one interval."""
    size = max(1, CHUNK_STEPS // stride) * stride
    for start in range(0, steps, size):
        end = min(start + size, steps)
        for first in range(start, end, CHUNK_STEPS):
            yield first, min(first + CHUNK_STEPS, end)


def _run(calls: list) -> None:
    """Call each function of a list of (function, args) pairs on its args,
    in order: the kernel's one executor, which runs every chunk's plan."""
    for function, args in calls:
        function(*args)


def _stage_order(steps: int) -> np.ndarray:
    """Indices into a chunk's 2 steps + 1 stage times, in the order the
    workspace stores them: the steps + 1 step ends, then the steps midpoints."""
    return np.concatenate([np.arange(0, 2 * steps + 1, 2), np.arange(1, 2 * steps, 2)])


def _step_calls(b: np.ndarray, work: np.ndarray):
    """The calls that write D_n = P_n - I for the RK4 step matrices psi_{n+1}
    = P_n psi_n into work[0], and the view of D they fill, from the 2n + 1
    half-step stages B = (dt/2) A, A = -iH, stored as in ``_stage_order``:
    the n + 1 step ends, B0 = b[:n] the steps' starts and B1 = b[1:n+1]
    their ends, then the n midpoints Bm = b[n+1:].

    P_n = I + dt/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = A0, K2 = Am (I + dt/2
    K1), K3 = Am (I + dt/2 K2) and K4 = A1 (I + dt K3).  In L = (dt/2) K
    that is L1 = B0, L2 = Bm + Bm L1, L3 = Bm + Bm L2, L4 = B1 + 2 B1 L3 and
    D = (L1 + 2 L2 + 2 L3 + L4) / 3 = (B0 + B1 + 2 (L2 + L3 + B1 L3)) / 3,
    so no identity is added and every operand is C-contiguous.  ``work`` is
    a (3, >= n, k, k) buffer; the calls also use work[1] and work[2] and
    leave them free."""
    n = len(b) // 2
    b0, b1, bm = b[:n], b[1:n + 1], b[n + 1:]
    d, l2, l3 = work[:, :n]
    return [(np.matmul, (bm, b0, l2)),
            (np.add, (bm, l2, l2)),  # L2
            (np.matmul, (bm, l2, l3)),
            (np.add, (bm, l3, l3)),  # L3
            (np.matmul, (b1, l3, d)),
            (np.add, (d, l3, d)),
            (np.add, (d, l2, d)),
            (np.multiply, (d, 2.0, d)),
            (np.add, (d, b0, d)),
            (np.add, (d, b1, d)),
            (np.multiply, (d, 1.0 / 3.0, d))], d  # np.divide takes 3 times as long


def ramp_end_step(spec: ModelSpec, profile: FastForwardProfile, steps: int,
                  stride: int) -> tuple[float, int] | None:
    """RK4's step at the ramp ends, where v = 0 and H_FF = h0, of ``steps``
    steps of ``profile`` on ``spec``: None when the matrices that
    ``_step_calls`` forms can overflow float64, else y = max|E| dt over the
    branch sector levels there and the smallest step count, a multiple of
    ``stride``, whose y is within ``RK4_STABILITY_LIMIT``.

    h0 is affine in R, so the largest row sum s of |h0| at the two ramp ends
    bounds every |level| along the ramp, and b = s dt / 2 bounds the row
    sums of the half-step stages B = (dt/2) A that ``_step_calls`` starts
    from.  With F = b (1 + b (1 + b)), the matrices it forms have row sums
    up to b (1 + b) (L2), F (L3), b F (B1 L3) and 2 (b + b (1 + b) + F + b
    F) <= 2 F (3 + b) (the partial sums of D).  The bound evaluated here,
    in Python floats, which overflow to inf, is s (1 + x (1 + x/2 (1 +
    x/2))) = s (1 + 2 F) with x = s dt.  For dt <= 2, b <= s, so every
    matrix formed stays within twice that bound when s >= 3, and below 500
    when s < 3.  For dt > 2 they can exceed it, and the stability check
    covers them: a step it accepts has max|E| dt <= 2 sqrt(2), so x <= 2
    sqrt(6) (a k x k Hermitian matrix's row sums are at most sqrt(k) times
    its largest |level|, and k <= 3) and every matrix formed stays below
    300.  The ramp-end levels are solved only when s allows a step beyond
    ``RK4_STABILITY_LIMIT``; otherwise y is s's."""
    with np.errstate(over="ignore"):
        ends = h0(spec, [spec.r0, spec.r0 + profile.v_bar * profile.t_ff], "branch")
        e_max = float(np.max(np.sum(np.abs(ends), axis=-1)))
    x = e_max * profile.t_ff / steps
    if not math.isfinite(e_max * (1.0 + x * (1.0 + 0.5 * x * (1.0 + 0.5 * x)))):
        return None
    if x > RK4_STABILITY_LIMIT:
        e_max = float(np.max(np.abs(eigensolve(ends)[0])))
    span = e_max * profile.t_ff
    needed = max(1, math.ceil(span / RK4_STABILITY_LIMIT))
    while span / needed > RK4_STABILITY_LIMIT:  # ceil of a rounded quotient
        needed += 1
    return span / steps, -(-needed // stride) * stride


def _join(x: np.ndarray, y: np.ndarray, out: np.ndarray, xy: np.ndarray) -> list:
    """The calls that form (I + x)(I + y) - I = (x + y) + x y into ``out``,
    with x y formed in ``xy``, an array of out's shape."""
    return [(np.matmul, (x, y, xy)), (np.add, (x, y, out)), (np.add, (out, xy, out))]


def _product_calls(d: np.ndarray, free: tuple[np.ndarray, np.ndarray]):
    """The calls that form (I + d[:, m-1]) ... (I + d[:, 0]) - I for a
    C-contiguous (g, m, k, k) stack, multiplied pairwise as (I + x)(I + y)
    - I = x + y + x y: rounding I + d would repeat the same diagonal error
    at every step.  Returns the calls, the view of the (g, k, k) product
    they leave and the two buffers left free.

    ``free`` holds two C-contiguous (>= g m, k, k) buffers that do not
    overlap d.  Each round joins the pairs into the first, with the products
    x y in the second, and copies an odd leftover last factor; the round's
    input is then free in its place."""
    calls = []
    while d.shape[1] > 1:
        g, m = d.shape[:2]
        half, odd = divmod(m, 2)
        dst, tmp = free
        out = dst[:g * (half + odd)].reshape((g, half + odd) + d.shape[2:])
        calls += _join(d[:, 1:2 * half:2], d[:, 0:2 * half:2], out[:, :half],
                       tmp[:g * half].reshape((g, half) + d.shape[2:]))
        if odd:
            calls.append((setitem, (out[:, half], ..., d[:, -1])))
        free, d = (d.reshape((-1,) + d.shape[2:]), tmp), out
    return calls, d[:, 0], free


def _prefix_calls(d: np.ndarray, free: tuple[np.ndarray, np.ndarray]):
    """The calls that form the inclusive prefix products (I + d[j]) ...
    (I + d[0]) - I of a (g, k, k) stack in log2(g) batched matmuls (Hillis &
    Steele), the rounds alternating between d and ``free`` as in
    ``_product_calls``, and the view of the products they leave."""
    calls, shift = [], 1
    while shift < len(d):
        dst, tmp = free
        out = dst[:len(d)]
        calls.append((setitem, (out[:shift], ..., d[:shift])))
        calls += _join(d[shift:], d[:-shift], out[shift:], tmp[:len(d) - shift])
        free, d, shift = (d, tmp), out, 2 * shift
    return calls, d


def _chunk_plan(workspace: tuple[np.ndarray, ...], steps: int, group: int):
    """The views of a chunk of ``steps`` RK4 steps into ``workspace``, the
    (coefficients, stages, work) arrays of ``_propagate``, in
    record intervals of ``group`` steps (or one piece of an interval): the
    chunk's stage indices, ``_stage_order``; the stage coefficients' view,
    generator-major; the half-step stage matrices' view; the calls of
    ``_step_calls``, ``_product_calls`` and ``_prefix_calls``, in order, for
    ``_run``; and the view of the (g, 2k, 2k) prefix products P - I of the
    chunk's g intervals that those calls leave."""
    coefficients, stages, work = workspace
    n = 2 * steps + 1
    step_calls, d = _step_calls(stages[:n], work)
    product_calls, groups, free = _product_calls(
        d.reshape((-1, group) + d.shape[1:]), (work[1], work[2]))
    prefix_calls, products = _prefix_calls(groups, free)
    return (_stage_order(steps), coefficients[:, :n].T, stages[:n],
            step_calls + product_calls + prefix_calls, products)


def _propagate(profile: FastForwardProfile, table: CoefficientTable, steps: int,
               output_stride: int, rows: np.ndarray) -> None:
    """Fill rows[1:] with the states [Re psi, Im psi] every ``output_stride``
    steps from rows[0], a chunk of steps at a time.

    The workspace of the module docstring serves every chunk; each distinct
    chunk length gets one plan of views into it, on first use.  Both are
    freed on return, before ``integrate`` post-processes the records."""
    dt = profile.t_ff / steps
    terms = _real_stage_terms(table.spec.kind) * (0.5 * dt)
    size = min(CHUNK_STEPS, steps)
    workspace = (np.empty((len(terms), 2 * size + 1)),
                 np.empty((2 * size + 1,) + terms.shape[1:]),
                 np.empty((3, size) + terms.shape[1:]))
    plans = {}
    psi = rows[0]
    for first, last in _chunks(steps, output_stride):
        length = last - first
        if length not in plans:
            plans[length] = _chunk_plan(workspace, length, min(output_stride, length))
        order, coefficients, stages, calls, products = plans[length]
        block_t = _stage_times(profile, steps, 2 * first + order)
        _h_ff_coefficients(profile, table, block_t, coefficients)
        combine(coefficients, terms, out=stages)
        _run(calls)
        states = psi + products @ psi
        psi = states[-1]
        if last % output_stride == 0:  # else the interval goes on
            end = last // output_stride + 1
            rows[end - len(states):end] = states


def integrate(profile: FastForwardProfile, steps: int = DEFAULT_STEPS, *,
              table: CoefficientTable, output_stride: int = DEFAULT_STRIDE
              ) -> Trajectory:
    """Integrate the fast-forward TDSE of the table's model from the branch
    vector C(R0) and sample a trajectory every ``output_stride`` steps.

    Parameters
    ----------
    profile
        The schedule.
    steps
        Number of fixed RK4 steps; must be a positive multiple of
        ``output_stride``.  Both are integers (a numpy integer too): any
        other type raises TypeError by name before any work.
    table
        The driving coefficients along the ramp, one column per generator;
        ``table.spec``, the model of the branch they come from, is the model run.
        ``CoefficientTable.zeros`` gives the undriven control run
        (H_FF = H0), with zero recorded couplings ``w``.  A table checked
        its own fields when it was made; only its column count, which its
        model fixes, is checked here.

    The 2 * steps + 1 stage times are ``linspace(0, t_ff, 2 * steps + 1)``,
    built a chunk at a time, so the last step ends exactly at t_ff.  The
    branch vectors C(R(t)) of the records come from one ``branch_vector_at``
    solve; the first, C(R0), is the start vector.  A record r outside the
    table's R range (or NaN) raises, naming the first such r: the records
    include R(0) and R(t_ff) and R is monotone, so they bound every stage r
    of every chunk up to rounding, which the check's 1e-9 pad covers.  Only
    the branch sector, where it lies, is propagated; the recorded ``psi`` is
    U psi, whose components outside the sector are exactly 0.0.  Norm drift beyond
    ``NORM_DRIFT_LIMIT`` raises, with the advice to raise ``steps``; a
    non-finite drift (the propagation overflowed) names the couplings.
    """
    for name, value in (("steps", steps), ("output_stride", output_stride)):
        if not isinstance(value, Integral):
            raise TypeError(f"{name} must be an integer, got {value}")
    if steps < 1:
        raise ValueError("steps must be positive")
    if output_stride < 1 or steps % output_stride != 0:
        raise ValueError("steps must be a positive multiple of output_stride")
    spec = table.spec
    if table.w.shape[-1] != spec.n_generators:
        raise ValueError(f"table has {table.w.shape[-1]} coupling columns; the "
                         f"{spec.kind} model needs {spec.n_generators}")

    rec_t = _stage_times(profile, steps, np.arange(0, 2 * steps + 1, 2 * output_stride))
    rec_r, rec_v = _ramp(profile, spec.r0, rec_t)
    rec_w = table(rec_r)
    lo, hi = float(table.r_grid[0]), float(table.r_grid[-1])
    pad = 1e-9 * max(1.0, abs(hi - lo))
    if not (lo - pad <= rec_r.min() and rec_r.max() <= hi + pad):  # NaN fails too
        outside = ~((lo - pad <= rec_r) & (rec_r <= hi + pad))
        raise ValueError(f"r={rec_r[outside][0]} outside the tabulated coefficient "
                         f"range [{lo}, {hi}]")
    vecs, _ = branch_vector_at(spec, rec_r)
    k = vecs.shape[-1]
    rows = np.empty((len(rec_t), 2 * k))  # [Re psi, Im psi] on the sector
    rows[0] = np.concatenate([vecs[0], np.zeros(k)])
    # an overflow shows as a non-finite norm drift, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        _propagate(profile, table, steps, output_stride, rows)
        sector_psis = rows[:, :k] + 1j * rows[:, k:]
        # U psi, its real and imaginary parts in one real matmul
        full = rows.reshape(-1, 2, k) @ sector_basis(spec.kind, "branch").T
        psis = full[:, 0] + 1j * full[:, 1]
        norms = np.linalg.norm(psis, axis=1)
        drift = float(np.max(np.abs(norms - 1.0)))
    if not np.isfinite(drift):
        raise RuntimeError(f"norm drift {drift:.3e}: the RK4 propagation overflowed; "
                           "lower j0, b0 or v_bar")
    if drift > NORM_DRIFT_LIMIT:
        raise RuntimeError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT}; "
            "increase the step count")
    fids = np.abs(np.einsum("ij,ij->i", vecs, sector_psis / norms[:, None])) ** 2
    return Trajectory(t=rec_t, r=rec_r, v=rec_v, w=rec_w,
                      psi=psis, norm=norms, fidelity=fids)
