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
29, 1170 (1986)), so each record is one product with psi.  There is no per-step renormalization;
the norm is recorded so that drift stays visible as a diagnostic instead of
being hidden.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import ModelSpec, combine, embed_branch, schedules, structural_terms
from .regularization import CoefficientTable
from .spectrum import branch_vector_at

DEFAULT_STEPS = 10_000
DEFAULT_STRIDE = 100
NORM_DRIFT_LIMIT = 1e-6
#: RK4 steps whose stage and step matrices are built in one batch; the
#: buffers hold 2 * CHUNK_STEPS + 1 matrices whatever the step count
CHUNK_STEPS = 512


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

    def r_end(self, r0: float) -> float:
        return r0 + self.v_bar * self.t_ff


def _check_time(profile: FastForwardProfile, t: float | np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    outside = ~((0.0 <= t) & (t <= profile.t_ff))
    if outside.any():
        raise ValueError(f"t={t[outside][0]} outside [0, {profile.t_ff}]")
    return t


def r_of_t(profile: FastForwardProfile, r0: float, t: float | np.ndarray):
    """Control parameter at time t (a float or an array) of the schedule."""
    t = _check_time(profile, t)
    phase = 2.0 * np.pi * t / profile.t_ff
    return r0 + 2.0 * profile.v_bar * (0.5 * t - profile.t_ff * np.sin(phase)
                                       / (4.0 * np.pi))


def v_of_t(profile: FastForwardProfile, t: float | np.ndarray):
    """dR/dt at time t (a float or an array); exactly zero at t = 0 and t = t_ff."""
    t = _check_time(profile, t)
    return profile.v_bar * (1.0 - np.cos(2.0 * np.pi * t / profile.t_ff))


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


def _h_ff_coefficients(spec: ModelSpec, profile: FastForwardProfile,
                       table: CoefficientTable, t: float | np.ndarray) -> np.ndarray:
    """H_FF's coefficients (J1, J2, Bz, v w1, ...) on the structural terms at t."""
    r = r_of_t(profile, spec.r0, t)
    lo, hi = float(table.r_grid[0]), float(table.r_grid[-1])
    pad = 1e-9 * max(1.0, abs(hi - lo))
    outside = ~((lo - pad <= r) & (r <= hi + pad))
    if np.any(outside):
        raise ValueError(
            f"r={np.asarray(r)[outside][0]} outside the tabulated coefficient "
            f"range [{lo}, {hi}]")
    v = v_of_t(profile, t)
    return np.concatenate([np.stack(schedules(spec, r), axis=-1),
                           v[..., None] * table(r)], axis=-1)


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


def _step_increments(a: np.ndarray, dt: float) -> np.ndarray:
    """D_n = P_n - I for the RK4 step matrices psi_{n+1} = P_n psi_n, from the
    2n + 1 stage matrices A = -iH at the steps' starts, midpoints and ends:
    P_n = I + dt/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = A0, K2 = Am (I + dt/2 K1),
    K3 = Am (I + dt/2 K2) and K4 = A1 (I + dt K3).  The identity is added on
    the diagonal in place and K2...K4 reuse two buffers."""
    a0, am, a1 = a[:-1:2], a[1::2], a[2::2]
    m = (0.5 * dt) * a0
    diagonal = m.reshape(len(m), -1)[:, ::a.shape[-1] + 1]
    diagonal += 1.0
    k2 = am @ m
    np.multiply(k2, 0.5 * dt, out=m)
    diagonal += 1.0
    k3 = am @ m
    np.multiply(k3, dt, out=m)
    diagonal += 1.0
    k2 *= 2.0
    k2 += a0
    k3 *= 2.0
    k2 += k3
    np.matmul(a1, m, out=k3)  # K4
    k2 += k3
    k2 *= dt / 6.0
    return k2


def _ordered_product(d: np.ndarray) -> np.ndarray:
    """(I + d[:, m-1]) ... (I + d[:, 0]) - I for a (g, m, k, k) stack, multiplied
    pairwise as (I + x)(I + y) - I = x + y + x y: rounding I + d would repeat
    the same diagonal error at every step."""
    while d.shape[1] > 1:
        even = d.shape[1] // 2 * 2
        x, y = d[:, 1:even:2], d[:, 0:even:2]
        d = np.concatenate([x + y + x @ y, d[:, even:]], axis=1)
    return d[:, 0]


def _prefix_products(d: np.ndarray) -> np.ndarray:
    """Inclusive prefix products (I + d[j]) ... (I + d[0]) - I of a (g, k, k)
    stack, in log2(g) batched matmuls (Hillis & Steele)."""
    shift = 1
    while shift < len(d):
        x, y = d[shift:], d[:-shift]
        d = np.concatenate([d[:shift], x + y + x @ y])
        shift *= 2
    return d


def integrate(spec: ModelSpec, profile: FastForwardProfile,
              steps: int = DEFAULT_STEPS, *, table: CoefficientTable,
              output_stride: int = DEFAULT_STRIDE) -> Trajectory:
    """Integrate the fast-forward TDSE from the branch vector C(R0) and sample
    a trajectory every ``output_stride`` steps.

    Parameters
    ----------
    spec, profile
        Model and schedule.
    steps
        Number of fixed RK4 steps; must be a positive multiple of
        ``output_stride``.
    table
        The driving coefficients along the ramp, one column per generator.
        ``CoefficientTable.zeros`` gives the undriven control run (H_FF = H0),
        with zero recorded couplings ``w``.

    The 2 * steps + 1 stage times are ``linspace(0, t_ff, 2 * steps + 1)``,
    built a chunk at a time, so the last step ends exactly at t_ff.  The
    branch vectors C(R(t)) of the records come from one ``branch_vector_at``
    solve; the first, C(R0), is the start vector.  Only the branch sector,
    where it lies, is propagated; the recorded ``psi`` is U psi, whose
    components outside the sector are exactly 0.0.  Norm drift beyond
    ``NORM_DRIFT_LIMIT`` raises, with the advice to raise ``steps``; a
    non-finite drift (the propagation overflowed) names the couplings.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    if output_stride < 1 or steps % output_stride != 0:
        raise ValueError("steps must be a positive multiple of output_stride")
    if table.w.shape[-1] != spec.n_generators:
        raise ValueError(f"table has {table.w.shape[-1]} coupling columns; the "
                         f"{spec.kind} model needs {spec.n_generators}")

    dt = profile.t_ff / steps
    terms = _real_stage_terms(spec.kind)
    rec_t = _stage_times(profile, steps, np.arange(0, 2 * steps + 1, 2 * output_stride))
    rec_r = r_of_t(profile, spec.r0, rec_t)
    vecs, _ = branch_vector_at(spec, rec_r)
    k = vecs.shape[-1]
    rows = np.empty((len(rec_t), 2 * k))  # [Re psi, Im psi] on the sector
    rows[0] = psi = np.concatenate([vecs[0], np.zeros(k)])
    for first, last in _chunks(steps, output_stride):
        block_t = _stage_times(profile, steps, np.arange(2 * first, 2 * last + 1))
        a = combine(_h_ff_coefficients(spec, profile, table, block_t), terms)
        # an overflow shows as a non-finite norm drift, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            d = _step_increments(a, dt)
            groups = _ordered_product(
                d.reshape((-1, min(output_stride, last - first)) + d.shape[1:]))
            states = psi + _prefix_products(groups) @ psi
        psi = states[-1]
        if last % output_stride == 0:  # else the interval goes on
            end = last // output_stride + 1
            rows[end - len(states):end] = states
    sector_psis = rows[:, :k] + 1j * rows[:, k:]
    psis = embed_branch(spec.kind, sector_psis)

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
    return Trajectory(t=rec_t, r=rec_r, v=v_of_t(profile, rec_t), w=table(rec_r),
                      psi=psis, norm=norms, fidelity=fids)
