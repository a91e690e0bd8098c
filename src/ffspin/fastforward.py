"""Time-magnification profile and fast-forward TDSE integration.

The production schedule is the asymptotic (large magnification) limit:

    R(t) = R0 + 2 vbar (t/2 - T sin(2 pi t / T) / (4 pi)),
    v(t) = vbar (1 - cos(2 pi t / T)),

so v vanishes at both endpoints and the full Hamiltonian coincides with the
bare one there.  The fast-forward Hamiltonian (Masuda & Nakamura, Proc. R.
Soc. A 466, 1135 (2010)) is

    H_FF(t) = H0(R(t)) + v(t) sum_k w_k(R(t)) G_k,

written once, in :func:`h_ff`.  The schedule, ``h_ff`` and the coefficient
table all accept arrays, so :func:`integrate` evaluates the RK4 stage
Hamiltonians a fixed block of steps at a time and its Python loop only does
the mat-vecs.

Integration is fixed-step RK4 with no per-step renormalization; the norm is
recorded so that drift stays visible as a diagnostic instead of being hidden.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DrivingCoefficients, ModelSpec, h0, h_candidate
from .regularization import CoefficientTable, coefficient_table
from .spectrum import (DEFAULT_GRID_POINTS, AdiabaticBranch, branch_vector_at,
                       default_r_grid, track_branch)

DEFAULT_STEPS = 10_000
DEFAULT_STRIDE = 100
NORM_DRIFT_LIMIT = 1e-6
#: RK4 steps whose stage Hamiltonians are built in one call of ``h_ff``; the
#: buffer holds 2 * BLOCK_STEPS + 1 matrices whatever the step count
BLOCK_STEPS = 32


@dataclass(frozen=True)
class FastForwardProfile:
    """Velocity scale and duration of the fast-forwarded schedule.

    A zero duration is allowed and means the degenerate instantaneous run.
    """

    v_bar: float
    t_ff: float

    def __post_init__(self):
        if self.v_bar < 0:
            raise ValueError("v_bar must be non-negative")
        if self.t_ff < 0:
            raise ValueError("t_ff must be non-negative")

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
    if profile.t_ff == 0.0:
        return r0 + 0.0 * t
    phase = 2.0 * np.pi * t / profile.t_ff
    return r0 + 2.0 * profile.v_bar * (0.5 * t - profile.t_ff * np.sin(phase)
                                       / (4.0 * np.pi))


def v_of_t(profile: FastForwardProfile, t: float | np.ndarray):
    """dR/dt at time t (a float or an array); exactly zero at t = 0 and t = t_ff."""
    t = _check_time(profile, t)
    if profile.t_ff == 0.0:
        return 0.0 * t
    return profile.v_bar * (1.0 - np.cos(2.0 * np.pi * t / profile.t_ff))


def fidelity(psi: np.ndarray, branch_vector: np.ndarray,
             norm_atol: float = 1e-6) -> float:
    """|<branch, psi>|^2 for unit-norm inputs."""
    for name, vec in (("psi", psi), ("branch_vector", branch_vector)):
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > norm_atol:
            raise ValueError(f"{name} is not normalized (norm {norm})")
    return float(abs(np.vdot(branch_vector, psi)) ** 2)


@dataclass(frozen=True)
class TrajectoryRecord:
    """One sampled time step of a fast-forward run."""

    t: float
    r: float
    v: float
    coeffs: DrivingCoefficients
    psi: np.ndarray
    norm: float
    fidelity: float


def h_ff(spec: ModelSpec, profile: FastForwardProfile, table: CoefficientTable,
         t: float | np.ndarray) -> np.ndarray:
    """Fast-forward Hamiltonian H0(R(t)) + v(t) * driving(R(t)).

    An array of times gives the stack of matrices.  At the endpoints v
    vanishes identically and adding the zero driving term leaves the bare
    Hamiltonian unchanged, so the pinning is exact rather than approximate.
    """
    r = r_of_t(profile, spec.r0, t)
    pad = 1e-9 * max(1.0, abs(table.r_max - table.r_min))
    outside = ~((table.r_min - pad <= r) & (r <= table.r_max + pad))
    if np.any(outside):
        raise ValueError(
            f"r={np.asarray(r)[outside][0]} outside the tabulated coefficient "
            f"range [{table.r_min}, {table.r_max}]")
    v = np.asarray(v_of_t(profile, t))[..., None, None]
    return h0(spec, r) + v * h_candidate(spec, table(r))


def integrate(spec: ModelSpec, profile: FastForwardProfile,
              initial_state: np.ndarray | None = None,
              steps: int = DEFAULT_STEPS, *,
              output_stride: int = DEFAULT_STRIDE,
              branch: AdiabaticBranch | None = None,
              table: CoefficientTable | None = None,
              grid_points: int | None = None,
              drive: bool = True) -> list[TrajectoryRecord]:
    """Integrate the fast-forward TDSE and sample trajectory records.

    Parameters
    ----------
    spec, profile
        Model and schedule.
    initial_state
        Starting state; defaults to the resolved branch vector at R0.
    steps
        Number of fixed RK4 steps; must be a positive multiple of
        ``output_stride``.
    branch, table
        Precomputed branch and coefficient table (built on a default grid
        when omitted).
    drive
        With False the driving term is dropped and the recorded driving
        coefficients are zero (negative-control mode).

    The 2 * steps + 1 stage times are ``linspace(0, t_ff, 2 * steps + 1)``,
    so the last step ends exactly at t_ff.  Norm drift beyond
    ``NORM_DRIFT_LIMIT`` raises, with the advice to raise ``steps``.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    if output_stride < 1 or steps % output_stride != 0:
        raise ValueError("steps must be a positive multiple of output_stride")

    if branch is None:
        n_points = DEFAULT_GRID_POINTS if grid_points is None else grid_points
        branch = track_branch(
            spec, default_r_grid(spec, profile.r_end(spec.r0), n_points))
    if table is None:
        table = coefficient_table(spec, branch)
    if initial_state is None:
        initial_state = branch.vectors[0]
    psi0 = np.ascontiguousarray(initial_state, dtype=np.complex128)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("initial_state must be unit norm")

    if profile.t_ff == 0.0:
        return [TrajectoryRecord(
            t=0.0, r=float(spec.r0), v=0.0,
            coeffs=DrivingCoefficients(0.0, 0.0, 0.0), psi=psi0.copy(),
            norm=float(np.linalg.norm(psi0)),
            fidelity=fidelity(psi0, branch.vectors[0]))]

    stage_t = np.linspace(0.0, profile.t_ff, 2 * steps + 1)
    dt = profile.t_ff / steps
    psis = np.empty((steps // output_stride + 1, psi0.shape[0]), dtype=np.complex128)
    psis[0] = psi = psi0
    for first in range(0, steps, BLOCK_STEPS):
        last = min(first + BLOCK_STEPS, steps)
        block_t = stage_t[2 * first:2 * last + 1]
        if drive:
            h = h_ff(spec, profile, table, block_t)
        else:
            h = h0(spec, r_of_t(profile, spec.r0, block_t))
        # rows 2n, 2n + 1, 2n + 2 of -iH are the start, midpoint and end
        # stages of step first + n
        minus_ih = -1j * h
        for n in range(last - first):
            start, mid, end = minus_ih[2 * n:2 * n + 3]
            k1 = start @ psi
            k2 = mid @ (psi + (0.5 * dt) * k1)
            k3 = mid @ (psi + (0.5 * dt) * k2)
            k4 = end @ (psi + dt * k3)
            psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if (first + n + 1) % output_stride == 0:
                psis[(first + n + 1) // output_stride] = psi

    rec_t = stage_t[::2 * output_stride]
    rec_r = r_of_t(profile, spec.r0, rec_t)
    rec_v = v_of_t(profile, rec_t)
    if drive:
        w = table(rec_r)
        rec_coeffs = [DrivingCoefficients(float(w1), float(w2), float(bz))
                      for w1, w2, bz in zip(w.w1, w.w2, w.bz_tilde)]
    else:
        rec_coeffs = [DrivingCoefficients(0.0, 0.0, 0.0)] * len(rec_t)
    records = []
    for t, r, v, coeffs, psi in zip(rec_t, rec_r, rec_v, rec_coeffs, psis):
        norm = float(np.linalg.norm(psi))
        vec, _ = branch_vector_at(spec, branch, float(r))
        records.append(TrajectoryRecord(
            t=float(t), r=float(r), v=float(v), coeffs=coeffs, psi=psi,
            norm=norm, fidelity=float(abs(np.vdot(vec, psi / norm)) ** 2)))
    drift = max(abs(rec.norm - 1.0) for rec in records)
    if drift > NORM_DRIFT_LIMIT:
        raise RuntimeError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT}; "
            "increase the step count")
    return records
