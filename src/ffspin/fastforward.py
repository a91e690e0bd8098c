"""Time-magnification profile and fast-forward TDSE integration.

The production schedule is the asymptotic (large magnification) limit:

    R(t) = R0 + 2 vbar (t/2 - T sin(2 pi t / T) / (4 pi)),
    v(t) = vbar (1 - cos(2 pi t / T)),

so v vanishes at both endpoints and the full Hamiltonian coincides with the
bare one there.

Integration is fixed-step RK4 with no per-step renormalization; the norm is
recorded so that drift stays visible as a diagnostic instead of being hidden.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _rk4_run
from .model import DrivingCoefficients, ModelSpec, h0, h0_parts, h_candidate, driving_generators
from .regularization import CoefficientTable, coefficient_table
from .spectrum import (DEFAULT_GRID_POINTS, AdiabaticBranch, branch_vector_at,
                       default_r_grid, track_branch)

DEFAULT_STEPS = 10_000
DEFAULT_STRIDE = 100
NORM_DRIFT_LIMIT = 1e-6


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


def _check_time(profile: FastForwardProfile, t: float) -> None:
    if not 0.0 <= t <= profile.t_ff:
        raise ValueError(f"t={t} outside [0, {profile.t_ff}]")


def r_of_t(profile: FastForwardProfile, r0: float, t: float) -> float:
    """Control parameter at time t of the fast-forwarded schedule."""
    _check_time(profile, t)
    if profile.t_ff == 0.0:
        return r0
    phase = 2.0 * math.pi * t / profile.t_ff
    return r0 + 2.0 * profile.v_bar * (0.5 * t - profile.t_ff * math.sin(phase)
                                       / (4.0 * math.pi))


def v_of_t(profile: FastForwardProfile, t: float) -> float:
    """dR/dt at time t; exactly zero at t = 0 and t = t_ff."""
    _check_time(profile, t)
    if profile.t_ff == 0.0:
        return 0.0
    return profile.v_bar * (1.0 - math.cos(2.0 * math.pi * t / profile.t_ff))


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
    branch_energy: float


def h_ff(spec: ModelSpec, profile: FastForwardProfile, table: CoefficientTable,
         t: float) -> np.ndarray:
    """Fast-forward Hamiltonian H0(R(t)) + v(t) * driving(R(t)).

    At the endpoints v vanishes identically and the bare Hamiltonian is
    returned unchanged, so the pinning is exact rather than approximate.
    """
    r = r_of_t(profile, spec.r0, t)
    return _h_ff_at(spec, table, r, v_of_t(profile, t))


def _h_ff_at(spec: ModelSpec, table: CoefficientTable, r: float,
             v: float) -> np.ndarray:
    pad = 1e-9 * max(1.0, abs(table.r_max - table.r_min))
    if not table.r_min - pad <= r <= table.r_max + pad:
        raise ValueError(
            f"r={r} outside the tabulated coefficient range "
            f"[{table.r_min}, {table.r_max}]")
    bare = h0(spec, r)
    if v == 0.0:
        return bare
    return bare + v * h_candidate(spec, table(r))


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

    Norm drift beyond ``NORM_DRIFT_LIMIT`` raises, with the advice to raise
    ``steps``.
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
        vec, energy = branch.vectors[0], float(branch.energies[0])
        return [TrajectoryRecord(
            t=0.0, r=float(spec.r0), v=0.0,
            coeffs=DrivingCoefficients(0.0, 0.0, 0.0), psi=psi0.copy(),
            norm=float(np.linalg.norm(psi0)),
            fidelity=fidelity(psi0, vec), branch_energy=energy)]

    h_base, h_slope = h0_parts(spec)
    gens = driving_generators(spec)
    breaks, coeffs = table.spline_data()
    psis, ts, rs, vs, ws = _rk4_run(
        np.ascontiguousarray(h_base), np.ascontiguousarray(h_slope),
        np.ascontiguousarray(gens), np.ascontiguousarray(breaks),
        np.ascontiguousarray(coeffs), float(spec.r0), float(profile.v_bar),
        float(profile.t_ff), psi0, int(steps), int(output_stride), bool(drive))

    records = []
    for i in range(psis.shape[0]):
        psi = psis[i]
        norm = float(np.linalg.norm(psi))
        vec, energy = branch_vector_at(spec, branch, float(rs[i]))
        fid = float(abs(np.vdot(vec, psi / norm)) ** 2)
        if drive:
            rec_coeffs = DrivingCoefficients(w1=float(ws[i, 0]), w2=float(ws[i, 1]),
                                             bz_tilde=float(ws[i, 2]))
        else:
            rec_coeffs = DrivingCoefficients(0.0, 0.0, 0.0)
        records.append(TrajectoryRecord(
            t=float(ts[i]), r=float(rs[i]), v=float(vs[i]), coeffs=rec_coeffs,
            psi=psi.copy(), norm=norm, fidelity=fid, branch_energy=energy))
    drift = max(abs(rec.norm - 1.0) for rec in records)
    if drift > NORM_DRIFT_LIMIT:
        raise RuntimeError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT}; "
            "increase the step count")
    return records
