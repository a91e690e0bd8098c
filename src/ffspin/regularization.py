"""Counterdiabatic driving coefficients along the tracked branch.

The authoritative solver is a real least-squares fit of the core linear
system

    (w1 G1 + w2 G2 + bz G3) C(R) = i dC/dR,

where the G's are the model's driving generators.  For these two clusters
the ansatz spans the right-hand side exactly, so the residual sits at
numerical noise; a residual above tolerance signals a modeling bug, not an
approximation to be accepted.  ``solve_core`` accepts a stack of samples and
solves them all with one batched SVD, so ``coefficient_table`` is
a single call.

Two printed closed forms act as independent cross-checks:

* two_spin:   w1 = [Bz (dJ1 - dJ2) + dBz (J2 - J1)] / [2 (Bz^2 + (J1-J2)^2)]
  with d/dR rates of the linear ramps;
* three_spin: component formulas in (C1, C4, C6) and their derivatives,
  valid away from |C1| = 1/2 where their shared denominator vanishes.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (SCHEDULE_RATES, DrivingCoefficients, ModelSpec, TWO_SPIN, schedules,
                    structural_terms)
from .spectrum import AdiabaticBranch

#: least-squares residual above this value means the ansatz cannot represent
#: i dC/dR and the computation must stop
ANSATZ_RESIDUAL_LIMIT = 1e-6
#: expected noise ceiling for the residual when everything is healthy
RESIDUAL_NOISE_ATOL = 1e-8
IMAG_RESIDUE_ATOL = 1e-10


@dataclass(frozen=True)
class CoreSolution:
    """Least-squares driving coefficients plus the fit residual norm; arrays
    of one shape for a stack of samples."""

    coeffs: DrivingCoefficients
    residual: float | np.ndarray


def solve_core(spec: ModelSpec, vector: np.ndarray,
               d_vector: np.ndarray) -> CoreSolution:
    """Solve the core system for a branch sample (C, dC/dR).

    (..., dim) stacks of samples give coefficient and residual arrays of
    shape (...).  The unknowns are real; the complex system is solved by
    stacking real and imaginary parts.  Raises RuntimeError when a residual
    exceeds ``ANSATZ_RESIDUAL_LIMIT``.  A rank-deficient sample falls back to
    the minimum-norm solution, with one warning per call.
    """
    used = [3, 5] if spec.kind == TWO_SPIN else [3, 4, 5]  # generators; two spins: no w2
    a = np.einsum("kij,...j->...ik", structural_terms(spec.kind)[used], vector)
    target = 1j * d_vector
    a_real = np.concatenate([a.real, a.imag], axis=-2)
    b_real = np.concatenate([target.real, target.imag], axis=-1)
    # one SVD gives numpy's pinv and matrix_rank, with lstsq's cutoff for both
    u, s, vt = np.linalg.svd(a_real, full_matrices=False)
    rcond = max(a_real.shape[-2:]) * np.finfo(float).eps
    kept = s > rcond * np.max(s, axis=-1, keepdims=True)
    rank = np.count_nonzero(kept, axis=-1)
    s_inv = np.divide(1.0, s, where=kept, out=np.zeros_like(s))
    pinv = np.swapaxes(vt, -1, -2) @ (s_inv[..., None] * np.swapaxes(u, -1, -2))
    x = (pinv @ b_real[..., None])[..., 0]
    if np.any(rank < len(used)):
        warnings.warn(
            f"core system rank {np.min(rank)} < {len(used)}; returning the "
            "minimum-norm solution", RuntimeWarning, stacklevel=2)
    residual = np.linalg.norm((a_real @ x[..., None])[..., 0] - b_real, axis=-1)
    if np.any(residual > ANSATZ_RESIDUAL_LIMIT):
        raise RuntimeError(
            f"driving ansatz insufficient: core residual {np.max(residual):.3e}")
    if len(used) == 2:
        x = np.insert(x, 1, 0.0, axis=-1)
    return CoreSolution(coeffs=DrivingCoefficients(*np.moveaxis(x, -1, 0)),
                        residual=residual)


def closed_form_w(bz: float, j1: float, j2: float,
                  dbz: float, dj1: float, dj2: float) -> float:
    """Two-spin closed-form coefficient for arbitrary schedule rates."""
    denom = 2.0 * (bz * bz + (j1 - j2) ** 2)
    if denom < 1e-12:
        raise ValueError("closed form is singular: Bz^2 + (J1-J2)^2 vanishes")
    return (bz * (dj1 - dj2) + dbz * (j2 - j1)) / denom


def closed_form_two_spin(spec: ModelSpec, r: float) -> DrivingCoefficients:
    """Closed-form driving coefficient of the two-spin model at parameter r."""
    if spec.kind != TWO_SPIN:
        raise ValueError("closed form applies to the two-spin model only")
    j1, j2, bz = schedules(spec, r)
    dj1, dj2, dbz = SCHEDULE_RATES
    return DrivingCoefficients(w1=closed_form_w(bz, j1, j2, dbz, dj1, dj2))


def component_form_three_spin(vector: np.ndarray,
                              d_vector: np.ndarray) -> DrivingCoefficients:
    """Three-spin component formulas in (C1, C4, C6) and their derivatives.

    Precondition: |C1| > 1e-10 and |3 C1^2 - 2 C4^2 - C6^2| > 1e-10 (by the
    branch normalization the latter equals |4 C1^2 - 1|, so the formulas
    break down where |C1| crosses 1/2).  Outside that region use
    :func:`solve_core`, which stays well posed.
    """
    c1, c4, c6 = float(vector[0]), float(vector[3]), float(vector[5])
    a = 1j * d_vector[0]
    b = 1j * d_vector[3]
    c = 1j * d_vector[5]
    weight = 3.0 * c1 * c1 - 2.0 * c4 * c4 - c6 * c6
    if abs(c1) < 1e-10 or abs(weight) < 1e-10:
        raise ValueError(
            "component formulas are singular here (|C1| at or near 1/2); "
            "use solve_core instead")
    denom = 2.0 * c1 * weight
    w1 = -1j * (a * c4 * c1 + 3.0 * b * c1 * c1 - b * c6 * c6 + c * c4 * c6) / denom
    w2 = -1j * (a * c6 * c1 + 2.0 * b * c4 * c6 + 3.0 * c * c1 * c1
                - 2.0 * c * c4 * c4) / denom
    residue = max(abs(w1.imag), abs(w2.imag))
    if residue > IMAG_RESIDUE_ATOL:
        raise RuntimeError(f"component coefficients not real: residue {residue:.3e}")
    return DrivingCoefficients(w1=float(w1.real), w2=float(w2.real))


@dataclass
class CoefficientTable:
    """Driving coefficients sampled on the branch grid, with cubic interpolation."""

    r_grid: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    bz_tilde: np.ndarray
    residuals: np.ndarray

    @cached_property
    def _columns(self) -> np.ndarray:
        return np.column_stack([self.w1, self.w2, self.bz_tilde])

    @cached_property
    def _spline(self):
        """One cubic spline over the (w1, w2, bz) columns; None for a
        single-point grid, where the coefficients are constant."""
        if len(self.r_grid) < 2 or self.r_grid[-1] == self.r_grid[0]:
            return None
        # imported here: scipy.interpolate is most of `import ffspin.cli`'s time
        from scipy.interpolate import CubicSpline
        return CubicSpline(self.r_grid, self._columns)

    @property
    def r_min(self) -> float:
        return float(self.r_grid[0])

    @property
    def r_max(self) -> float:
        return float(self.r_grid[-1])

    def __call__(self, r: float | np.ndarray) -> DrivingCoefficients:
        """Interpolated coefficients at r; an array of r gives array fields."""
        if self._spline is None:
            values = np.broadcast_to(self._columns[0], np.shape(r) + (3,))
        else:
            values = self._spline(r)
        return DrivingCoefficients(*np.moveaxis(values, -1, 0))


def coefficient_table(spec: ModelSpec, branch: AdiabaticBranch) -> CoefficientTable:
    """Solve the core system at every branch sample and tabulate the results."""
    sol = solve_core(spec, branch.vectors, branch.d_vectors)
    return CoefficientTable(r_grid=branch.r_grid, w1=sol.coeffs.w1,
                            w2=sol.coeffs.w2, bz_tilde=sol.coeffs.bz_tilde,
                            residuals=sol.residual)
