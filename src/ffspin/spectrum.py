"""Exact diagonalization and adiabatic-branch tracking in the parity-even block.

The bare Hamiltonian and every driving generator commute with the parity
P = z1 z2 ... zn, which is diagonal in the z basis.  The tracked branch is
the lowest level of the P = +1 block: the kets with an even number of down
spins, indices (0, 3) for two spins and (0, 3, 5, 6) for three.  Inside that
block the level is nondegenerate along the paper's ramps, so it is chosen by
index, not by overlap.  The degeneracies of the full spectrum (at the ramp
start, and the crossing with a flat odd-parity level near R = 8 for two
spins) all lie between the two sectors and never enter the solve.  Vectors
and dC/dR are returned embedded in the full space, with the odd-parity
components exactly zero.

dC/dR is the first-order resolvent sum over the other levels of the block.
An in-sector near-degeneracy of the tracked level makes that sum singular
and raises, naming the R where it happens.  A central finite-difference
variant is kept as an independent cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import ModelSpec, d_h0_dr, h0
from .spin_algebra import require_hermitian

EIG_RESIDUAL_ATOL = 1e-10
#: an in-sector gap below this fraction of the block's spectral scale counts
#: as a crossing of the tracked level
SECTOR_GAP_RTOL = 1e-3
DEFAULT_GRID_POINTS = 2001
MIN_CONTINUITY_OVERLAP = 0.99


def eigensolve(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Raises ValueError for non-Hermitian input and RuntimeError if the
    decomposition fails its own residual check.
    """
    require_hermitian(h)
    w, v = np.linalg.eigh(h)
    scale = max(1.0, float(np.max(np.abs(w))))
    residual = float(np.max(np.abs(h @ v - v * w)))
    if residual > EIG_RESIDUAL_ATOL * scale:
        raise RuntimeError(f"eigensolve residual {residual:.3e} exceeds tolerance")
    ortho = float(np.max(np.abs(v.conj().T @ v - np.eye(h.shape[0]))))
    if ortho > EIG_RESIDUAL_ATOL:
        raise RuntimeError(f"eigenvectors not orthonormal to {ortho:.3e}")
    return w, v


def fix_gauge(vector: np.ndarray, reference: np.ndarray | None = None,
              imag_atol: float = 1e-8) -> np.ndarray:
    """Rotate a complex eigenvector onto the real axis and fix its sign.

    The optimal global phase is the half-argument of sum(v_k^2); if no phase
    makes the vector real to ``imag_atol`` the ray is irreducibly complex and
    a ValueError is raised.  With no ``reference`` the sign convention makes
    the largest-magnitude component positive; otherwise the sign is chosen
    for positive overlap with ``reference``.
    """
    v = np.asarray(vector, dtype=complex)
    z = np.sum(v * v)
    if abs(z) < 1e-14:
        raise ValueError("eigenvector ray is irreducibly complex")
    phase = np.exp(-0.5j * np.angle(z))
    real = v * phase
    if float(np.max(np.abs(real.imag))) > imag_atol:
        raise ValueError(
            f"eigenvector has imaginary residue {np.max(np.abs(real.imag)):.3e} "
            "after optimal global phase")
    out = real.real.copy()
    if reference is not None:
        if float(out @ reference) < 0.0:
            out = -out
    elif out[int(np.argmax(np.abs(out)))] < 0.0:
        out = -out
    return out


@lru_cache(maxsize=None)
def parity_even_indices(dim: int) -> np.ndarray:
    """z-basis indices with an even number of down spins (the P = +1 block)."""
    ix = np.array([i for i in range(dim) if bin(i).count("1") % 2 == 0])
    ix.flags.writeable = False
    return ix


def _embed(block_vectors: np.ndarray, dim: int) -> np.ndarray:
    """Place P = +1 block components into the full space, zeros elsewhere."""
    full = np.zeros(block_vectors.shape[:-1] + (dim,))
    full[..., parity_even_indices(dim)] = block_vectors
    return full


def _even_block(spec: ModelSpec, r: float, reference: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigensystem (w, v) of the P = +1 block of h0 at r and its gauge-fixed
    level 0, signed against the block vector ``reference`` when given."""
    ix = parity_even_indices(spec.dim)
    w, v = eigensolve(h0(spec, r)[np.ix_(ix, ix)])
    return w, v, fix_gauge(v[:, 0], reference=reference)


def _in_sector_crossing(where: str) -> RuntimeError:
    return RuntimeError(
        f"in-sector crossing of the tracked level {where}: the adiabatic branch "
        "is not defined there; change b0 or j0")


@dataclass
class AdiabaticBranch:
    """Gauge-fixed eigenvector family C(R) with energies and dC/dR samples."""

    r_grid: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray      # shape (n_samples, dim), real
    d_vectors: np.ndarray    # shape (n_samples, dim), real

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def fd_branch_derivative(spec: ModelSpec, r: float, vector: np.ndarray,
                         step: float = 1e-4, richardson: bool = True) -> np.ndarray:
    """Central finite-difference dC/dR of the block level signed like ``vector``.

    Kept as an independent cross-check of the resolvent derivative; probe
    points may fall slightly outside the tracked R interval, which is fine
    because the Hamiltonian is defined for every R.
    """
    reference = vector[parity_even_indices(spec.dim)]

    def probed(rr: float) -> np.ndarray:
        return _even_block(spec, rr, reference)[2]

    d = (probed(r + step) - probed(r - step)) / (2.0 * step)
    if richardson:
        fine = (probed(r + step / 2.0) - probed(r - step / 2.0)) / step
        d = (4.0 * fine - d) / 3.0
    return _embed(d, spec.dim)


def track_branch(spec: ModelSpec, r_grid: np.ndarray) -> AdiabaticBranch:
    """Follow level 0 of the P = +1 block along a monotone ``r_grid``.

    The sign of each sample follows the previous one.  Raises RuntimeError
    where the tracked level meets another level of the block, and where
    consecutive samples overlap by less than ``MIN_CONTINUITY_OVERLAP``
    (the grid is too coarse).
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1 or len(r_grid) < 1:
        raise ValueError("r_grid must be a non-empty 1-d array")
    if np.any(np.diff(r_grid) < 0):
        raise ValueError("r_grid must be monotone non-decreasing")
    ix = parity_even_indices(spec.dim)
    dh = d_h0_dr(spec)[np.ix_(ix, ix)]
    energies = np.empty(len(r_grid))
    vectors = np.empty((len(r_grid), len(ix)))
    d_vectors = np.empty_like(vectors)
    previous = None
    for k, r in enumerate(r_grid):
        w, v, vec = _even_block(spec, float(r), previous)
        gap = float(w[1] - w[0])
        if gap < SECTOR_GAP_RTOL * max(1.0, float(np.max(np.abs(w)))):
            raise _in_sector_crossing(f"at r={float(r):g} (gap {gap:.3e})")
        if previous is not None:
            overlap = abs(float(vec @ previous))
            if overlap < MIN_CONTINUITY_OVERLAP:
                if abs(np.vdot(v[:, 1], previous)) >= MIN_CONTINUITY_OVERLAP:
                    raise _in_sector_crossing(
                        f"between r={float(r_grid[k - 1]):g} and r={float(r):g}")
                raise RuntimeError(
                    f"grid too coarse: continuity overlap {overlap:.4f} < "
                    f"{MIN_CONTINUITY_OVERLAP} at r={float(r)} (sample {k})")
        couplings = v[:, 1:].conj().T @ (dh @ vec)
        d = v[:, 1:] @ (couplings / (w[0] - w[1:]))
        if float(np.max(np.abs(d.imag))) > 1e-9:
            raise RuntimeError("branch derivative acquired an imaginary part")
        energies[k] = w[0]
        vectors[k] = vec
        d_vectors[k] = d.real
        previous = vec
    return AdiabaticBranch(r_grid=r_grid, energies=energies,
                           vectors=_embed(vectors, spec.dim),
                           d_vectors=_embed(d_vectors, spec.dim))


def default_r_grid(spec: ModelSpec, r_end: float,
                   n_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Uniform R grid from the schedule start to ``r_end``."""
    return np.linspace(spec.r0, r_end, n_points)


def branch_vector_at(spec: ModelSpec, branch: AdiabaticBranch,
                     r: float) -> tuple[np.ndarray, float]:
    """Exact branch eigenvector and energy at an arbitrary r inside the grid.

    A fresh solve of the P = +1 block at r; the sign follows the nearest
    tracked sample.
    """
    nearest = int(np.argmin(np.abs(branch.r_grid - r)))
    reference = branch.vectors[nearest, parity_even_indices(spec.dim)]
    w, _, vec = _even_block(spec, r, reference)
    return _embed(vec, spec.dim), float(w[0])


def nearest_level_gap(levels: np.ndarray, energy: float) -> float:
    """Distance from ``energy`` to the nearest of ``levels`` other than its own."""
    own = int(np.argmin(np.abs(levels - energy)))
    return float(np.min(np.abs(np.delete(levels, own) - energy)))


def gap_report(branch: AdiabaticBranch, spec: ModelSpec) -> np.ndarray:
    """Per-sample distance from the branch energy to the nearest other level
    of the full spectrum."""
    return np.array([nearest_level_gap(eigensolve(h0(spec, float(r)))[0], e)
                     for r, e in zip(branch.r_grid, branch.energies)])
