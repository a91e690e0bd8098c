"""Exact diagonalization and adiabatic-branch tracking in the branch sector.

The bare Hamiltonian and every driving generator commute with the parity
P = z1 z2 ... zn and with the model's site symmetries (``model``), so they
leave the branch sector invariant: the P = +1 states symmetric under every
site symmetry, spanned by the columns of ``sector_basis(kind, "branch")``.
It is the whole P = +1 block for two spins, uu and dd, and uuu,
(udd + ddu)/sqrt(2) and dud for three.  The tracked branch is the lowest
level of that sector.  Inside it the level is nondegenerate along the
paper's ramps, so it is chosen by index, not by overlap.  The degeneracies of
the full spectrum (at the ramp start, the crossing with a flat odd-parity
level near R = 8 for two spins, and for three spins the crossings with the
reflection-odd level (udd - ddu)/sqrt(2)) all lie between sectors and never
enter the solve: nothing in H_FF couples the sectors.  The sector block of
the real symmetric h0 has real eigenvectors, so the gauge is a sign:
``fix_gauge`` makes the largest component positive, and ``track_branch``
then signs each sample like its predecessor.  ``branch_vector_at`` keeps
the ``fix_gauge`` sign: its vectors feed only sign-blind outputs.
Vectors and dC/dR are returned as their k sector components, in the column
order of ``sector_basis``; U c gives the full-space vector.

dC/dR is the first-order resolvent sum over the other levels of the sector.
An in-sector near-degeneracy of the tracked level makes that sum singular
and raises, naming the R where it happens.

Every function accepts stacks (``eigensolve`` an (..., d, d) array; the
others arrays of R), so a run calls each once, not per R.  ``eigensolve``
solves a real stack with d <= 2, every two-spin block, in vectorized closed
form, and anything larger or complex in one batched LAPACK ``eigh`` call.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .model import ModelSpec, d_h0_dr, h0

HERMITICITY_ATOL = 1e-12
EIG_RESIDUAL_ATOL = 1e-10
#: an in-sector gap below this fraction of the block's spectral scale counts
#: as a crossing of the tracked level
SECTOR_GAP_RTOL = 1e-3
MIN_CONTINUITY_OVERLAP = 0.99


def eigensolve(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    An (..., d, d) stack gives (..., d) eigenvalues and (..., d, d) vectors.
    A real stack with d <= 2 is solved in closed form (``_eigh_2x2``; a 1 x 1
    matrix is its own level, and a 0 x 0 one has none); complex input and
    d >= 3 go to one batched ``np.linalg.eigh`` call.  Raises ValueError if a
    matrix is not Hermitian and RuntimeError if a decomposition fails its own
    residual check, scaled per matrix.
    """
    complex_input = np.iscomplexobj(h)
    ht = h.swapaxes(-1, -2)
    deviation = float(np.max(np.abs(h - (ht.conj() if complex_input else ht)),
                             initial=0.0))
    if not deviation < HERMITICITY_ATOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {deviation:.3e})")
    d = h.shape[-1]
    if complex_input or d > 2:
        w, v = np.linalg.eigh(h)
    elif d == 2:
        w, v = _eigh_2x2(h)
    else:
        w, v = np.diagonal(h, 0, -2, -1).astype(float), np.ones(h.shape)
    scale = np.max(np.abs(w), axis=-1, initial=1.0)
    residual = np.abs(h @ v - v * w[..., None, :])
    residual = residual.reshape(h.shape[:-2] + (d * d,)).max(-1, initial=0.0)
    if not np.all(residual <= EIG_RESIDUAL_ATOL * scale):  # NaN fails too
        raise RuntimeError(
            f"eigensolve residual {np.max(residual):.3e} exceeds tolerance")
    # a contiguous transpose keeps the stacked matmul off numpy's strided path
    vh = v.swapaxes(-1, -2)
    vh = vh.conj() if complex_input else np.ascontiguousarray(vh)
    ortho = float(np.max(np.abs(vh @ v - np.eye(d)), initial=0.0))
    if not ortho <= EIG_RESIDUAL_ATOL:
        raise RuntimeError(f"eigenvectors not orthonormal to {ortho:.3e}")
    return w, v


def _eigh_2x2(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ``eigh`` of a real symmetric (..., 2, 2) stack [[a, b], [b, d]].

    The levels are m -/+ r, with m = (a + d)/2, e = (a - d)/2 and
    r = hypot(e, b).  The lower vector is orthogonal to a row of
    (h - (m - r)) / r, the one whose sum involves no cancellation:
    (1 + e/r, b/r) when e > 0, else (b/r, 1 - e/r), where the sum is in
    [1, 2], so nothing overflows either.  The upper vector is its rotation
    by 90 degrees.  An exact degeneracy (e = b = 0) gives e0 and e1.
    (Kopp, Int. J. Mod. Phys. C 19, 523 (2008), compares such closed forms
    with LAPACK.)
    """
    a, b, d = h[..., 0, 0], h[..., 0, 1], h[..., 1, 1]
    mean, half = 0.5 * a + 0.5 * d, 0.5 * a - 0.5 * d  # halved first: no overflow
    r = np.hypot(half, b)
    unit = np.where(r > 0.0, r, 1.0)
    e, f = half / unit, b / unit
    row_one = e > 0.0
    x = np.where(row_one, -f, 1.0 - e)
    y = np.where(row_one, 1.0 + e, -f)
    norm = np.hypot(x, y)
    c, s = x / norm, y / norm
    w = np.stack([mean - r, mean + r], axis=-1)
    v = np.stack([c, -s, s, c], axis=-1).reshape(h.shape)
    return w, v


def fix_gauge(vector: np.ndarray) -> np.ndarray:
    """Sign a real eigenvector so that its largest-magnitude component is
    positive; an (..., d) stack is signed row by row."""
    v = np.asarray(vector, dtype=float)
    largest = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
    return np.where(largest < 0.0, -v, v)


def _in_sector_crossing(where: str) -> RuntimeError:
    return RuntimeError(
        f"in-sector crossing of the tracked level {where}: the adiabatic branch "
        "is not defined there; change b0 or j0")


@dataclass
class AdiabaticBranch:
    """Gauge-fixed eigenvector family C(R) with energies and dC/dR samples."""

    r_grid: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray      # shape (n_samples, k), branch sector components, real
    d_vectors: np.ndarray    # shape (n_samples, k), branch sector components, real


def track_branch(spec: ModelSpec, r_grid: np.ndarray) -> AdiabaticBranch:
    """Follow level 0 of the branch sector along a monotone ``r_grid``.

    The whole grid is diagonalized in one stacked solve.  The sign of each
    sample follows the previous one.  Raises RuntimeError at the first sample
    where the tracked level meets another level of the sector, or where
    consecutive samples overlap by less than ``MIN_CONTINUITY_OVERLAP``
    (the grid is too coarse); the crossing is reported first.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1 or len(r_grid) < 1:
        raise ValueError("r_grid must be a non-empty 1-d array")
    if not np.all(np.isfinite(r_grid)):
        raise ValueError("r_grid must contain only finite values")
    if np.any(np.diff(r_grid) < 0):
        raise ValueError("r_grid must be monotone non-decreasing")
    w, v = eigensolve(h0(spec, r_grid, "branch"))
    raw = fix_gauge(v[:, :, 0])
    gap = w[:, 1] - w[:, 0]
    crossing = gap < SECTOR_GAP_RTOL * np.maximum(1.0, np.max(np.abs(w), axis=1))
    overlap = np.sum(raw[1:] * raw[:-1], axis=1)
    broken = np.concatenate([[False], np.abs(overlap) < MIN_CONTINUITY_OVERLAP])
    bad = np.flatnonzero(crossing | broken)
    if bad.size:
        k = int(bad[0])
        r = float(r_grid[k])
        if crossing[k]:
            raise _in_sector_crossing(f"at r={r:g} (gap {gap[k]:.3e})")
        if abs(np.vdot(v[k, :, 1], raw[k - 1])) >= MIN_CONTINUITY_OVERLAP:
            raise _in_sector_crossing(f"between r={float(r_grid[k - 1]):g} and r={r:g}")
        raise RuntimeError(
            f"grid too coarse: continuity overlap {abs(overlap[k - 1]):.4f} < "
            f"{MIN_CONTINUITY_OVERLAP} at r={r} (sample {k})")
    # sign each sample like its predecessor: a running product of overlap signs
    vectors = raw * np.cumprod(np.sign(np.concatenate([[1.0], overlap])))[:, None]
    couplings = np.einsum("nji,jk,nk->ni", v[:, :, 1:], d_h0_dr(spec, "branch"),
                          vectors)
    d = np.einsum("nij,nj->ni", v[:, :, 1:], couplings / (w[:, :1] - w[:, 1:]))
    return AdiabaticBranch(r_grid, energies=w[:, 0], vectors=vectors, d_vectors=d)


def branch_vector_at(spec: ModelSpec, r: float | np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Branch eigenvector (its branch sector components, signed by
    ``fix_gauge``) and the ascending sector levels at r, from a fresh solve of
    the sector; ``levels[..., 0]`` is the branch energy.  An array of r gives
    (..., k) vectors and levels."""
    w, v = eigensolve(h0(spec, r, "branch"))
    return fix_gauge(v[..., 0]), w


def nearest_level_gap(levels: np.ndarray, energy: float | np.ndarray):
    """Distance from ``energy`` to the nearest other of ``levels``; row-wise on stacks."""
    dist = np.abs(np.asarray(levels) - np.asarray(energy)[..., None])
    np.put_along_axis(dist, np.argmin(dist, axis=-1)[..., None], np.inf, axis=-1)
    return np.min(dist, axis=-1)
