"""Exact diagonalization and adiabatic-branch tracking in the branch sector.

The bare Hamiltonian and every driving generator commute with the parity
P = z1 z2 ... zn and with the site reversal (``model``), so they leave the
branch sector invariant: the P = +1 states symmetric under the reversal,
spanned by the columns of ``sector_basis(kind, "branch")``.
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
Vectors and their R derivatives are returned as their k sector components,
in the column order of ``sector_basis``; U c gives the full-space vector.

dC/dR is the first-order resolvent sum over the other levels of the sector,
and d^2C/dR^2 the second-order one, from the same eigenpairs.  An in-sector
near-degeneracy of the tracked level makes those sums singular and raises,
naming the R where it happens.

Every function accepts stacks (``eigensolve`` an (..., d, d) array; the
others arrays of R), so a run calls each once, not per R.  Every sector
block of both models is real and at most 3 x 3, and ``eigensolve`` takes
only such stacks, solved in vectorized closed form: 2 x 2 by a rotation,
3 x 3 by trigonometric levels and cross-product vectors.  A 3 x 3 solve is
checked for its residual, orthonormality and level order; a 2 x 2 solve
only for its residual, since its rotation is orthonormal and its levels
ascend by construction.  A matrix that fails a check (a degenerate 3 x 3
pair, say) goes to LAPACK ``eigh`` on its own; a default run of either
model makes no LAPACK call.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .model import ModelSpec, d_h0_dr, h0

HERMITICITY_ATOL = 1e-12
EIG_RESIDUAL_ATOL = 1e-10
#: an in-sector gap below this fraction of the block's spectral scale counts
#: as a crossing of the tracked level
SECTOR_GAP_RTOL = 1e-3
MIN_CONTINUITY_OVERLAP = 0.99


def eigensolve(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a real symmetric
    (..., d, d) stack with d <= 3, like every sector block of both models.

    The stack gives (..., d) eigenvalues and (..., d, d) vectors.  A 1 x 1
    matrix is its own level, exactly, and a 0 x 0 one has none.  A 2 x 2
    stack is solved by ``_eigh_2x2``, a 3 x 3 one by ``_eigenvectors_3x3``
    with the Rayleigh quotients v^T h v as the levels.  A 3 x 3 matrix that
    fails the residual or orthonormality check, or whose levels are not
    ascending (a NaN fails all three), is solved again on its own by
    ``np.linalg.eigh`` and checked again for its residual and
    orthonormality; so is a 2 x 2 matrix that fails the residual check (a
    NaN or overflowed level does), the only check it can fail: its vectors
    are an exact rotation and its levels m -/+ r with r >= 0 (see
    ``_eigh_2x2``).  Raises ValueError for complex
    input, for d > 3 and if a matrix is not Hermitian, and RuntimeError if a
    re-solved matrix fails its residual check, scaled per matrix, or its
    orthonormality check.
    """
    d = h.shape[-1]
    if h.dtype.kind == "c" or d > 3:
        raise ValueError("eigensolve takes real (..., d, d) stacks with d <= 3, "
                         f"got {h.dtype} of shape {h.shape}")
    deviation = float(np.max(np.abs(h - h.swapaxes(-1, -2)), initial=0.0))
    if not deviation < HERMITICITY_ATOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {deviation:.3e})")
    if d <= 1:  # exact: the Hermiticity check has rejected NaN and inf
        return np.diagonal(h, 0, -2, -1).astype(float), np.ones(h.shape)
    stack = h.shape[:-2]
    h = h.reshape((prod(stack), d, d))
    w, v = _eigh_2x2(h) if d == 2 else (None, _eigenvectors_3x3(h))
    w, residual, bound = _residual(h, w, v)
    checks = [residual <= bound]  # NaN fails
    if d == 3:  # a 2 x 2 solve is a rotation with ascending levels by construction
        checks += [_orthonormality(v) <= EIG_RESIDUAL_ATOL, w[:, 1:] >= w[:, :-1]]
    # per matrix only when some check fails: short reductions are slow
    if not all(map(np.all, checks)):
        redo = ~np.all([np.all(c.reshape(len(h), -1), axis=1) for c in checks], axis=0)
        w[redo], v[redo] = np.linalg.eigh(h[redo])
        _, residual, bound = _residual(h[redo], w[redo], v[redo])
        if not np.all(residual <= bound):  # NaN fails too
            raise RuntimeError(
                f"eigensolve residual {np.max(residual):.3e} exceeds tolerance")
        ortho = _orthonormality(v[redo])
        if not np.all(ortho <= EIG_RESIDUAL_ATOL):
            raise RuntimeError(f"eigenvectors not orthonormal to {np.max(ortho):.3e}")
    return w.reshape(stack + (d,)), v.reshape(stack + (d, d))


def _residual(h: np.ndarray, w: np.ndarray | None, v: np.ndarray):
    """The levels and the residual check of a real (n, d, d) stack's
    decomposition, d >= 2: w, or the Rayleigh quotients v^T h v of a d = 3
    stack when w is None; the residual |h v - v w| and its bound
    ``EIG_RESIDUAL_ATOL`` max(|w|, 1) per matrix (w ascending)."""
    hv = h @ v
    if w is None:
        w = v[:, 0] * hv[:, 0] + v[:, 1] * hv[:, 1] + v[:, 2] * hv[:, 2]
    residual = np.abs(hv - v * w[:, None, :])
    scale = np.maximum(np.maximum(-w[:, 0], w[:, -1]), 1.0)
    return w, residual, (EIG_RESIDUAL_ATOL * scale)[:, None, None]


def _orthonormality(v: np.ndarray) -> np.ndarray:
    """|v^T v - I| of an (n, d, d) stack of vector columns."""
    # a contiguous transpose keeps the stacked matmul off numpy's strided path
    return np.abs(np.ascontiguousarray(v.swapaxes(-1, -2)) @ v - np.eye(v.shape[-1]))


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

    So the vectors are [[c, -s], [s, c]] with (c, s) = (x, y) / hypot(x, y),
    where max(|x|, |y|) >= 1: v^T v has off-diagonal entries cs - sc, which
    round to 0 (or to the rounding error of cs, under a fused multiply-add),
    and a diagonal within a few ulp of 1.  The levels m - r <= m + r ascend
    for every r >= 0; a NaN level fails ``eigensolve``'s residual check.
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
    w = np.empty(r.shape + (2,), r.dtype)
    np.subtract(mean, r, out=w[..., 0])
    np.add(mean, r, out=w[..., 1])
    v = np.empty(h.shape, c.dtype)
    v[..., 0, 0], v[..., 1, 0], v[..., 1, 1] = c, s, c
    np.negative(s, out=v[..., 0, 1])
    return w, v


#: the angles 2 pi / 3, 4 pi / 3 and 0 that order the trigonometric levels
_THIRDS = np.array([[2.0], [4.0], [0.0]]) * (np.pi / 3.0)


def _eigenvectors_3x3(h: np.ndarray) -> np.ndarray:
    """Closed-form eigenvectors of a real symmetric (n, 3, 3) stack, in the
    columns of an (n, 3, 3) array, ordered by ascending level.

    The matrix is scaled by its largest entry, so nothing overflows, and its
    levels are m + 2 p cos(phi + 2 pi k / 3), with m the mean of the
    diagonal, p^2 = |h - m|_F^2 / 6 and cos(3 phi) = det(h - m) / (2 p^3)
    (Smith, CACM 4, 168 (1961)).  Each level's vector is the cross product
    of two rows of h - lambda, the largest of the three pairs (Kopp, Int. J.
    Mod. Phys. C 19, 523 (2008)).  A multiple of the identity, or a
    degenerate pair, gives zero or equal vectors: they fail
    ``eigensolve``'s orthonormality check, which re-solves them.  Every
    step is one operation on per-entry arrays, (n,) or (3 levels, n), so
    the fixed cost of a call stays small.
    """
    s = np.abs(h).max(axis=(1, 2))
    h = h / np.where(s > 0.0, s, 1.0)[:, None, None]
    a, b, c = h[:, 0, 0], h[:, 1, 1], h[:, 2, 2]
    d, e, f = h[:, 0, 1], h[:, 1, 2], h[:, 0, 2]
    m = (a + b + c) / 3.0
    a, b, c = a - m, b - m, c - m
    de, df, ef, dd, ee, ff = d * e, d * f, e * f, d * d, e * e, f * f
    p2 = (a * a + b * b + c * c + 2.0 * (dd + ee + ff)) / 6.0
    p = np.sqrt(p2)
    det = a * (b * c - ee) - d * (d * c - ef) + f * (de - b * f)
    unit = 2.0 * p * p2
    cos3 = np.minimum(np.maximum(det / np.where(unit > 0.0, unit, 1.0), -1.0), 1.0)
    # the levels less m, and the diagonal of h - lambda, per level: (3, n)
    mu = (2.0 * p) * np.cos(np.arccos(cos3) / 3.0 + _THIRDS)
    a, b, c = a - mu, b - mu, c - mu
    fb, ae, dc = f * b, a * e, d * c
    # (component, level, n): the cross products of the rows (a, d, f),
    # (d, b, e) and (f, e, c) of h - lambda
    x = np.array([de - fb, df - ae, a * b - dd])      # rows 0 x 1
    y = np.array([dc - ef, ff - a * c, ae - df])      # rows 0 x 2
    z = np.array([b * c - ee, ef - dc, de - b * f])   # rows 1 x 2
    size = (x * x).sum(axis=0)
    for other in (y, z):
        other_size = (other * other).sum(axis=0)
        larger = other_size > size
        x = np.where(larger, other, x)
        size = np.where(larger, other_size, size)
    x /= np.sqrt(np.where(size > 0.0, size, 1.0))
    return np.ascontiguousarray(x.transpose(2, 0, 1))


def fix_gauge(vector: np.ndarray) -> np.ndarray:
    """Sign a real eigenvector so that its largest-magnitude component is
    positive; an (..., d) stack is signed row by row.  The largest is
    ``np.argmax``'s: the first of equal magnitudes, or the first NaN, found
    by d - 1 elementwise compares, which for d <= 3 cost less than argmax."""
    v = np.asarray(vector, dtype=float)
    size = np.abs(v)
    largest, top = v[..., 0], size[..., 0]
    for i in range(1, v.shape[-1]):
        # a NaN top stays; a larger or NaN component replaces any other
        later = ~(size[..., i] <= top) & (top == top)
        largest = np.where(later, v[..., i], largest)
        top = np.where(later, size[..., i], top)
    return np.where((largest < 0.0)[..., None], -v, v)


def _in_sector_crossing(where: str) -> RuntimeError:
    return RuntimeError(
        f"in-sector crossing of the tracked level {where}: the adiabatic branch "
        "is not defined there; change b0 or j0")


@dataclass(frozen=True, eq=False)
class AdiabaticBranch:
    """Gauge-fixed eigenvector family C(R) of ``spec``, energies, dC/dR and d^2C/dR^2."""

    spec: ModelSpec
    r_grid: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray      # shape (n_samples, k), branch sector components, real
    d_vectors: np.ndarray    # shape (n_samples, k), branch sector components, real
    d2_vectors: np.ndarray   # d^2C/dR^2, likewise


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
    others, dh = v[:, :, 1:], d_h0_dr(spec, "branch")

    def resolvent(x: np.ndarray) -> np.ndarray:
        """sum_i v_i <v_i|x> / (E0 - E_i) over the other levels i of the
        sector: <v_i|x> by one batched matmul."""
        return np.einsum("nij,nj->ni", others,
                         (x[:, None, :] @ others)[:, 0] / (w[:, :1] - w[:, 1:]))

    # with D = dh0/dR (h0 is linear in R) and E0' = <C|D|C>: C' is the
    # resolvent of D C, and C'' = 2 resolvent((D - E0') C') - |C'|^2 C
    dc = vectors @ dh.T
    d = resolvent(dc)
    d_energy = np.sum(vectors * dc, axis=1)[:, None]
    d2 = 2.0 * resolvent(d @ dh.T - d_energy * d) - np.sum(d * d, axis=1)[:, None] * vectors
    return AdiabaticBranch(spec, r_grid, energies=w[:, 0], vectors=vectors,
                           d_vectors=d, d2_vectors=d2)


def branch_vector_at(spec: ModelSpec, r: float | np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Branch eigenvector (its branch sector components, signed by
    ``fix_gauge``) and the ascending sector levels at r, from a fresh solve of
    the sector; ``levels[..., 0]`` is the branch energy.  An array of r gives
    (..., k) vectors and levels."""
    w, v = eigensolve(h0(spec, r, "branch"))
    return fix_gauge(v[..., 0]), w
