"""Counterdiabatic driving coefficients along the tracked branch.

The paper's driving ansatz is the core linear system

    (w1 G1 + w2 G2 + bz Sz) C(R) = i dC/dR

in real unknowns, with the model's exchange generators G_k (G1 and G2 for
three spins, G1 alone for two) and the z field Sz.  ``h0`` is real, so C and
dC/dR are real; each G is i times a real matrix, and Sz is real.  Split into
real and imaginary parts the system decouples: bz meets only the real part,
whose target Re(i dC/dR) is zero, so bz = 0 exactly (time reversal), and the
exchange couplings solve the real system

    sum_k Im(G_k) C w_k = dC/dR.

``solve_core`` solves it on the branch sector, where the branch lives (2 x 1
for two spins, 3 x 2 for three), for a whole stack of samples in one call,
so ``coefficient_table`` is one call.  It returns the couplings as one array
w with one entry per generator, shape (..., 1) for two spins and (..., 2)
for three.  Each Im(G_k) is real antisymmetric, so Im(G_k) C and dC/dR are
orthogonal to C: in a k-dim sector the system lives on the (k - 1)-dim
tangent space at C, which the models' k - 1 columns Im(G_k) C span unless
they are dependent.  With C appended as a last column the system
[Im(G_1) C ... Im(G_{k-1}) C | C] (w, lambda) = dC/dR is square, and its
inverse gives w, the exact least-squares solution since every other column
is orthogonal to C, and lambda = C . dC/dR, rounding noise.  The matrix is
2 x 2 or 3 x 3, so its inverse is written in closed form, the first
n_generators rows as cofactors over the determinant (the adjugate's first
row for k = 2, cross products of the columns for k = 3), elementwise over
the stack: no run calls LAPACK.  The determinant is 4 sqrt(2) C1 for three
spins and -1 for a unit two-spin C, so only a three-spin sample with C1 = 0
makes it singular, which raises.  The residual |sum_k w_k Im(G_k) C -
dC/dR| is still checked: it sits at numerical noise, and a residual above
tolerance signals a modeling bug, not an approximation to be accepted.  The paper's closed
forms, and the three-unknown ansatz that shows bz = 0, are the test oracles
in ``tests/oracles.py``.

``coefficient_table`` also gives the exact slopes dw/dR.  Differentiating
the square system in R, with lambda = C . dC/dR dropped as rounding noise,
gives the same matrix: [Im(G_1) C ... | C] (dw/dR, dlambda/dR) =
d^2C/dR^2 - sum_k w_k Im(G_k) dC/dR, so the same inverse rows give dw/dR
from the branch's d^2C/dR^2 samples.  ``CoefficientTable`` interpolates w
between the samples, ``table(r)`` being its one evaluation, with the cubic
Hermite interpolant of w and dw/dR, built with numpy when the table is
made, which also converts and checks its fields: no slope system is solved,
and its coefficients and values are those of
``scipy.interpolate.CubicHermiteSpline`` to the bit, so no run loads scipy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, structural_terms
from .spectrum import AdiabaticBranch

#: least-squares residual above this value means the ansatz cannot represent
#: i dC/dR and the computation must stop
ANSATZ_RESIDUAL_LIMIT = 1e-6


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_j x[..., j] y[..., j], broadcast, added in the order of j.  One
    sample and a stack of them get the same bits, which a matmul, taking
    BLAS for a single matrix, does not promise; and on these short axes
    this is several times faster than ``(x * y).sum(-1)``."""
    out = x[..., 0] * y[..., 0]
    for j in range(1, x.shape[-1]):
        out += x[..., j] * y[..., j]
    return out


def _columns(spec: ModelSpec, vector: np.ndarray) -> np.ndarray:
    """The core system's columns Im(G_k) C, as the rows of an (...,
    n_generators, k) array, of (..., k) samples C."""
    generators = structural_terms(spec.kind, "branch")[3:].imag
    return _dot(generators, vector[..., None, None, :])


def _inverse_rows(columns: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """The first n_generators rows of the inverse of the square core matrix
    [Im(G_1) C ... Im(G_{k-1}) C | C], shape (..., n_generators, k), from
    its ``_columns`` and the samples C.

    They are cofactors over the determinant: for k = 2 the adjugate's first
    row (C_1, -C_0), for k = 3, with the columns a, b and C, the cross
    products b x C and C x a.  The determinant is the first of them times
    a.  Raises RuntimeError when a determinant is 0 or not finite."""
    cofactors = np.empty(columns.shape)
    if vector.shape[-1] == 2:
        cofactors[..., 0, 0] = vector[..., 1]
        np.negative(vector[..., 0], out=cofactors[..., 0, 1])
    else:  # every branch sector is 2 x 2 or 3 x 3
        a, b = columns[..., 0, :], columns[..., 1, :]
        for row, (x, y) in enumerate(((b, vector), (vector, a))):
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                np.subtract(x[..., j] * y[..., k], x[..., k] * y[..., j],
                            out=cofactors[..., row, i])
    det = _dot(cofactors[..., 0, :], columns[..., 0, :])
    size = np.abs(det)
    if not np.all((size > 0.0) & (size < np.inf)):  # NaN fails too
        raise RuntimeError("driving ansatz insufficient: the core system's "
                           "columns Im(G_k) C and C are linearly dependent")
    return cofactors / det[..., None, None]


def _solve(spec: ModelSpec, vector: np.ndarray, d_vector: np.ndarray):
    """``solve_core``'s couplings and residuals, and the inverse rows that
    gave them."""
    columns = _columns(spec, vector)
    rows = _inverse_rows(columns, vector)
    w = _dot(rows, d_vector[..., None, :])
    fit = _dot(np.swapaxes(columns, -1, -2), w[..., None, :])
    residual = np.linalg.norm(fit - d_vector, axis=-1)
    if not np.all(residual <= ANSATZ_RESIDUAL_LIMIT):  # NaN fails too
        raise RuntimeError(
            f"driving ansatz insufficient: core residual {np.max(residual):.3e}")
    return w, residual, rows


def solve_core(spec: ModelSpec, vector: np.ndarray,
               d_vector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the core system for a branch sample (C, dC/dR), given as branch
    sector components, in closed form: ``_inverse_rows`` applied to dC/dR.

    (..., k) stacks of samples give couplings w, shape (...,
    n_generators), and residual norms, shape (...).  Raises RuntimeError
    when the columns Im(G_k) C of a sample and C are linearly dependent (a
    determinant that is 0 or not finite), or when a residual exceeds
    ``ANSATZ_RESIDUAL_LIMIT`` or is NaN.
    """
    return _solve(spec, vector, d_vector)[:2]


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Driving couplings w and their slopes dw = dw/dR, each of shape (n,
    n_generators), sampled on the branch grid, with cubic Hermite
    interpolation.  ``spec`` is the model of their branch, which
    ``integrate`` runs.

    A table is a frozen value, complete when it is made: ``r_grid``, ``w``,
    ``dw`` and ``residuals`` are converted to float arrays (a float64 array
    is kept as it is), checked (w 2-d, one row and one residual per r),
    each failure a ValueError naming the field, and the spline is built.  A
    field cannot be reassigned afterwards, so the spline stays its own.
    ``_spline`` holds the cubic Hermite interpolant of the columns of w with
    slopes dw as power-basis coefficients c, shape (4, n_generators, n - 1):
    on [r_i, r_i+1] the couplings are sum_k c[k, :, i] (r - r_i)^(3 - k).
    It is None when every r is r_grid[0], where the couplings are constant;
    a coefficient that overflows, a spacing too fine for dw, is a ValueError
    too."""

    r_grid: np.ndarray
    w: np.ndarray
    dw: np.ndarray
    residuals: np.ndarray
    spec: ModelSpec

    @classmethod
    def zeros(cls, spec: ModelSpec, r_grid: np.ndarray) -> CoefficientTable:
        """The undriven control's table: zero couplings (H_FF = H0), one per
        generator of the model, zero slopes and zero residuals on ``r_grid``."""
        w = np.zeros(np.shape(r_grid) + (spec.n_generators,))
        return cls(r_grid, w, np.zeros_like(w), np.zeros_like(r_grid), spec)

    def __post_init__(self):
        for name in ("r_grid", "w", "dw", "residuals"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        x, y, s = self.r_grid, self.w, self.dw
        if x.ndim != 1 or x.size == 0:
            raise ValueError(f"r_grid must be a non-empty 1-d array, got shape {x.shape}")
        for name, values in (("r_grid", x), ("w", y), ("dw", s)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must contain only finite values")
        if y.ndim != 2:
            raise ValueError(f"w must be a 2-d array (n, n_generators), "
                             f"got shape {y.shape}")
        if y.shape[:1] != x.shape:
            raise ValueError(f"w has shape {y.shape}: one row per r_grid point "
                             f"needs {len(x)} rows")
        if s.shape != y.shape:
            raise ValueError(f"dw has shape {s.shape}, w has {y.shape}")
        if self.residuals.shape != x.shape:
            raise ValueError(f"residuals has shape {self.residuals.shape}: one per "
                             f"r_grid point needs shape {x.shape}")
        object.__setattr__(self, "_spline", None)
        if np.all(x == x[0]):
            return
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("r_grid must be strictly increasing")
        dx_col = dx[:, None]
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            slope = np.diff(y, axis=0) / dx_col
            # scipy's CubicHermiteSpline coefficients, in its operation order
            t = (s[:-1] + s[1:] - 2 * slope) / dx_col
            c = np.stack([t / dx_col, (slope - s[:-1]) / dx_col - t, s[:-1], y[:-1]])
        if not np.all(np.isfinite(c)):
            raise ValueError("the spline coefficients overflow float64: the r_grid "
                             "spacing is too fine for the slopes dw")
        object.__setattr__(self, "_spline", np.ascontiguousarray(c.transpose(0, 2, 1)))

    def __call__(self, r: float | np.ndarray) -> np.ndarray:
        """Interpolated couplings at r, a new array of shape ``np.shape(r) +
        (n_generators,)``; the end pieces extrapolate.  Unless the table is
        constant, its memory is generator-major, as in the spline's own
        layout, so ``table(r).T`` is C-contiguous for a 1-d r."""
        c = self._spline
        if c is None:
            return np.full(np.shape(r) + self.w.shape[1:], self.w[0])
        i = np.searchsorted(self.r_grid[1:-1], r, side="right")
        s = r - self.r_grid[i]
        c = c.take(i, axis=-1)  # a fresh array: its terms are formed in place
        # the sum in scipy's PPoly order, with the powers of s accumulated
        out = np.add(0.0, c[3])
        c[2] *= s
        out += c[2]
        z = s * s
        c[1] *= z
        out += c[1]
        z *= s
        c[0] *= z
        out += c[0]
        # np.moveaxis(out, 0, -1), without its microseconds of Python per call
        return out.transpose(*range(1, out.ndim), 0)


def coefficient_table(branch: AdiabaticBranch) -> CoefficientTable:
    """The core system solved at every sample of the branch, for its model,
    and its R derivative for the slopes dw/dR: the core matrix is inverted
    once, and its rows applied to both right-hand sides.  Making the table
    builds its spline, so a grid too fine for the slopes fails here."""
    spec, d = branch.spec, branch.d_vectors
    w, residuals, rows = _solve(spec, branch.vectors, d)
    # the core system differentiated in R: A (dw, dlambda) = C'' - sum_k w_k
    # Im(G_k) C', whose Im(G_k) C' are the core columns at C'
    b = branch.d2_vectors - _dot(np.swapaxes(_columns(spec, d), -1, -2), w[..., None, :])
    dw = _dot(rows, b[..., None, :])
    return CoefficientTable(branch.r_grid, w, dw, residuals, spec)
