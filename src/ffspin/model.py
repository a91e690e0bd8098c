"""Model definitions: parameter schedules, bare Hamiltonians, driving operators.

Two clusters are supported:

* ``two_spin``: an XY pair, H0 = J1 x1x2 + J2 y1y2 + (Bz/2)(z1 + z2).
* ``three_spin_kagome``: a triangle with nearest-neighbour bonds (1,2) and
  (2,3) of strength J1, a next-nearest bond (3,1) of strength J2, and a
  uniform z field, H0 = J1 (x1x2 + x2x3) + J2 y3y1 + (Bz/2)(z1 + z2 + z3).

All couplings follow the same linear ramps of a single control parameter R:

    J1 = J0 - R,   J2 = R,   Bz = B0 - R.

The driving (counterdiabatic) term is a symmetric xy exchange.  Its
coefficient normalization differs between the two models on purpose,
matching the closed-form solutions each model admits:

* two_spin: generator (x1y2 + y1x2) / 2, so w1 equals the full magnitude of
  the single off-diagonal driving matrix element (entries -i*w1 / +i*w1);
* three_spin_kagome: generators (x1y2 + y1x2) + (x2y3 + y2x3) for w1 and
  (x3y1 + y3x1) for w2, giving matrix elements of magnitude 2*w1 and 2*w2.

The paper's driving ansatz also has a z field.  Its coefficient is exactly
zero on every branch (``h0`` is real, see ``regularization``), so no field
generator is kept.

``h0`` and H_FF are each one matmul of coefficients with a read-only stack of
five structural terms; the terms commute with the parity P = z1 z2 ... zn,
and ``h0``'s ``parity=+1/-1`` evaluates on that block.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spin_algebra import pair_coupling, pauli_on_site

TWO_SPIN = "two_spin"
THREE_SPIN_KAGOME = "three_spin_kagome"
MODEL_KINDS = (TWO_SPIN, THREE_SPIN_KAGOME)

# d/dR of (J1, J2, Bz) for the fixed linear ramps
SCHEDULE_RATES = (-1.0, 1.0, -1.0)


@dataclass(frozen=True)
class ModelSpec:
    """Which cluster to simulate plus its schedule constants."""

    kind: str
    j0: float = 10.0
    b0: float = 0.0
    r0: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")

    @property
    def n_spins(self) -> int:
        return 2 if self.kind == TWO_SPIN else 3

    @property
    def dim(self) -> int:
        return 2 ** self.n_spins


def schedules(spec: ModelSpec, r: float) -> tuple[float, float, float]:
    """(J1, J2, Bz) at control parameter r."""
    return spec.j0 - r, r, spec.b0 - r


@lru_cache(maxsize=None)
def parity_indices(dim: int, parity: int = 1) -> np.ndarray:
    """z-basis indices of the P = ``parity`` block: the kets with an even
    (P = +1) or odd (P = -1) number of down spins."""
    ix = np.array([i for i in range(dim) if (-1) ** bin(i).count("1") == parity])
    ix.flags.writeable = False
    return ix


@lru_cache(maxsize=None)
def structural_terms(kind: str, parity: int | None = None) -> np.ndarray:
    """(M_j1, M_j2, M_bz, G_w1, G_w2) as one read-only (5, d, d) stack, sliced
    once to the P = ``parity`` block unless ``parity`` is None.  The M's are
    real and the exchange generators G purely imaginary; two spins have no
    w2 bond, so their G_w2 is zero."""
    if parity is not None:
        full = structural_terms(kind, None)
        ix = parity_indices(full.shape[-1], parity)
        terms = np.ascontiguousarray(full[:, ix[:, None], ix])
        terms.flags.writeable = False
        return terms
    n = 2 if kind == TWO_SPIN else 3

    def bonds(a: str, b: str, *pairs: tuple[int, int]) -> np.ndarray:
        return sum(pair_coupling(a, b, i, j, n) for i, j in pairs)

    def xy(*pairs: tuple[int, int]) -> np.ndarray:
        return bonds("x", "y", *pairs) + bonds("y", "x", *pairs)

    z = 0.5 * sum(pauli_on_site("z", site, n) for site in range(1, n + 1))
    if kind == TWO_SPIN:
        terms = [bonds("x", "x", (1, 2)), bonds("y", "y", (1, 2)), z,
                 0.5 * xy((1, 2)), np.zeros_like(z)]
    else:
        terms = [bonds("x", "x", (1, 2), (2, 3)), bonds("y", "y", (3, 1)), z,
                 xy((1, 2), (2, 3)), xy((3, 1))]
    terms = np.stack(terms)
    terms.flags.writeable = False
    return terms


def combine(coefficients, terms: np.ndarray) -> np.ndarray:
    """sum_k coefficients[..., k] * terms[k] as one matmul: (..., k) real
    coefficients and a (k, d, d) stack give (..., d, d)."""
    coefficients = np.asarray(coefficients, dtype=float)
    k, d, _ = terms.shape
    flat = coefficients.reshape(-1, k) @ terms.reshape(k, d * d)
    return flat.reshape(coefficients.shape[:-1] + (d, d))


def h0(spec: ModelSpec, r: float | np.ndarray,
       parity: int | None = None) -> np.ndarray:
    """Bare Hamiltonian at control parameter r, real symmetric float64 (xx, yy
    and z are real in the z basis; only the driving generators are not).

    An array of r gives the stack of matrices, shape ``r.shape + (d, d)``;
    with ``parity`` the matrices are that parity block.
    """
    j1, j2, bz = schedules(spec, np.asarray(r, dtype=float))
    return combine(np.stack([j1, j2, bz], axis=-1),
                   structural_terms(spec.kind, parity)[:3].real)


def d_h0_dr(spec: ModelSpec, parity: int | None = None) -> np.ndarray:
    """Exact derivative of h0 with respect to r (r-independent: linear ramps)."""
    return combine(SCHEDULE_RATES, structural_terms(spec.kind, parity)[:3].real)
