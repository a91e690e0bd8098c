"""Model definitions: parameter schedules, bare Hamiltonians, driving operators.

Two clusters are supported:

* ``two_spin``: an XY pair, H0 = J1 x1x2 + J2 y1y2 + (Bz/2)(z1 + z2).
* ``three_spin_kagome``: a triangle with nearest-neighbour bonds (1,2) and
  (2,3) of strength J1, a next-nearest bond (3,1) of strength J2, and a
  uniform z field, H0 = J1 (x1x2 + x2x3) + J2 y3y1 + (Bz/2)(z1 + z2 + z3).

All couplings follow the same linear ramps of a single control parameter R:

    J1 = J0 - R,   J2 = R,   Bz = B0 - R.

The driving (counterdiabatic) candidate is a symmetric xy exchange plus a
z field.  Its coefficient normalization differs between the two models on
purpose, matching the closed-form solutions each model admits:

* two_spin: generator (x1y2 + y1x2) / 2, so w1 equals the full magnitude of
  the single off-diagonal driving matrix element (entries -i*w1 / +i*w1);
* three_spin_kagome: generators (x1y2 + y1x2) + (x2y3 + y2x3) for w1 and
  (x3y1 + y3x1) for w2, giving matrix elements of magnitude 2*w1 and 2*w2.
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


@dataclass(frozen=True)
class DrivingCoefficients:
    """Driving-term coefficients: w1 (and w2 for three spins) plus a z field.

    Each field is a float, or an array of one common shape when a
    :class:`~ffspin.regularization.CoefficientTable` is evaluated on an array.
    """

    w1: float
    w2: float = 0.0
    bz_tilde: float = 0.0


def schedules(spec: ModelSpec, r: float) -> tuple[float, float, float]:
    """(J1, J2, Bz) at control parameter r."""
    return spec.j0 - r, r, spec.b0 - r


@lru_cache(maxsize=None)
def _h0_terms(kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Structural matrices (M_j1, M_j2, M_bz) with h0 = J1 M_j1 + J2 M_j2 + Bz M_bz."""
    if kind == TWO_SPIN:
        m_j1 = pair_coupling("x", "x", 1, 2, 2)
        m_j2 = pair_coupling("y", "y", 1, 2, 2)
        m_bz = 0.5 * (pauli_on_site("z", 1, 2) + pauli_on_site("z", 2, 2))
    else:
        m_j1 = pair_coupling("x", "x", 1, 2, 3) + pair_coupling("x", "x", 2, 3, 3)
        m_j2 = pair_coupling("y", "y", 3, 1, 3)
        m_bz = 0.5 * (pauli_on_site("z", 1, 3) + pauli_on_site("z", 2, 3)
                      + pauli_on_site("z", 3, 3))
    for m in (m_j1, m_j2, m_bz):
        m.flags.writeable = False
    return m_j1, m_j2, m_bz


@lru_cache(maxsize=None)
def _driving_terms(kind: str) -> np.ndarray:
    """Generators (G_w1, G_w2, G_bz) stacked as a (3, dim, dim) array."""
    if kind == TWO_SPIN:
        g1 = 0.5 * (pair_coupling("x", "y", 1, 2, 2) + pair_coupling("y", "x", 1, 2, 2))
        g2 = np.zeros((4, 4), dtype=complex)
        g3 = 0.5 * (pauli_on_site("z", 1, 2) + pauli_on_site("z", 2, 2))
    else:
        g1 = (pair_coupling("x", "y", 1, 2, 3) + pair_coupling("y", "x", 1, 2, 3)
              + pair_coupling("x", "y", 2, 3, 3) + pair_coupling("y", "x", 2, 3, 3))
        g2 = pair_coupling("x", "y", 3, 1, 3) + pair_coupling("y", "x", 3, 1, 3)
        g3 = 0.5 * (pauli_on_site("z", 1, 3) + pauli_on_site("z", 2, 3)
                    + pauli_on_site("z", 3, 3))
    gens = np.stack([g1, g2, g3])
    gens.flags.writeable = False
    return gens


def h0(spec: ModelSpec, r: float | np.ndarray) -> np.ndarray:
    """Bare Hamiltonian at control parameter r (Hermitian, real entries).

    An array of r gives the stack of matrices, shape ``r.shape + (dim, dim)``.
    """
    m_j1, m_j2, m_bz = _h0_terms(spec.kind)
    j1, j2, bz = schedules(spec, np.asarray(r, dtype=float)[..., None, None])
    return j1 * m_j1 + j2 * m_j2 + bz * m_bz


def d_h0_dr(spec: ModelSpec) -> np.ndarray:
    """Exact derivative of h0 with respect to r (r-independent: linear ramps)."""
    m_j1, m_j2, m_bz = _h0_terms(spec.kind)
    dj1, dj2, dbz = SCHEDULE_RATES
    return dj1 * m_j1 + dj2 * m_j2 + dbz * m_bz


def driving_generators(spec: ModelSpec) -> np.ndarray:
    """The three driving generators as a read-only (3, dim, dim) complex array."""
    return _driving_terms(spec.kind)


def h_candidate(spec: ModelSpec, coeffs: DrivingCoefficients) -> np.ndarray:
    """Driving operator w1*G1 + w2*G2 + bz_tilde*G3 (Hermitian).

    Coefficients holding arrays give the stack of operators.
    """
    gens = _driving_terms(spec.kind)
    w1, w2, bz = (np.asarray(w, dtype=float)[..., None, None]
                  for w in (coeffs.w1, coeffs.w2, coeffs.bz_tilde))
    return w1 * gens[0] + w2 * gens[1] + bz * gens[2]
