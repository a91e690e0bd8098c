"""Model definitions: parameter schedules, bare Hamiltonians, driving operators.

Two clusters are supported:

* ``two_spin``: an XY pair, H0 = J1 x1x2 + J2 y1y2 + (Bz/2)(z1 + z2).
* ``three_spin_kagome``: a triangle with nearest-neighbour bonds (1,2) and
  (2,3) of strength J1, a next-nearest bond (3,1) of strength J2, and a
  uniform z field, H0 = J1 (x1x2 + x2x3) + J2 y3y1 + (Bz/2)(z1 + z2 + z3).

Kets are ordered by binary counting with site 1 as the most significant bit
and spin-up mapped to 0: uu, ud, du, dd for two spins and uuu, uud, udu,
udd, duu, dud, ddu, ddd for three.

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

``TERM_WORDS`` is the model: its three H0 terms, then its own generators,
each a scaled sum of Pauli words whose length is the number of sites.
``h0`` and H_FF are each one matmul of coefficients with a read-only stack of
these structural terms; the terms commute with the parity P = z1 z2 ... zn,
and ``h0``'s ``parity=+1/-1`` evaluates on that block.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

TWO_SPIN = "two_spin"
THREE_SPIN_KAGOME = "three_spin_kagome"

# d/dR of (J1, J2, Bz) for the fixed linear ramps
SCHEDULE_RATES = (-1.0, 1.0, -1.0)

PAULI = {
    "1": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
#: (scale, Pauli words) of M_j1, M_j2, M_bz, then of the model's generators
#: G_w1, ...; letter i of a word acts on site i and "1" is the identity
TERM_WORDS = {
    TWO_SPIN: ((1, "xx"), (1, "yy"), (0.5, "z1 1z"), (0.5, "xy yx")),
    THREE_SPIN_KAGOME: ((1, "xx1 1xx"), (1, "y1y"), (0.5, "z11 1z1 11z"),
                        (1, "xy1 yx1 1xy 1yx"), (1, "x1y y1x")),
}
MODEL_KINDS = tuple(TERM_WORDS)


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
        return len(TERM_WORDS[self.kind][0][1].split()[0])  # the word length

    @property
    def dim(self) -> int:
        return 2 ** self.n_spins

    @property
    def n_generators(self) -> int:
        """Driving generators, the terms after the three of H0: the length of w."""
        return len(TERM_WORDS[self.kind]) - 3


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


def pauli_word(word: str) -> np.ndarray:
    """Kronecker product of the Pauli matrices named by ``word``, site 1 first."""
    return reduce(np.kron, (PAULI[letter] for letter in word))


@lru_cache(maxsize=None)
def structural_terms(kind: str, parity: int | None = None) -> np.ndarray:
    """The terms of ``TERM_WORDS[kind]`` (M_j1, M_j2, M_bz, G_w1, ...) as one
    read-only (k, d, d) stack, sliced once to the P = ``parity`` block unless
    ``parity`` is None.  The M's are real and the exchange generators G
    purely imaginary."""
    if parity is not None:
        full = structural_terms(kind, None)
        ix = parity_indices(full.shape[-1], parity)
        terms = np.ascontiguousarray(full[:, ix[:, None], ix])
        terms.flags.writeable = False
        return terms
    terms = np.stack([scale * sum(map(pauli_word, words.split()))
                      for scale, words in TERM_WORDS[kind]])
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
