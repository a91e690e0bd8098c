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
these structural terms.

The symmetries come from the same table.  Every term commutes with the
parity P = z1 z2 ... zn, and with the site reversal i <-> n + 1 - i, since
reversing every word maps each term's word set onto itself: the swap for two
spins, the site 1 <-> 3 reflection for the Kagome triangle.  The
reversal pairs each ket with the ket of reversed bits, of the same parity,
which splits each parity block into the reversal-even sums and the
reversal-odd contrasts of those pairs.  Every term leaves the four blocks
invariant (``SECTORS``):

* ``"branch"``: the P = +1 sums, where the tracked branch lives.  Two
  spins: uu and dd, the whole P = +1 block.  Three spins: uuu,
  (udd + ddu)/sqrt(2) and dud, the paper's C1, C4 and C6 with
  C1^2 + 2 C4^2 + C6^2 = 1;
* ``"rest"``: the P = +1 contrasts.  Empty for two spins; (udd - ddu)/sqrt(2)
  for three;
* ``"odd"``: the P = -1 sums.  Two spins: (ud + du)/sqrt(2), level
  J1 + J2.  Three spins: (uud + duu)/sqrt(2), udu and ddd;
* ``"odd_rest"``: the P = -1 contrasts.  Two spins: (ud - du)/sqrt(2), level
  -(J1 + J2).  Three spins: (uud - duu)/sqrt(2).

So every block of both models is at most 3 x 3.  ``sector_basis`` gives
each as a real isometry U (dim x k), and ``structural_terms``, ``h0`` and
``d_h0_dr`` evaluate on a block as U^T T U, summed with the integer pair
weights and scaled once, so that the sector terms are exact or correctly
rounded (exact when U's columns are columns of the identity, as in the
two-spin branch sector).  The real and imaginary parts of the terms are
summed apart, so no run makes a complex matmul.
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
#: the invariant blocks, as the ``sector`` of ``sector_basis`` and the
#: structural terms, each with its parity and whether it holds the sums of the
#: site-reversal pairs (else their contrasts)
_SECTOR_PARTS = {"branch": (1, True), "rest": (1, False),
                 "odd": (-1, True), "odd_rest": (-1, False)}
SECTORS = tuple(_SECTOR_PARTS)


def _n_spins(kind: str) -> int:
    return len(TERM_WORDS[kind][0][1].split()[0])  # the word length


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
        for name in ("j0", "b0", "r0"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def n_spins(self) -> int:
        return _n_spins(self.kind)

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
def _parity_indices(dim: int, parity: int = 1) -> np.ndarray:
    """z-basis indices of the P = ``parity`` block: the kets with an even
    (P = +1) or odd (P = -1) number of down spins."""
    ix = np.array([i for i in range(dim) if (-1) ** bin(i).count("1") == parity])
    ix.flags.writeable = False
    return ix


def pauli_word(word: str) -> np.ndarray:
    """Kronecker product of the Pauli matrices named by ``word``, site 1 first."""
    return reduce(np.kron, (PAULI[letter] for letter in word))


@lru_cache(maxsize=None)
def _sector_weights(kind: str, sector: str) -> np.ndarray:
    """Integer (dim, k) columns spanning ``sector``, one of ``SECTORS``: the
    columns of ``sector_basis`` before normalization, as a read-only array.

    For each ket i of the sector's parity, in ascending order, let j be the
    ket whose bits are i's reversed.  The sum sectors take e_i + e_j once (e_i
    when j = i), the contrast sectors e_i - e_j when i < j.  Raises
    ValueError when reversing the words does not map the word set of every
    term of ``TERM_WORDS[kind]`` onto itself: the reversal would not commute
    with the terms.
    """
    if sector not in SECTORS:
        raise ValueError(f"sector must be one of {SECTORS}, got {sector!r}")
    for _, words in TERM_WORDS[kind]:
        if {w[::-1] for w in words.split()} != set(words.split()):
            raise ValueError(f"the terms of {kind!r} are not symmetric under "
                             "the site reversal")
    parity, sums = _SECTOR_PARTS[sector]
    n = _n_spins(kind)
    eye = np.eye(2 ** n)
    columns = []
    for i in _parity_indices(2 ** n, parity):
        j = int(format(i, f"0{n}b")[::-1], 2)
        if i < j:
            columns.append(eye[i] + eye[j] if sums else eye[i] - eye[j])
        elif i == j and sums:
            columns.append(eye[i])
    weights = np.array(columns).reshape(-1, 2 ** n).T
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=None)
def sector_basis(kind: str, sector: str) -> np.ndarray:
    """Real isometry U, a read-only (dim, k) array, whose orthonormal columns
    span ``sector``, one of ``SECTORS``: the normalized reversal sums (branch,
    odd) or contrasts (rest, odd_rest) of one parity's kets."""
    weights = _sector_weights(kind, sector)
    u = weights * np.sqrt(1.0 / np.sum(weights ** 2, axis=0))
    u.flags.writeable = False
    return u


@lru_cache(maxsize=None)
def structural_terms(kind: str, sector: str | None = None) -> np.ndarray:
    """The terms of ``TERM_WORDS[kind]`` (M_j1, M_j2, M_bz, G_w1, ...) as one
    read-only (k, d, d) stack, on ``sector`` as U^T T U unless ``sector`` is
    None.  The M's are real and the exchange generators G purely imaginary."""
    if sector is not None:
        full = structural_terms(kind, None)
        weights = _sector_weights(kind, sector)
        # S^T T S sums integers exactly, and one scaling by sqrt(1 / (q_a
        # q_b)), q the columns' squared norms, rounds each entry once:
        # correctly, when q_a q_b is a power of two, and not at all for
        # identity columns, signed zeros included.  The real and imaginary
        # parts go apart: no run makes a complex matmul, whose first call
        # adds 0.25 MB to the process
        q = np.sum(weights ** 2, axis=0)
        scale = np.sqrt(1.0 / np.outer(q, q))
        terms = np.empty(full.shape[:1] + scale.shape, full.dtype)
        terms.real, terms.imag = ((weights.T @ part @ weights) * scale
                                  for part in (full.real, full.imag))
        terms.flags.writeable = False
        return terms
    terms = np.stack([scale * sum(map(pauli_word, words.split()))
                      for scale, words in TERM_WORDS[kind]])
    terms.flags.writeable = False
    return terms


def combine(coefficients, terms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_k coefficients[..., k] * terms[k] as one matmul: (..., k) real
    coefficients and a (k, d, d) stack give (..., d, d), written into ``out``
    (C-contiguous) when it is given."""
    coefficients = np.asarray(coefficients, dtype=float)
    k, d, _ = terms.shape
    if out is None:
        out = np.empty(coefficients.shape[:-1] + (d, d), np.result_type(terms, float))
    flat = coefficients.reshape(-1, k)
    np.matmul(flat, terms.reshape(k, d * d), out=out.reshape(len(flat), d * d))
    return out


def h0(spec: ModelSpec, r: float | np.ndarray,
       sector: str | None = None) -> np.ndarray:
    """Bare Hamiltonian at control parameter r, real symmetric float64 (xx, yy
    and z are real in the z basis; only the driving generators are not).

    An array of r gives the stack of matrices, shape ``r.shape + (d, d)``;
    with ``sector`` the matrices are that block, U^T h0 U.
    """
    r = np.asarray(r, dtype=float)
    coefficients = np.empty(r.shape + (3,))
    coefficients[..., 0], coefficients[..., 1], coefficients[..., 2] = schedules(spec, r)
    return combine(coefficients, structural_terms(spec.kind, sector)[:3].real)


def d_h0_dr(spec: ModelSpec, sector: str | None = None) -> np.ndarray:
    """Exact derivative of h0 with respect to r (r-independent: linear ramps)."""
    return combine(SCHEDULE_RATES, structural_terms(spec.kind, sector)[:3].real)
