"""Dense Pauli tensor-product algebra on small spin Hilbert spaces.

Operators are assembled by Kronecker products in one fixed ket ordering:
binary counting with site 1 as the most significant bit and spin-up mapped
to 0, so for two spins the kets read

    uu, ud, du, dd

and for three spins

    uuu, uud, udu, udd, duu, dud, ddu, ddd.

Everything is a plain complex128 ndarray; dimensions here are 4 or 8, so
dense storage is used throughout.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

HERMITICITY_ATOL = 1e-12

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_ID2 = np.eye(2, dtype=complex)


@lru_cache(maxsize=None)
def _single_site(axis: str, site: int, n_spins: int) -> np.ndarray:
    if axis not in PAULI:
        raise ValueError(f"axis must be one of {sorted(PAULI)}, got {axis!r}")
    if not 1 <= site <= n_spins:
        raise ValueError(f"site must be in 1..{n_spins}, got {site}")
    m = np.array([[1.0 + 0.0j]])
    for s in range(1, n_spins + 1):
        m = np.kron(m, PAULI[axis] if s == site else _ID2)
    m.flags.writeable = False
    return m


def pauli_on_site(axis: str, site: int, n_spins: int) -> np.ndarray:
    """Pauli operator on one site of an n-spin system, as a 2**n square matrix.

    ``site`` is 1-based.  The result is Hermitian and squares to the identity.
    """
    return _single_site(axis, site, n_spins).copy()


def pair_coupling(axis_i: str, axis_j: str, i: int, j: int,
                  n_spins: int) -> np.ndarray:
    """Product sigma_i^a sigma_j^b of Pauli operators on two distinct sites."""
    if i == j:
        raise ValueError(f"pair_coupling requires distinct sites, got i == j == {i}")
    return _single_site(axis_i, i, n_spins) @ _single_site(axis_j, j, n_spins)


def is_hermitian(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> bool:
    """True if the matrix, or every matrix of an (..., d, d) stack, is Hermitian."""
    return bool(np.max(np.abs(m - m.conj().swapaxes(-1, -2))) < atol)


def require_hermitian(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    if not is_hermitian(m, atol):
        dev = float(np.max(np.abs(m - m.conj().swapaxes(-1, -2))))
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return m
