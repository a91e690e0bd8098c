"""Independent references that the tests compare the pipeline against.

None of these is called by the pipeline:

* the paper's printed closed forms for the driving coefficients (two-spin
  formula, three-spin component formulas);
* the paper's full driving ansatz (w1 G1 + w2 G2 + bz Sz) C = i dC/dR in all
  its real unknowns, field included, solved per sample by ``lstsq``.  It
  shows that the field coefficient vanishes, which is what lets
  ``solve_core`` fit the exchange couplings alone;
* the square core system [Im(G_1) C ... | C] x = b solved exactly, in
  rationals, from the doubles of the generators, C and b;
* the fast-forward Hamiltonian H0(R(t)) + v(t) sum_k w_k(R(t)) G_k, written
  from its definition;
* the RK4 step increments P - I of the plain RK4 stages, in extended
  precision;
* the driving candidate operator with a field term, and the distance from
  the branch energy to the nearest level of the full spectrum;
* Pauli operators built by acting on ket labels, and from them the
  structural terms summed over the bonds that the model docstring names;
* the site reversal (site i <-> site n + 1 - i) as a matrix that acts on ket
  labels, the symmetry the model table should yield for both clusters.

Branch samples are branch sector components, as the pipeline returns them;
the full-space oracles place them in the full space with :func:`embed`.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np

from ffspin.fastforward import FastForwardProfile, r_of_t, v_of_t
from ffspin.model import (SCHEDULE_RATES, TWO_SPIN, ModelSpec, combine, h0,
                          schedules, sector_basis, structural_terms)
from ffspin.regularization import CoefficientTable
from ffspin.spectrum import AdiabaticBranch

IMAG_RESIDUE_ATOL = 1e-10
#: expected noise ceiling for the core least-squares residual when everything
#: is healthy
RESIDUAL_NOISE_ATOL = 1e-8
#: position in ``structural_terms`` of the field Sz = M_bz; the exchange
#: generators follow it
FIELD_TERM = 2


def embed(sector_vectors: np.ndarray, kind: str) -> np.ndarray:
    """U c: the (..., dim) full-space vectors of branch sector components."""
    return np.asarray(sector_vectors) @ sector_basis(kind, "branch").T


def closed_form_w(bz: float, j1: float, j2: float,
                  dbz: float, dj1: float, dj2: float) -> float:
    """Two-spin closed-form coefficient for arbitrary schedule rates."""
    denom = 2.0 * (bz * bz + (j1 - j2) ** 2)
    if denom < 1e-12:
        raise ValueError("closed form is singular: Bz^2 + (J1-J2)^2 vanishes")
    return (bz * (dj1 - dj2) + dbz * (j2 - j1)) / denom


def closed_form_two_spin(spec: ModelSpec, r: float) -> float:
    """Closed-form driving coefficient w1 of the two-spin model at parameter r."""
    if spec.kind != TWO_SPIN:
        raise ValueError("closed form applies to the two-spin model only")
    j1, j2, bz = schedules(spec, r)
    dj1, dj2, dbz = SCHEDULE_RATES
    return closed_form_w(bz, j1, j2, dbz, dj1, dj2)


def component_form_three_spin(vector: np.ndarray, d_vector: np.ndarray) -> np.ndarray:
    """(w1, w2) from the three-spin component formulas in (C1, C4, C6) and
    their derivatives, the full-space kets uuu, udd and dud (positions 0, 3
    and 5 of :func:`embed`'s vectors; C7 = C4 is not read).

    Precondition: |C1| > 1e-10 and |3 C1^2 - 2 C4^2 - C6^2| > 1e-10 (by the
    branch normalization the latter equals |4 C1^2 - 1|, so the formulas
    break down where |C1| crosses 1/2).  Outside that region use
    ``solve_core``, which stays well posed.
    """
    c1, c4, c6 = (float(x) for x in vector[[0, 3, 5]])
    a, b, c = 1j * d_vector[[0, 3, 5]]
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
    return np.array([w1.real, w2.real])


def full_ansatz_solve(spec: ModelSpec, vector: np.ndarray,
                      d_vector: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(w, bz, residual) of the paper's complex ansatz at one sample, solved
    in the full space: the couplings w of the model's exchange generators
    (w1 alone for two spins, which have no w2 bond), the field coefficient
    and the residual norm.

    All real unknowns are fitted together, by ``lstsq`` on the stacked real
    and imaginary parts.
    """
    a = structural_terms(spec.kind)[FIELD_TERM:] @ embed(vector, spec.kind)
    target = 1j * embed(d_vector, spec.kind)
    a_real = np.concatenate([a.real, a.imag], axis=-1).T
    b_real = np.concatenate([target.real, target.imag])
    x = np.linalg.lstsq(a_real, b_real, rcond=None)[0]
    residual = float(np.linalg.norm(a_real @ x - b_real))
    return x[1:], float(x[0]), residual


def exact_core_columns(spec: ModelSpec, vector: np.ndarray) -> list[list[Fraction]]:
    """The core system's columns Im(G_k) C of one (k,) sample, exactly in
    rationals from the doubles of the generators and C."""
    generators = structural_terms(spec.kind, "branch")[3:].imag
    c = [Fraction(x) for x in np.asarray(vector, dtype=float).tolist()]
    return [[sum(Fraction(g) * x for g, x in zip(row, c)) for row in generator]
            for generator in generators.tolist()]


def exact_core_solve(spec: ModelSpec, vector: np.ndarray, rhs) -> np.ndarray:
    """The first n_generators unknowns of the square core system
    [Im(G_1) C ... Im(G_{k-1}) C | C] x = rhs at one (k,) sample, solved by
    Gauss-Jordan elimination in rationals and rounded once to float64.  The
    matrix is exact from the doubles of the generators and C, and ``rhs``
    holds doubles or Fractions."""
    columns = exact_core_columns(spec, vector)
    rows = [[*(column[i] for column in columns), Fraction(c), Fraction(b)]
            for i, (c, b) in enumerate(zip(np.asarray(vector, dtype=float).tolist(), rhs))]
    k = len(rows)
    for i in range(k):
        pivot = next(j for j in range(i, k) if rows[j][i] != 0)
        rows[i], rows[pivot] = rows[pivot], rows[i]
        for j in range(k):
            if j != i and rows[j][i] != 0:
                factor = rows[j][i] / rows[i][i]
                rows[j] = [x - factor * y for x, y in zip(rows[j], rows[i])]
    return np.array([float(rows[i][k] / rows[i][i]) for i in range(k - 1)])


def h_candidate(spec: ModelSpec, w1=0.0, w2=0.0, bz=0.0) -> np.ndarray:
    """The paper's driving candidate w1 G1 + w2 G2 + bz Sz (Hermitian), with
    the generators the model has (w2 is ignored for two spins); array
    coefficients give the stack of operators."""
    terms = structural_terms(spec.kind)[FIELD_TERM:]
    w = np.stack(np.broadcast_arrays(bz, w1, w2)[:len(terms)], axis=-1)
    return combine(w, terms)


def h_ff(spec: ModelSpec, profile: FastForwardProfile, table: CoefficientTable,
         t: float | np.ndarray) -> np.ndarray:
    """The fast-forward Hamiltonian H0(R(t)) + v(t) sum_k w_k(R(t)) G_k, with
    the couplings of ``table``; an array of times gives the stack."""
    r = r_of_t(profile, spec.r0, t)
    v = np.asarray(v_of_t(profile, t))[..., None, None]
    return h0(spec, r) + v * combine(table(r), structural_terms(spec.kind)[3:])


def gap_report(branch: AdiabaticBranch, spec: ModelSpec) -> np.ndarray:
    """Per-sample distance from the branch energy to the nearest other level
    of the full spectrum, from LAPACK: the distances to every level, with
    the smallest, the branch level's own, masked out."""
    dist = np.abs(np.linalg.eigvalsh(h0(spec, branch.r_grid))
                  - branch.energies[:, None])
    np.put_along_axis(dist, np.argmin(dist, axis=-1)[:, None], np.inf, axis=-1)
    return np.min(dist, axis=-1)


def binary_labels(n_spins: int) -> list[str]:
    """Ket labels in binary counting order: site 1 most significant, u before d."""
    return ["".join(spins) for spins in product("ud", repeat=n_spins)]


def slow_pauli(axis: str, site: int, labels: list[str]) -> np.ndarray:
    """Independent oracle: build the operator by acting on ket labels."""
    action = {
        "x": {"u": ("d", 1.0), "d": ("u", 1.0)},
        "y": {"u": ("d", 1.0j), "d": ("u", -1.0j)},
        "z": {"u": ("u", 1.0), "d": ("d", -1.0)},
    }[axis]
    dim = len(labels)
    m = np.zeros((dim, dim), dtype=complex)
    for col, ket in enumerate(labels):
        new_spin, factor = action[ket[site - 1]]
        out = ket[:site - 1] + new_spin + ket[site:]
        m[labels.index(out), col] = factor
    return m


def site_reversal(n_spins: int) -> np.ndarray:
    """Independent oracle: the permutation matrix that maps each ket to the
    ket with its spins in reverse site order, built on ket labels."""
    labels = binary_labels(n_spins)
    m = np.zeros((len(labels), len(labels)))
    for col, ket in enumerate(labels):
        m[labels.index(ket[::-1]), col] = 1.0
    return m


def is_hermitian(m: np.ndarray) -> bool:
    """True if the matrix equals its conjugate transpose exactly."""
    return np.array_equal(m, m.conj().T)


def slow_word(word: str) -> np.ndarray:
    """A Pauli word ("1" the identity, letter i on site i) as the product of
    its single-site label-action operators."""
    labels = binary_labels(len(word))
    factors = [slow_pauli(axis, site, labels)
               for site, axis in enumerate(word, start=1) if axis != "1"]
    return reduce(np.matmul, factors, np.eye(len(labels), dtype=complex))


def bond_terms(kind: str) -> list[np.ndarray]:
    """(M_j1, M_j2, M_bz, G_w1, ...) summed over the model's bonds from
    label-action operators: xx on the J1 bonds, yy on the J2 bond, z/2 on
    every site, and xy + yx on the w1 bond (halved for two spins) and on the
    three-spin w2 bond."""
    n = 2 if kind == TWO_SPIN else 3
    labels = binary_labels(n)

    def pair(a: str, b: str, i: int, j: int) -> np.ndarray:
        return slow_pauli(a, i, labels) @ slow_pauli(b, j, labels)

    def xy(i: int, j: int) -> np.ndarray:
        return pair("x", "y", i, j) + pair("y", "x", i, j)

    z = 0.5 * sum(slow_pauli("z", site, labels) for site in range(1, n + 1))
    if kind == TWO_SPIN:
        return [pair("x", "x", 1, 2), pair("y", "y", 1, 2), z, 0.5 * xy(1, 2)]
    return [pair("x", "x", 1, 2) + pair("x", "x", 2, 3), pair("y", "y", 3, 1), z,
            xy(1, 2) + xy(2, 3), xy(3, 1)]


def step_increments(a: np.ndarray, dt: float) -> np.ndarray:
    """D_n = P_n - I of the RK4 steps from the 2n + 1 stage matrices a in time
    order (start, midpoint, end of each step), from the plain stages K1 = A0,
    K2 = Am (I + dt/2 K1), K3 = Am (I + dt/2 K2), K4 = A1 (I + dt K3) and
    D = dt/6 (K1 + 2 K2 + 2 K3 + K4), all in ``np.longdouble``."""
    a = np.asarray(a, dtype=np.longdouble)
    dt = np.longdouble(dt)
    a0, am, a1 = a[:-1:2], a[1::2], a[2::2]
    k2 = am + am @ (dt / 2 * a0)
    k3 = am + am @ (dt / 2 * k2)
    k4 = a1 + a1 @ (dt * k3)
    return dt / 6 * (a0 + 2 * k2 + 2 * k3 + k4)
