"""Reduced linear system: structure matrix, shifted solves, determinant.

For a Hamiltonian with closed support, multiplying the resolvent expansion
by (z - H) and matching Pauli-basis coefficients closes into a finite
(1 + tau)-dimensional Hermitian system. Row/column 0 is the identity
border: entries A[0, i] = A[i, 0] = h_{K_i}; the block entry A[m, k] is
h_L S(K_k, L) for the unique L with K_k xor L = K_m. Diagonal entries are
exactly zero because K xor K is the identity, which lives on the border.

This is the paper's reference path: build_structure_matrix, which refuses
a set that is not closed, under exp_spectral, resolvent_at and
characteristic_poly_at; solve_shifted also serves the contour quadrature.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystem
from .hamiltonian import SparseHamiltonian, checked_codes, close
from .pauli import I_POWERS_ARR, phase_exponents

# residual acceptance: ||(zI - A) r - e0|| <= RESIDUAL_RTOL * (|z| + ||A||_inf)
RESIDUAL_RTOL = 1e-10


def build_structure_matrix(h: SparseHamiltonian, term_set=None) -> np.ndarray:
    """The bordered structure matrix of h over a closed set of codes: row
    and column 0 are the identity, row and column i the code term_set[i - 1].

    term_set defaults to close(h); a given one must be a strictly
    increasing code array on h's qubits, closed (else ValueError naming the
    first escaping product, in (l, k) order) and holding h's support. With
    the identity in front, K -> K xor L permutes the codes, so each L with
    h_L != 0 fills one entry of every column by one searchsorted and one
    phase call, added onto +0.0 so that no entry is a negative zero.
    """
    if term_set is None:
        term_set = close(h)
    codes = checked_codes(h.n, term_set, "closed sets never contain the identity")
    coeffs = np.zeros(codes.size)
    _, into, of_h = np.intersect1d(codes, h.codes, assume_unique=True, return_indices=True)
    if of_h.size < h.codes.size:
        raise ValueError("term set does not hold the support of the Hamiltonian")
    coeffs[into] = h.values[of_h]
    full = np.append(np.uint64(0), codes)
    cols = np.arange(full.size)
    a = np.zeros((full.size, full.size), dtype=np.complex128)
    for l in np.flatnonzero(coeffs):
        prod = full ^ full[l + 1]
        rows = np.searchsorted(full, prod)
        bad = full[np.minimum(rows, full.size - 1)] != prod
        if bad.any():
            raise ValueError(f"term set is not closed: {full[bad][0]} * {full[l + 1]} escapes it")
        a[rows, cols] += coeffs[l] * I_POWERS_ARR[phase_exponents(full, full[l + 1])]
    return a


def solve_shifted(m: np.ndarray, z: complex, rhs: np.ndarray, norm: float) -> np.ndarray:
    """Solve (zI - m) x = rhs for a matrix m or a stack of them, and verify
    the residual of each column of x.

    Raises SingularSystem when the factorization fails outright, x is not
    finite, or a column's residual exceeds RESIDUAL_RTOL * (|z| + norm).
    """
    shifted = z * np.eye(m.shape[-1], dtype=np.complex128) - m
    try:
        x = np.linalg.solve(shifted, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystem(z) from None
    if not np.isfinite(x).all():
        raise SingularSystem(z)
    residual = float(np.linalg.norm(shifted @ x - rhs, axis=-2).max())
    if residual > RESIDUAL_RTOL * (abs(z) + norm):
        raise SingularSystem(z, residual)
    return x


def resolvent_at(m: np.ndarray, z: complex) -> np.ndarray:
    """Solve (zI - m) r = e0 by solve_shifted for a structure matrix m.

    Returns the coefficient vector of (z - H)^{-1} over (identity, codes).
    """
    m = np.asarray(m, dtype=np.complex128)
    rhs = np.zeros((m.shape[0], 1), dtype=np.complex128)
    rhs[0] = 1.0
    return solve_shifted(m, z, rhs, float(np.linalg.norm(m, np.inf)))[:, 0]


def characteristic_poly_at(m: np.ndarray, z: complex) -> complex:
    """det(zI - m), the denominator of every resolvent coefficient."""
    m = np.asarray(m, dtype=np.complex128)
    return complex(np.linalg.det(z * np.eye(m.shape[0], dtype=np.complex128) - m))
