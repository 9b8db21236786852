"""Reduced linear system: structure matrix, shifted solves, determinant.

For a Hamiltonian with closed support, multiplying the resolvent expansion
by (z - H) and matching Pauli-basis coefficients closes into a finite
(1 + tau)-dimensional Hermitian system. Row/column 0 is the identity
border: entries A[0, i] = A[i, 0] = h_{K_i}; the block entry A[m, k] is
h_L S(K_k, L) for the unique L with K_k xor L = K_m. Diagonal entries are
exactly zero because K xor K is the identity, which lives on the border.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import SingularSystem
from .hamiltonian import DEFAULT_CLOSURE_CAP, ClosedTermSet, SparseHamiltonian, close

# residual acceptance: ||(zI - A) r - e0|| <= RESIDUAL_RTOL * (|z| + ||A||_inf)
RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class StructureMatrix:
    """Hermitian matrix of the reduced system over a closed term set."""

    term_set: ClosedTermSet
    matrix: np.ndarray = field(repr=False)
    norm_inf: float

    @property
    def size(self) -> int:
        return self.term_set.tau + 1

    def code_at(self, i: int) -> int:
        """Code for row/column i >= 1; row 0 is the identity border."""
        if i == 0:
            return 0
        return self.term_set.code_at(i - 1)


def build_structure_matrix(
    h: SparseHamiltonian, term_set: ClosedTermSet | None = None, cap: int = DEFAULT_CLOSURE_CAP
) -> StructureMatrix:
    """Assemble the bordered structure matrix for h over its closure.

    A precomputed term_set may be passed to skip re-closing; it must contain
    the support of h.
    """
    if term_set is None:
        term_set = close(h, cap)
    if term_set.n != h.n:
        raise ValueError(f"term set is on {term_set.n} qubits, Hamiltonian on {h.n}")
    coeffs = np.array([h.coefficient(c) for c in term_set.codes], dtype=np.float64)
    matrix, bad_k, bad_l = _kernels.assemble(term_set.codes, coeffs)
    if bad_k >= 0:
        raise ValueError(
            "term set is not closed: "
            f"{term_set.code_at(bad_k)} * {term_set.code_at(bad_l)} escapes it"
        )
    norm = float(np.linalg.norm(matrix, np.inf)) if matrix.size else 0.0
    return StructureMatrix(term_set, matrix, norm)


def _matrix_and_norm(a) -> tuple[np.ndarray, float]:
    if isinstance(a, StructureMatrix):
        return a.matrix, a.norm_inf
    m = np.asarray(a, dtype=np.complex128)
    return m, float(np.linalg.norm(m, np.inf))


def resolvent_at(a, z: complex) -> np.ndarray:
    """Solve (zI - A) r = e0 and verify the residual.

    Returns the coefficient vector of (z - H)^{-1} over (identity, codes).
    Raises SingularSystem when the factorization fails outright or the
    residual exceeds RESIDUAL_RTOL * (|z| + ||A||_inf).
    """
    m, norm = _matrix_and_norm(a)
    size = m.shape[0]
    shifted = z * np.eye(size, dtype=np.complex128) - m
    rhs = np.zeros(size, dtype=np.complex128)
    rhs[0] = 1.0
    try:
        r = np.linalg.solve(shifted, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystem(z) from None
    if not np.isfinite(r).all():
        raise SingularSystem(z)
    residual = float(np.linalg.norm(shifted @ r - rhs))
    if residual > RESIDUAL_RTOL * (abs(z) + norm):
        raise SingularSystem(z, residual)
    return r


def characteristic_poly_at(a, z: complex) -> complex:
    """det(zI - A), the denominator of every resolvent coefficient."""
    m, _ = _matrix_and_norm(a)
    return complex(np.linalg.det(z * np.eye(m.shape[0], dtype=np.complex128) - m))


def gershgorin_bounds(a) -> tuple[float, float]:
    """Real interval certain to contain the (real) spectrum of Hermitian A."""
    m, _ = _matrix_and_norm(a)
    d = np.real(np.diagonal(m))
    radii = np.abs(m).sum(axis=1) - np.abs(np.diagonal(m))
    return float((d - radii).min()), float((d + radii).max())
