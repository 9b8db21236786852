"""Dense brute-force oracle: 2**n matrices, Pauli decomposition, file formats.

Everything here is deliberately naive. Strings become matrices by a plain
Kronecker chain (leftmost digit outermost, matching the big-endian code),
matrices become Pauli sums by per-qubit contraction, exponentials go through
full eigendecomposition, and comparisons are entrywise. One Hermiticity test
serves the decomposition and the oracle; a cap on n keeps the oracle desk-scale.
"""

from __future__ import annotations

import json
import struct
from typing import NamedTuple

import numpy as np

from .errors import FormatError
from .hamiltonian import (PauliExpansion, SparseHamiltonian, _qubits, _real, checked_exponents,
                          rescaled)
from .pauli import MAX_QUBITS

DENSE_CAP_DEFAULT = 10
DENSE_CAP_MAX = 12
HERMITIAN_TOL = 1e-10  # max entrywise |m - m^dagger| of a matrix taken as Hermitian

_MAGIC = b"PEXP"

_PAULI_1Q = (
    np.array([[1, 0], [0, 1]], dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

_PAULI_TENSOR = np.stack(_PAULI_1Q)  # (k, i, j)


def _check_cap(n: int, dense_cap: int):
    if not 1 <= dense_cap <= DENSE_CAP_MAX:
        raise ValueError(f"dense cap must be in [1, {DENSE_CAP_MAX}], got {dense_cap}")
    if n > dense_cap:
        raise ValueError(f"n={n} exceeds dense cap {dense_cap} (at most {DENSE_CAP_MAX})")


def pauli_matrix(n: int, code: int, dense_cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Kronecker product of the single-qubit factors of the n-qubit `code`,
    qubit 1 (the most significant digit) outermost."""
    _check_cap(n, dense_cap)
    if not 0 <= code < 4**n:
        raise ValueError(f"code {code} out of range for n={n}")
    m = np.ones((1, 1), dtype=np.complex128)
    for shift in range(2 * n - 2, -1, -2):
        m = np.kron(m, _PAULI_1Q[code >> shift & 3])
    return m


def reconstruct_dense(obj, dense_cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Sum of coefficient * string matrix for an expansion or Hamiltonian."""
    if not isinstance(obj, (SparseHamiltonian, PauliExpansion)):
        raise TypeError(f"cannot reconstruct a {type(obj).__name__}")
    n, codes, values = obj.n, obj.codes.tolist(), obj.values.tolist()
    if isinstance(obj, SparseHamiltonian) and obj.identity_offset != 0.0:
        codes, values = codes + [0], values + [obj.identity_offset]
    _check_cap(n, dense_cap)
    out = np.zeros((2**n, 2**n), dtype=np.complex128)
    for code, c in zip(codes, values):
        out += c * pauli_matrix(n, code, dense_cap)
    return out


def qubit_count(m: np.ndarray) -> int:
    """n with m of shape (2**n, 2**n); rejects anything else."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    d = m.shape[0]
    n = int(d).bit_length() - 1
    if d < 2 or 2**n != d:
        raise ValueError(f"dimension {d} is not a power of two >= 2")
    if n > MAX_QUBITS:
        raise ValueError(f"dimension {d} exceeds {MAX_QUBITS} qubits")
    return n


def _hermitian_defect(m: np.ndarray) -> float:
    """Largest entrywise |m - m^dagger|, inf on overflow (never for Hermitian m)."""
    with np.errstate(over="ignore"):
        return float(np.abs(m - m.conj().T).max())


def _coefficient_tensor(m: np.ndarray, n: int) -> np.ndarray:
    """All 4**n coefficients tr(P_K m) / 2**n by per-qubit contraction."""
    cur = m.reshape((2,) * (2 * n))
    # axes: (j_1..j_n, i_1..i_n); each step eats one (j, i) pair and
    # prepends the qubit's k axis, so after step t the j axis of qubit t+1
    # sits at position t and its i axis at position n. Each step halves
    # (exactly), so no partial sum exceeds the largest entry of m.
    for t in range(n):
        cur = np.tensordot(_PAULI_TENSOR / 2, cur, axes=([2, 1], [t, n]))
    order = tuple(reversed(range(n)))
    return cur.transpose(order).reshape(4**n)


def pauli_decompose(m: np.ndarray, zero_tol: float = 1e-12):
    """Expand a 2**n square matrix in the Pauli string basis.

    Hermitian input (max entrywise defect <= HERMITIAN_TOL) comes back as a
    SparseHamiltonian with real coefficients and the identity component in
    identity_offset; anything else comes back as a complex PauliExpansion.
    Coefficients with |c| <= zero_tol are dropped either way.
    """
    m = np.asarray(m, dtype=np.complex128)
    n = qubit_count(m)
    coeffs = _coefficient_tensor(m, n)
    kept = np.flatnonzero(np.abs(coeffs) > zero_tol)
    if _hermitian_defect(m) <= HERMITIAN_TOL:
        kept = kept[kept != 0]
        return SparseHamiltonian(n, kept, coeffs[kept].real, coeffs[0].real)
    return PauliExpansion(n, kept, coeffs[kept])


def dense_exp(m: np.ndarray, beta: complex, scale: float = 1.0) -> np.ndarray:
    """exp(-beta scale m) for Hermitian m, via full eigendecomposition."""
    m = np.asarray(m, dtype=np.complex128)
    qubit_count(m)
    defect = _hermitian_defect(m)
    if defect > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    w, v = np.linalg.eigh(m)
    with np.errstate(over="ignore", invalid="ignore"):
        exponents = -(beta if scale == 1.0 else beta * scale) * w
    return (v * np.exp(checked_exponents([complex(beta)], exponents))) @ v.conj().T


def dense_oracle(h: SparseHamiltonian, beta: complex, dense_cap: int) -> np.ndarray:
    """exp(-beta H) as a 2**n matrix: dense_exp of 2^-k H at scale 2^k (rescaled)."""
    h, scale = rescaled(h)
    return dense_exp(reconstruct_dense(h, dense_cap), beta, scale)


class CompareResult(NamedTuple):
    max_abs: float
    frobenius: float


def compare(a: np.ndarray, b: np.ndarray) -> CompareResult:
    """Entrywise max and Frobenius norm of (a - b)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return CompareResult(float(np.abs(d).max()), float(np.linalg.norm(d)))


def embed(m: np.ndarray, n: int | None = None) -> np.ndarray:
    """Zero-pad a d-dim operator into the first d basis states of n qubits."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    d = m.shape[0]
    if n is None:
        n = max(1, (d - 1).bit_length())
    if 2**n < d:
        raise ValueError(f"{n} qubits cannot hold dimension {d}")
    out = np.zeros((2**n, 2**n), dtype=np.complex128)
    out[:d, :d] = m
    return out


# ---------------------------------------------------------------------------
# file formats


def dense_to_json(m: np.ndarray) -> str:
    """{"n": ..., "matrix": nested rows of [re, im] pairs}."""
    m = np.asarray(m, dtype=np.complex128)
    n = qubit_count(m)
    rows = [[[z.real, z.imag] for z in row] for row in m]
    return json.dumps({"n": n, "matrix": rows})


def dense_from_json(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from None
    dim = 2 ** _qubits(doc, "matrix")
    rows = doc["matrix"]
    if not isinstance(rows, list) or len(rows) != dim:
        raise FormatError(f'"matrix" must have {dim} rows')
    out = np.empty((dim, dim), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise FormatError(f"row {i} must have {dim} entries")
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise FormatError(f"entry ({i}, {j}) must be [re, im]")
            try:
                out[i, j] = complex(_real(pair[0], "re"), _real(pair[1], "im"))
            except ValueError as exc:
                raise FormatError(f"entry ({i}, {j}): {exc}") from None
    return out


def dense_to_bytes(m: np.ndarray) -> bytes:
    """Binary layout: magic "PEXP", u32 n, then 2^(2n) little-endian f64
    (re, im) pairs in row-major order."""
    m = np.asarray(m, dtype=np.complex128)
    n = qubit_count(m)
    header = _MAGIC + struct.pack("<I", n)
    body = np.ascontiguousarray(m).astype("<c16").tobytes()
    return header + body


def dense_from_bytes(blob: bytes) -> np.ndarray:
    if len(blob) < 8 or blob[:4] != _MAGIC:
        raise FormatError("not a PEXP blob (bad magic)")
    (n,) = struct.unpack("<I", blob[4:8])
    if n < 1 or n > 16:
        raise FormatError(f"implausible qubit count {n}")
    dim = 2**n
    expected = 8 + dim * dim * 16
    if len(blob) != expected:
        raise FormatError(f"expected {expected} bytes for n={n}, got {len(blob)}")
    m = np.frombuffer(blob, dtype="<c16", offset=8).reshape(dim, dim).astype(np.complex128)
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0].tolist()
        raise FormatError(f"entry ({i}, {j}): not a finite complex number")
    return m


def read_dense(path) -> np.ndarray:
    """Load either format, sniffing the binary magic."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] == _MAGIC:
        return dense_from_bytes(blob)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError("neither PEXP binary nor UTF-8 JSON") from None
    return dense_from_json(text)
