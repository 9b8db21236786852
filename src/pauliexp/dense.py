"""Dense brute-force oracle: explicit 2**n matrices and file formats.

Everything here is deliberately naive. Strings become matrices by a plain
Kronecker chain (leftmost digit outermost, matching the big-endian code),
exponentials go through full eigendecomposition, and comparisons are
entrywise. A cap on n keeps the oracle desk-scale.
"""

from __future__ import annotations

import json
import struct
from typing import NamedTuple

import numpy as np

from .engine import _LOG_FLOAT_MAX
from .errors import FormatError
from .hamiltonian import (
    PauliExpansion,
    SparseHamiltonian,
    _PAULI_1Q,
    qubit_count,
)
from .pauli import PauliString

DENSE_CAP_DEFAULT = 10
DENSE_CAP_MAX = 12

_MAGIC = b"PEXP"


def _check_cap(n: int, dense_cap: int):
    if dense_cap > DENSE_CAP_MAX:
        raise ValueError(f"dense_cap tops out at {DENSE_CAP_MAX}, got {dense_cap}")
    if n > dense_cap:
        raise ValueError(
            f"n={n} exceeds dense cap {dense_cap}; pass a larger dense_cap (<= {DENSE_CAP_MAX})"
        )


def pauli_matrix(p: PauliString, dense_cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Kronecker product of the string's single-qubit factors."""
    _check_cap(p.n, dense_cap)
    m = np.ones((1, 1), dtype=np.complex128)
    for d in p.digits:
        m = np.kron(m, _PAULI_1Q[d])
    return m


def reconstruct_dense(obj, dense_cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Sum of coefficient * string matrix for an expansion or Hamiltonian."""
    if isinstance(obj, SparseHamiltonian):
        items = list(obj.terms.items())
        if obj.identity_offset != 0.0:
            items.append((0, obj.identity_offset))
        n = obj.n
    elif isinstance(obj, PauliExpansion):
        items = list(obj.coeffs.items())
        n = obj.n
    else:
        raise TypeError(f"cannot reconstruct a {type(obj).__name__}")
    _check_cap(n, dense_cap)
    out = np.zeros((2**n, 2**n), dtype=np.complex128)
    for code, c in items:
        out += c * pauli_matrix(PauliString(n, code), dense_cap)
    return out


def dense_exp(m: np.ndarray, beta: complex, hermitian_tol: float = 1e-10) -> np.ndarray:
    """exp(-beta m) for Hermitian m, via full eigendecomposition."""
    m = np.asarray(m, dtype=np.complex128)
    qubit_count(m)
    defect = float(np.abs(m - m.conj().T).max())
    if defect > hermitian_tol:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    w, v = np.linalg.eigh(m)
    exponents = -beta * w
    if exponents.real.max() > _LOG_FLOAT_MAX:
        raise OverflowError(f"exp(-beta H) at beta {complex(beta):g} does not fit "
                            f"in float64 on the dense path")
    return (v * np.exp(exponents)) @ v.conj().T


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
    if not isinstance(doc, dict) or "n" not in doc or "matrix" not in doc:
        raise FormatError('expected an object with "n" and "matrix"')
    n = doc["n"]
    if not isinstance(n, int) or n < 1:
        raise FormatError('"n" must be a positive integer')
    dim = 2**n
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
            out[i, j] = complex(float(pair[0]), float(pair[1]))
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
    flat = np.frombuffer(blob, dtype="<c16", offset=8)
    return flat.reshape(dim, dim).astype(np.complex128)


def write_dense(path, m: np.ndarray, binary: bool = False):
    if binary:
        with open(path, "wb") as fh:
            fh.write(dense_to_bytes(m))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dense_to_json(m))


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
