"""Hot numeric kernels, in two interchangeable flavors.

Both the per-qubit phase accumulation and the structure-matrix assembly are
tight loops over packed uint64 codes. They are implemented twice: once as
numba @njit kernels and once in pure vectorized numpy. The active flavor is
chosen exactly once, at import, from the PAULIEXP_BACKEND environment
variable:

    auto   use numba when importable, else numpy (default)
    numba  require numba, fail loudly if missing
    numpy  force the numpy fallback even when numba is present

Public entry points (phase_exponents, assemble) dispatch to the active
flavor; the _numpy/_numba variants stay importable for parity tests and
benchmarks.
"""

from __future__ import annotations

import os

import numpy as np

from .pauli import I_POWERS, PHASE_EXP_TABLE

PHASE_EXP_FLAT = np.array(
    [PHASE_EXP_TABLE[k][l] for k in range(4) for l in range(4)], dtype=np.uint8
)
I_POWERS_ARR = np.array(I_POWERS, dtype=np.complex128)

try:
    import numba

    HAS_NUMBA = True
except ImportError:
    numba = None
    HAS_NUMBA = False


LANES = np.uint64(0x5555_5555_5555_5555)  # low bit of every 2-bit qubit digit


def _factor_masks(codes: np.ndarray):
    """Per-qubit (X, Y, Z) indicator masks, one bit per digit at its low bit."""
    lo = codes & LANES
    hi = (codes >> np.uint64(1)) & LANES
    return lo & ~hi, hi & ~lo, hi & lo


def phase_exponents_numpy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise phase exponents e with A.B = i**e (A xor B), for uint64 codes.

    Closed form on whole words, so the number of numpy operations does not
    depend on the qubit count. Each qubit digit is d = 2*hi + lo with X=1,
    Y=2, Z=3. The single-qubit product is +i for the cyclic pairs XY, YZ,
    ZX, -i for the reverse pairs YX, ZY, XZ and 1 otherwise, so with
    cyc/anti the masks of qubits holding a cyclic/reverse pair,

        e = (popcount(cyc) + 3 * popcount(anti)) mod 4.

    The masks are built on the unbroadcast operands; only the pair masks
    take the broadcast shape.
    """
    ax, ay, az = _factor_masks(np.asarray(a, dtype=np.uint64))
    bx, by, bz = _factor_masks(np.asarray(b, dtype=np.uint64))
    cyc = (ax & by) | (ay & bz) | (az & bx)
    anti = (ay & bx) | (az & by) | (ax & bz)
    return (np.bitwise_count(cyc) + np.uint8(3) * np.bitwise_count(anti)) & np.uint8(3)


# Entries of a (block x tau) assembly table: at the 128 bytes of
# temporaries an entry takes (measured with tracemalloc), 1 MiB a block.
# Larger blocks are no faster, and freeing multi-megabyte temporaries
# raises glibc's mmap threshold, so that eigh's work arrays later stay
# resident: peak RSS rose 13% at tau 1023 with blocks the size of the matrix.
_BLOCK_ENTRIES = 8192


def assemble_numpy(codes: np.ndarray, coeffs: np.ndarray):
    """Structure matrix over a sorted, composition-closed code array.

    Returns (a, bad_k, bad_l); bad_k == -1 means success, otherwise
    codes[bad_k] ^ codes[bad_l] escaped the set (the first such pair in
    (l, k) order). The columns l with h_l != 0 go in blocks, each with one
    (block x tau) XOR table, one searchsorted and one phase call, and at
    most _BLOCK_ENTRIES entries.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    tau = codes.shape[0]
    a = np.zeros((tau + 1, tau + 1), dtype=np.complex128)
    a[0, 1:] = coeffs
    a[1:, 0] = coeffs
    live = np.flatnonzero(coeffs)
    step = max(1, _BLOCK_ENTRIES // max(tau, 1))
    for start in range(0, live.size, step):
        ls = live[start : start + step]
        prod = codes[ls, None] ^ codes
        li, cols = np.nonzero(prod)  # drops k == l, whose product is the identity
        mk = prod[li, cols]
        rows = np.searchsorted(codes, mk)
        bad = (rows >= tau) | (codes[np.minimum(rows, tau - 1)] != mk)
        if bad.any():
            first = int(np.argmax(bad))
            return a, int(cols[first]), int(ls[li[first]])
        exps = phase_exponents_numpy(codes, codes[ls, None])[li, cols]
        a[rows + 1, cols + 1] += coeffs[ls[li]] * I_POWERS_ARR[exps]
    return a, -1, -1


if HAS_NUMBA:

    @numba.njit(cache=True)
    def _phase_exponents_numba(a, b):  # pragma: no cover - measured via wrapper
        out = np.empty(a.shape[0], dtype=np.uint8)
        for i in range(a.shape[0]):
            x = a[i]
            y = b[i]
            e = np.uint64(0)
            while x | y:
                e += PHASE_EXP_FLAT[((x & np.uint64(3)) << np.uint64(2)) | (y & np.uint64(3))]
                x >>= np.uint64(2)
                y >>= np.uint64(2)
            out[i] = e & np.uint64(3)
        return out

    @numba.njit(cache=True)
    def _assemble_numba(codes, coeffs):  # pragma: no cover - measured via wrapper
        tau = codes.shape[0]
        a = np.zeros((tau + 1, tau + 1), dtype=np.complex128)
        for j in range(tau):
            a[0, j + 1] = coeffs[j]
            a[j + 1, 0] = coeffs[j]
        for l in range(tau):
            hl = coeffs[l]
            if hl == 0.0:
                continue
            cl = codes[l]
            for j in range(tau):
                m = codes[j] ^ cl
                if m == np.uint64(0):
                    continue
                i = np.searchsorted(codes, m)
                if i >= tau or codes[i] != m:
                    return a, j, l
                x = codes[j]
                y = cl
                e = np.uint64(0)
                while x | y:
                    e += PHASE_EXP_FLAT[
                        ((x & np.uint64(3)) << np.uint64(2)) | (y & np.uint64(3))
                    ]
                    x >>= np.uint64(2)
                    y >>= np.uint64(2)
                a[i + 1, j + 1] += hl * I_POWERS_ARR[e & np.uint64(3)]
        return a, -1, -1

    def phase_exponents_numba(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        x, y = np.broadcast_arrays(
            np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)
        )
        flat = _phase_exponents_numba(np.ascontiguousarray(x).ravel(),
                                      np.ascontiguousarray(y).ravel())
        return flat.reshape(x.shape)

    def assemble_numba(codes: np.ndarray, coeffs: np.ndarray):
        return _assemble_numba(
            np.ascontiguousarray(codes, dtype=np.uint64),
            np.ascontiguousarray(coeffs, dtype=np.float64),
        )

else:  # pragma: no cover - exercised only on numba-free installs
    phase_exponents_numba = None
    assemble_numba = None


def _select_backend() -> str:
    requested = os.environ.get("PAULIEXP_BACKEND", "auto").strip().lower()
    if requested not in ("auto", "numba", "numpy"):
        raise ValueError(
            f"PAULIEXP_BACKEND must be auto, numba or numpy, got {requested!r}"
        )
    if requested == "numpy":
        return "numpy"
    if HAS_NUMBA:
        return "numba"
    if requested == "numba":
        raise RuntimeError("PAULIEXP_BACKEND=numba but numba is not importable")
    return "numpy"


BACKEND = _select_backend()

if BACKEND == "numba":
    phase_exponents = phase_exponents_numba
    assemble = assemble_numba
else:
    phase_exponents = phase_exponents_numpy
    assemble = assemble_numpy


def backend() -> str:
    """Name of the kernel flavor selected at import ("numba" or "numpy")."""
    return BACKEND
