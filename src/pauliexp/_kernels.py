"""Hot numeric kernels over packed uint64 Pauli codes.

phase_exponents is the composition phase of two code arrays in closed form
(the phase function of Aaronson & Gottesman, with popcounts over
bit-packed words as in Stim); assemble fills the structure matrix of a
closed term set with it, in blocks of columns.
"""

from __future__ import annotations

import numpy as np

from .pauli import I_POWERS

I_POWERS_ARR = np.array(I_POWERS, dtype=np.complex128)

LANES = np.uint64(0x5555_5555_5555_5555)  # low bit of every 2-bit qubit digit


def _factor_masks(codes: np.ndarray):
    """Per-qubit (X, Y, Z) indicator masks, one bit per digit at its low bit."""
    lo = codes & LANES
    hi = (codes >> np.uint64(1)) & LANES
    return lo & ~hi, hi & ~lo, hi & lo


def phase_exponents(a: np.ndarray, b: np.ndarray) -> np.ndarray:
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


def assemble(codes: np.ndarray, coeffs: np.ndarray):
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
        exps = phase_exponents(codes, codes[ls, None])[li, cols]
        a[rows + 1, cols + 1] += coeffs[ls[li]] * I_POWERS_ARR[exps]
    return a, -1, -1
