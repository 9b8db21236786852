"""n-qubit Pauli string algebra on packed base-4 codes.

A Pauli string is a tensor product of single-qubit factors drawn from
(identity, X, Y, Z), written here as the digits 0..3. An n-qubit string is
stored as a single integer whose base-4 digits, read big-endian (qubit 1 is
the most significant digit), are the per-qubit factors:

    code = sum_j k_j * 4**(n - j),   k_j in {0, 1, 2, 3}

Two bits per qubit means any string on up to 32 qubits packs into one
unsigned 64-bit word, and composition of strings is a XOR of codes plus a
phase in {1, i, -1, -i} accumulated per qubit. phase_exponent computes that
phase for one pair digit by digit; phase_exponents computes it for whole
code arrays in closed form (the phase function of Aaronson & Gottesman,
with popcounts over bit-packed words as in Stim).
"""

from __future__ import annotations

import numpy as np

MAX_QUBITS = 32

# one ASCII byte per digit 0..3, per output alphabet
_ALPHABET_BYTES = {"digits": b"0123", "letters": b"IXYZ"}
# per input byte: its digit in the low two bits and its alphabet as flags,
# 0x10 digits, 0x20 letters in either case and 0x30 neither, so that the
# flags of a label OR to 0x30 exactly when it is not in one alphabet
_BYTE_CODE = bytearray([0x30] * 256)
for _flag, _alphabet in zip((0x10, 0x20), _ALPHABET_BYTES.values()):
    for _digit, (_upper, _lower) in enumerate(zip(_alphabet, _alphabet.lower())):
        _BYTE_CODE[_upper] = _BYTE_CODE[_lower] = _flag | _digit

# Exponent e of the per-qubit phase i**e picked up by the ordered product
# (left factor k) . (right factor l).  Rows k, columns l.
PHASE_EXP_TABLE = (
    (0, 0, 0, 0),
    (0, 0, 1, 3),
    (0, 3, 0, 1),
    (0, 1, 3, 0),
)

# i**e for e = 0..3, kept exact (no cmath round-off); every zero part is +0.0
I_POWERS_ARR = np.array((1 + 0j, 0 + 1j, -1 + 0j, 0 - 1j), dtype=np.complex128)

LANES = np.uint64(0x5555_5555_5555_5555)  # low bit of every 2-bit qubit digit


def phase_exponent(x: int, y: int) -> int:
    """Exponent e with P_x P_y = i**e P_(x xor y) for two codes, summed digit
    by digit mod 4: the scalar reference for phase_exponents."""
    e = 0
    while x | y:
        e += PHASE_EXP_TABLE[x & 3][y & 3]
        x >>= 2
        y >>= 2
    return e % 4


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


class LabelError(ValueError):
    """A label parse_codes rejects; `index` is its position in the list."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def parse_codes(labels, n: int | None = None) -> np.ndarray:
    """Codes of a list of labels, the inverse of format_codes.

    Each label, stripped of surrounding whitespace, is base-4 digits "0123"
    or case-insensitive letters "IXYZ" (one alphabet per label) on 1 to
    MAX_QUBITS qubits, and all have n characters, or as many as the first
    when n is None. The first bad label raises LabelError with its index;
    a label's characters are checked before its length. The labels are packed
    as they are, or else stripped and uppercased first, or else checked one by one.
    Packing takes each byte's digit and alphabet flag from one table and the
    digits eight to a 64-bit word, in a fixed number of whole-array steps."""
    if not labels:
        return np.zeros(0, dtype=np.uint64)
    for strip in (False, True):
        rows = [s.strip().upper() for s in labels] if strip else labels
        width = len(rows[0]) if n is None else n
        if (text := "".join(rows)).isascii() and 1 <= width <= MAX_QUBITS and set(
                map(len, rows)) == {width}:
            data = np.frombuffer(text.encode().translate(_BYTE_CODE), dtype=np.uint8)
            data = data.reshape(-1, width)
            if ((np.bitwise_or.reduce(data, axis=1) & 0x30) != 0x30).all():
                # digits left-padded with zero bytes to whole big-endian words,
                # whose eight 2-bit digits, one a byte, shift together into 16 bits
                padded = np.zeros((len(rows), -(-width // 8) * 8), dtype=np.uint8)
                np.bitwise_and(data, 3, out=padded[:, padded.shape[1] - width:])
                words = padded.view(">u8").astype(np.uint64)
                for shift, mask in ((6, 0x000F000F000F000F), (12, 0x000000FF000000FF),
                                    (24, 0xFFFF)):
                    words = (words | words >> shift) & mask
                codes = words[:, 0]
                for lane in words.T[1:]:
                    codes = codes << 16 | lane
                return codes
    for i, label in enumerate(rows):  # neither packed, so some label is at fault
        for bad, message in (
                (not label, "empty Pauli string"),
                (not any(set(label) <= set(a.decode()) for a in _ALPHABET_BYTES.values()),
                 "not a Pauli string (digits 0-3 or letters IXYZ): {label!r}"),
                (len(label) > MAX_QUBITS, "qubit count must be in [1, {top}], got {length}"),
                (len(label) != width, "string length {length} != "
                 + ("{width} from earlier lines" if n is None else "n={width}"))):
            if bad:
                raise LabelError(i, message.format(label=labels[i], length=len(label),
                                                   width=width, top=MAX_QUBITS))


def format_codes(n: int, codes, alphabet: str = "digits") -> list[str]:
    """Labels of a whole array of n-qubit codes, "123" (alphabet="digits")
    or "XYZ" (alphabet="letters").

    The base-4 digits come out by shift and mask, most significant first,
    go through one byte table and are decoded once for the whole array."""
    if alphabet not in _ALPHABET_BYTES:
        raise ValueError(f"unknown alphabet {alphabet!r}")
    table = np.frombuffer(_ALPHABET_BYTES[alphabet], dtype=np.uint8)
    codes = np.asarray(codes, dtype=np.uint64)
    shifts = np.arange(2 * n - 2, -1, -2, dtype=np.uint64)
    text = table[(codes[:, None] >> shifts) & np.uint64(3)].tobytes().decode("ascii")
    return [text[i:i + n] for i in range(0, len(text), n)]
