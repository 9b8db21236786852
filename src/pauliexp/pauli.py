"""n-qubit Pauli string algebra on packed base-4 codes.

A Pauli string is a tensor product of single-qubit factors drawn from
(identity, X, Y, Z), written here as the digits 0..3. An n-qubit string is
stored as a single integer whose base-4 digits, read big-endian (qubit 1 is
the most significant digit), are the per-qubit factors:

    code = sum_j k_j * 4**(n - j),   k_j in {0, 1, 2, 3}

Two bits per qubit means any string on up to 32 qubits packs into one
unsigned 64-bit word, and composition of strings is a XOR of codes plus a
phase in {1, i, -1, -i} accumulated per qubit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 32

DIGIT_LETTERS = "IXYZ"
LETTER_DIGITS = {c: k for k, c in enumerate(DIGIT_LETTERS)}
# one ASCII byte per digit 0..3, per output alphabet
_ALPHABET_BYTES = {"digits": b"0123", "letters": DIGIT_LETTERS.encode()}

# Exponent e of the per-qubit phase i**e picked up by the ordered product
# (left factor k) . (right factor l).  Rows k, columns l.
PHASE_EXP_TABLE = (
    (0, 0, 0, 0),
    (0, 0, 1, 3),
    (0, 3, 0, 1),
    (0, 1, 3, 0),
)

# i**e for e = 0..3, kept exact (no cmath round-off).
I_POWERS = (1 + 0j, 0 + 1j, -1 + 0j, 0 - 1j)


@dataclass(frozen=True, slots=True)
class Phase:
    """A fourth root of unity i**exponent."""

    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.exponent % 4)

    @property
    def value(self) -> complex:
        return I_POWERS[self.exponent]

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.exponent + other.exponent)

    def conjugate(self) -> "Phase":
        return Phase(-self.exponent)

    def __str__(self) -> str:
        return ("1", "i", "-1", "-i")[self.exponent]


@dataclass(frozen=True, slots=True)
class PauliString:
    """An n-qubit Pauli string identified by its packed base-4 code."""

    n: int
    code: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.n}")
        if not 0 <= self.code < 4**self.n:
            raise ValueError(f"code {self.code} out of range for n={self.n}")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0)

    @classmethod
    def from_digits(cls, digits) -> "PauliString":
        digits = tuple(digits)
        if any(not 0 <= d <= 3 for d in digits):
            raise ValueError(f"digits must be in 0..3, got {digits}")
        code = 0
        for d in digits:
            code = code * 4 + d
        return cls(len(digits), code)

    @property
    def digits(self) -> tuple[int, ...]:
        out = []
        c = self.code
        for _ in range(self.n):
            out.append(c & 3)
            c >>= 2
        return tuple(reversed(out))

    @property
    def weight(self) -> int:
        """Number of non-identity single-qubit factors."""
        return sum(1 for d in self.digits if d)

    def is_identity(self) -> bool:
        return self.code == 0

    def __str__(self) -> str:
        return format_string(self)


def phase_exponent(a: PauliString, b: PauliString) -> int:
    """Exponent e with a.b = i**e (a xor b), summed digit by digit mod 4."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} != {b.n}")
    x, y = a.code, b.code
    e = 0
    while x | y:
        e += PHASE_EXP_TABLE[x & 3][y & 3]
        x >>= 2
        y >>= 2
    return e % 4


def phase(a: PauliString, b: PauliString) -> Phase:
    """The scalar S(a, b) in {1, i, -1, -i} with a.b = S(a, b) (a xor b)."""
    return Phase(phase_exponent(a, b))


def compose(a: PauliString, b: PauliString) -> tuple[PauliString, Phase]:
    """Ordered product a.b as (string, phase).

    The product of two Pauli strings is again a Pauli string up to a fourth
    root of unity; the string part is the digitwise XOR of the codes.
    """
    return PauliString(a.n, a.code ^ b.code), phase(a, b)


def commutes(a: PauliString, b: PauliString) -> bool:
    """Whether a and b commute.

    Strings either commute or anticommute; they commute exactly when the
    number of qubit positions where both factors are distinct non-identity
    letters is even, i.e. when S(a,b) == S(b,a).
    """
    return phase_exponent(a, b) == phase_exponent(b, a)


def structure_constant(a: PauliString, b: PauliString) -> float:
    """Real coefficient C with [a, b] = i * C * (a xor b).

    Zero exactly when a and b commute, else +-2.
    """
    ea, eb = phase_exponent(a, b), phase_exponent(b, a)
    c = I_POWERS[(ea + 1) % 4] - I_POWERS[(eb + 1) % 4]
    # commutator of Pauli strings is i * real * string, so c is exactly real
    return c.real


def parse_string(text: str) -> PauliString:
    """Parse a Pauli string written either as base-4 digits or as IXYZ letters.

    "123" and "XYZ" denote the same 3-qubit string. Mixing alphabets is
    rejected; case is ignored for letters.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty Pauli string")
    up = s.upper()
    if all(c in "0123" for c in up):
        digits = [int(c) for c in up]
    elif all(c in LETTER_DIGITS for c in up):
        digits = [LETTER_DIGITS[c] for c in up]
    else:
        raise ValueError(f"not a Pauli string (digits 0-3 or letters IXYZ): {text!r}")
    return PauliString.from_digits(digits)


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


def format_string(p: PauliString, alphabet: str = "digits") -> str:
    """Render one string as "123" (alphabet="digits") or "XYZ" (alphabet="letters")."""
    return format_codes(p.n, [p.code], alphabet)[0]
