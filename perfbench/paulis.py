"""The benchmark's own Pauli toolkit, written apart from the package under test.

Codes follow the package's file format: an n-qubit string is the integer
whose base-4 digits, qubit 1 first, are 0=I, 1=X, 2=Y, 3=Z. Everything
here (GF(2) spans, Clifford conjugation, dense matrices, coefficient
extraction) is independent of ``pauliexp`` so that it can check it.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# codes <-> (x, z) bits


def to_xz(codes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) boolean arrays of shape (len(codes), n), column j = qubit j+1.

    Y is x = z = 1, as in the Aaronson-Gottesman tableau.
    """
    digits = np.array(
        [[(c >> (2 * (n - 1 - j))) & 3 for j in range(n)] for c in codes], dtype=np.uint8
    ).reshape(len(codes), n)
    return (digits == 1) | (digits == 2), (digits == 2) | (digits == 3)


def from_xz(x: np.ndarray, z: np.ndarray) -> list[int]:
    digits = np.where(x & z, 2, np.where(x, 1, np.where(z, 3, 0)))
    out = []
    for row in digits:
        c = 0
        for d in row:
            c = 4 * c + int(d)
        out.append(c)
    return out


def code_string(code: int, n: int) -> str:
    return "".join(str((code >> (2 * (n - 1 - j))) & 3) for j in range(n))


def parse_code(text: str) -> int:
    c = 0
    for ch in text:
        d = "0123".index(ch)
        c = 4 * c + d
    return c


# ---------------------------------------------------------------------------
# GF(2) span


class Span:
    """GF(2) span of a set of codes, kept as a reduced echelon basis."""

    def __init__(self, codes):
        self.basis: dict[int, int] = {}  # pivot bit -> vector with that top bit
        for c in codes:
            self.add(c)

    def reduce(self, v: int) -> int:
        while v:
            top = v.bit_length() - 1
            b = self.basis.get(top)
            if b is None:
                return v
            v ^= b
        return 0

    def add(self, v: int) -> bool:
        v = self.reduce(v)
        if v:
            self.basis[v.bit_length() - 1] = v
        return bool(v)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __contains__(self, v: int) -> bool:
        return self.reduce(v) == 0

    def elements(self) -> list[int]:
        """Every element of the span, the zero word included."""
        out = [0]
        for b in self.basis.values():
            out += [e ^ b for e in out]
        return out


def commute(a: int, b: int, n: int) -> bool:
    ax, az = to_xz([a], n)
    bx, bz = to_xz([b], n)
    return int((ax & bz).sum() + (az & bx).sum()) % 2 == 0


# ---------------------------------------------------------------------------
# Clifford conjugation


class Clifford:
    """A circuit of H, S and CNOT gates; conjugation maps P to U P U^dagger.

    The sign rules are those of the Aaronson-Gottesman tableau update
    (arXiv:quant-ph/0406196), applied to rows that are Hermitian strings.
    """

    def __init__(self, n: int, gates: list[tuple]):
        self.n = n
        self.gates = gates

    @classmethod
    def random(cls, n: int, rng: np.random.Generator, layers: int = 8) -> "Clifford":
        """Layers of random single-qubit Cliffords and a random CNOT matching."""
        singles = ((), ("h",), ("s",), ("h", "s"), ("s", "h"), ("h", "s", "h"))
        gates: list[tuple] = []
        for _ in range(layers):
            for q in range(n):
                gates += [(g, q) for g in singles[rng.integers(len(singles))]]
            order = rng.permutation(n)
            for k in range(0, n - 1, 2):
                gates.append(("cx", int(order[k]), int(order[k + 1])))
        return cls(n, gates)

    def conjugate(self, codes) -> tuple[list[int], np.ndarray]:
        """Images and signs: U P_K U^dagger = sign_K P_{image_K}."""
        x, z = to_xz(list(codes), self.n)
        r = np.zeros(len(x), dtype=bool)
        for g in self.gates:
            if g[0] == "h":
                a = g[1]
                r ^= x[:, a] & z[:, a]
                x[:, a], z[:, a] = z[:, a].copy(), x[:, a].copy()
            elif g[0] == "s":
                a = g[1]
                r ^= x[:, a] & z[:, a]
                z[:, a] ^= x[:, a]
            else:
                a, b = g[1], g[2]
                r ^= x[:, a] & z[:, b] & ~(x[:, b] ^ z[:, a])
                x[:, b] ^= x[:, a]
                z[:, a] ^= z[:, b]
        return from_xz(x, z), np.where(r, -1.0, 1.0)


class Embedding:
    """Identity padding from m to n qubits, then conjugation by a Clifford.

    For H on m qubits, exp(-beta U (H x I) U^dagger) = U (exp(-beta H) x I)
    U^dagger, so an expansion on the preimage maps term by term.
    """

    def __init__(self, m: int, clifford: Clifford):
        self.m = m
        self.n = clifford.n
        self.clifford = clifford

    def map(self, terms: dict[int, complex]) -> dict[int, complex]:
        codes = [c for c in terms if c]
        shift = 2 * (self.n - self.m)
        images, signs = self.clifford.conjugate([c << shift for c in codes])
        out = {img: s * terms[c] for c, img, s in zip(codes, images, signs)}
        if 0 in terms:
            out[0] = terms[0]
        return out


# ---------------------------------------------------------------------------
# dense matrices on at most ten qubits


def _signed_permutation(code: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """P_K |b> = phase[b] |b ^ xmask>, qubit 1 the most significant bit of b."""
    x, z = to_xz([code], m)
    weights = 1 << np.arange(m - 1, -1, -1)
    xmask = int((x[0] * weights).sum())
    zmask = int((z[0] * weights).sum())
    ys = int((x[0] & z[0]).sum())
    b = np.arange(2**m)
    parity = np.bitwise_count(b & zmask) & 1
    phase = (1j**ys) * np.where(parity, -1.0, 1.0)
    return b ^ xmask, phase


def dense(terms: dict[int, float], m: int) -> np.ndarray:
    """sum_K h_K P_K as a 2^m x 2^m matrix."""
    out = np.zeros((2**m, 2**m), dtype=np.complex128)
    cols = np.arange(2**m)
    for code, h in terms.items():
        rows, phase = _signed_permutation(code, m)
        out[rows, cols] += h * phase
    return out


def coefficients(mat: np.ndarray, codes, m: int) -> dict[int, complex]:
    """tr(P_K mat) / 2^m for each code K."""
    out = {}
    cols = np.arange(2**m)
    for code in codes:
        rows, phase = _signed_permutation(code, m)
        # tr(P mat) = sum_b <b|P mat|b> = sum_c phase[c] mat[c, c ^ xmask]
        out[code] = complex((phase * mat[cols, rows]).sum()) / 2**m
    return out
