"""Sparse Pauli-basis Hamiltonians, closed term sets, and decomposition.

A Hamiltonian here is a real linear combination of non-identity Pauli
strings plus an optional multiple of the identity, kept separate because the
identity only ever contributes a scalar factor exp(-beta * offset) to any
function of the Hamiltonian.

The multiplicative closure of the support is what makes the whole approach
finite: products of Pauli strings XOR their codes, so the closure is the
GF(2)-linear span of the support codes minus the zero word, and its size is
2**rank - 1 regardless of the qubit count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ClosureExplosion, FormatError
from .pauli import MAX_QUBITS, format_codes, parse_string

DEFAULT_CLOSURE_CAP = 4096


@dataclass(frozen=True)
class SparseHamiltonian:
    """Real combination of non-identity Pauli strings, identity kept aside.

    terms maps packed base-4 codes to real coefficients; code 0 is rejected,
    the identity component lives in identity_offset. Zero coefficients are
    dropped on construction.
    """

    n: int
    terms: dict[int, float]
    identity_offset: float = 0.0

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.n}")
        cleaned: dict[int, float] = {}
        top = 4**self.n
        for code, h in self.terms.items():
            code = int(code)
            h = float(h)
            if code == 0:
                raise ValueError("identity term belongs in identity_offset, not terms")
            if not 0 < code < top:
                raise ValueError(f"code {code} out of range for n={self.n}")
            if not np.isfinite(h):
                raise ValueError(f"non-finite coefficient for code {code}")
            if h != 0.0:
                cleaned[code] = h
        if not np.isfinite(self.identity_offset):
            raise ValueError("non-finite identity offset")
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "identity_offset", float(self.identity_offset))

    @property
    def support(self) -> tuple[int, ...]:
        """Non-identity codes with nonzero coefficient, ascending."""
        return tuple(sorted(self.terms))

    def coefficient(self, code: int) -> float:
        return self.terms.get(int(code), 0.0)


@dataclass(frozen=True)
class PauliExpansion:
    """Complex expansion sum_K c_K P_K, identity included as code 0."""

    n: int
    coeffs: dict[int, complex]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.n}")
        top = 4**self.n
        cleaned: dict[int, complex] = {}
        for code, c in self.coeffs.items():
            code = int(code)
            c = complex(c)
            if not 0 <= code < top:
                raise ValueError(f"code {code} out of range for n={self.n}")
            if not (np.isfinite(c.real) and np.isfinite(c.imag)):
                raise ValueError(f"non-finite coefficient for code {code}")
            cleaned[code] = c
        object.__setattr__(self, "coeffs", cleaned)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def coefficient(self, code: int) -> complex:
        return self.coeffs.get(int(code), 0j)

    def prune(self, tol: float = 0.0) -> "PauliExpansion":
        """Drop coefficients with |c| <= tol (identity kept even at zero)."""
        kept = {k: c for k, c in self.coeffs.items() if abs(c) > tol or k == 0}
        return PauliExpansion(self.n, kept)

    def dagger(self) -> "PauliExpansion":
        """Hermitian adjoint; Pauli strings are self-adjoint so just conjugate."""
        return PauliExpansion(self.n, {k: c.conjugate() for k, c in self.coeffs.items()})

    def scaled(self, factor: complex) -> "PauliExpansion":
        return PauliExpansion(self.n, {k: factor * c for k, c in self.coeffs.items()})


@dataclass(frozen=True, eq=False)
class ClosedTermSet:
    """Strictly increasing array of non-identity codes, closed under XOR.

    Position i in `codes` is row/column i+1 of the structure matrix; index 0
    is reserved for the identity border.
    """

    n: int
    codes: np.ndarray = field(repr=False)

    def __post_init__(self):
        codes = np.ascontiguousarray(self.codes, dtype=np.uint64)
        if codes.ndim != 1:
            raise ValueError("codes must be one-dimensional")
        if codes.size:
            if codes[0] == 0:
                raise ValueError("closed sets never contain the identity")
            if not (codes[1:] > codes[:-1]).all():
                raise ValueError("codes must be strictly increasing")
            if int(codes[-1]) >= 4**self.n:
                raise ValueError(f"code {int(codes[-1])} out of range for n={self.n}")
        object.__setattr__(self, "codes", codes)

    @property
    def tau(self) -> int:
        return int(self.codes.size)

    def __len__(self) -> int:
        return self.tau

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClosedTermSet):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.codes, other.codes)

    def __hash__(self):
        return hash((self.n, self.codes.tobytes()))

    def index_of(self, code: int) -> int:
        """Position of `code` in the set; KeyError when absent."""
        i = int(np.searchsorted(self.codes, np.uint64(code)))
        if i >= self.tau or int(self.codes[i]) != int(code):
            raise KeyError(f"code {code} not in closed set")
        return i

    def code_at(self, i: int) -> int:
        return int(self.codes[i])

    def is_closed(self) -> bool:
        """Full pairwise check that every product stays inside the set."""
        if self.tau == 0:
            return True
        prods = np.unique((self.codes[:, None] ^ self.codes[None, :]).ravel())
        prods = prods[prods != 0]
        return bool(np.isin(prods, self.codes).all())


def _gf2_basis(codes: np.ndarray) -> np.ndarray:
    """Basis of the GF(2) span of uint64 codes, leading bits descending.

    The largest code left holds the highest leading bit left, so min(c, c ^
    pivot) clears that bit wherever it is set: at most 64 steps in all."""
    basis = []
    rest = codes[codes != 0]
    while rest.size:
        pivot = rest.max()
        basis.append(pivot)
        rest = np.minimum(rest, rest ^ pivot)
        rest = rest[rest != 0]
    return np.array(basis, dtype=np.uint64)


def capped_basis(codes: np.ndarray, cap: int) -> np.ndarray:
    """GF(2) basis of uint64 codes; ClosureExplosion with the exact size
    2**r - 1 when their span has more than `cap` non-identity strings."""
    basis = _gf2_basis(codes)
    size = 2 ** basis.size - 1
    if size > cap:
        raise ClosureExplosion(size, cap)
    return basis


def close_codes(n: int, codes, cap: int = DEFAULT_CLOSURE_CAP) -> ClosedTermSet:
    """Multiplicative closure of the given non-identity codes.

    The closure is the GF(2) span of the codes minus the zero word. Gaussian
    elimination finds a basis of rank r; when the exact size 2**r - 1 exceeds
    `cap`, ClosureExplosion says so before anything is enumerated. Otherwise
    the span is built by r doublings and one sort."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    codes = np.asarray(list(codes), dtype=np.uint64)
    if codes.size and int(codes.max()) >= 4**n:
        raise ValueError(f"code {int(codes.max())} out of range for n={n}")
    span = np.zeros(1, dtype=np.uint64)
    for b in capped_basis(codes, cap):
        span = np.concatenate((span, span ^ b))
    span.sort()
    return ClosedTermSet(n, span[1:])


def close(h: SparseHamiltonian, cap: int = DEFAULT_CLOSURE_CAP) -> ClosedTermSet:
    """Closure of a Hamiltonian's support under string composition."""
    return close_codes(h.n, h.support, cap)


def random_closed_hamiltonian(rng: np.random.Generator, n: int, rank: int) -> SparseHamiltonian:
    """Random Hamiltonian whose support is a full closed set of 2**rank - 1
    codes: the closure of `rank` codes drawn from rng until they are
    independent, with coefficients uniform in [-1, 1]. No n-qubit span has
    rank above 2n, so a larger rank raises ValueError before any draw."""
    if rank > 2 * n:
        raise ValueError(f"rank {rank} exceeds 2n = {2 * n}, the most n={n} qubits allow")
    while True:
        gens = rng.integers(1, 4**n, size=rank, dtype=np.uint64)
        if _gf2_basis(gens).size == rank:
            break
    ts = close_codes(n, gens, cap=2**rank - 1)
    vals = rng.uniform(-1.0, 1.0, size=len(ts))
    return SparseHamiltonian(n, {int(c): float(v) for c, v in zip(ts.codes, vals)})


_PAULI_1Q = (
    np.array([[1, 0], [0, 1]], dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

_PAULI_TENSOR = np.stack(_PAULI_1Q)  # (k, i, j)


def _coefficient_tensor(m: np.ndarray, n: int) -> np.ndarray:
    """All 4**n coefficients tr(P_K m) / 2**n by per-qubit contraction."""
    cur = m.reshape((2,) * (2 * n))
    # axes: (j_1..j_n, i_1..i_n); each step eats one (j, i) pair and
    # prepends the qubit's k axis, so after step t the j axis of qubit t+1
    # sits at position t and its i axis at position n
    for t in range(n):
        cur = np.tensordot(_PAULI_TENSOR, cur, axes=([2, 1], [t, n]))
    order = tuple(reversed(range(n)))
    return cur.transpose(order).reshape(4**n) / (2**n)


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


def pauli_decompose(
    m: np.ndarray,
    zero_tol: float = 1e-12,
    hermitian_tol: float = 1e-10,
):
    """Expand a 2**n square matrix in the Pauli string basis.

    Hermitian input (max entrywise defect <= hermitian_tol) comes back as a
    SparseHamiltonian with real coefficients and the identity component in
    identity_offset; anything else comes back as a complex PauliExpansion.
    Coefficients with |c| <= zero_tol are dropped either way.
    """
    m = np.asarray(m, dtype=np.complex128)
    n = qubit_count(m)
    coeffs = _coefficient_tensor(m, n)
    hermitian = np.abs(m - m.conj().T).max() <= hermitian_tol
    if hermitian:
        terms: dict[int, float] = {}
        offset = float(coeffs[0].real)
        for code in np.nonzero(np.abs(coeffs) > zero_tol)[0]:
            if code == 0:
                continue
            terms[int(code)] = float(coeffs[code].real)
        return SparseHamiltonian(n, terms, identity_offset=offset)
    out: dict[int, complex] = {}
    for code in np.nonzero(np.abs(coeffs) > zero_tol)[0]:
        out[int(code)] = complex(coeffs[code])
    return PauliExpansion(n, out)


# ---------------------------------------------------------------------------
# file formats


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_hamiltonian_text(text: str) -> SparseHamiltonian:
    """Parse the line-oriented format: one `<coeff> <pauli>` pair per line.

    Blank lines and `#` comments (full-line or trailing) are ignored. The
    Pauli column accepts digits or IXYZ letters; identity lines accumulate
    into the offset; repeated strings accumulate coefficients.
    """
    n = None
    terms: dict[int, float] = {}
    offset = 0.0
    seen_any = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(
                f"line {lineno}: expected `<coeff> <pauli>`, got {raw.strip()!r}"
            )
        try:
            h = float(parts[0])
        except ValueError:
            raise FormatError(f"line {lineno}: bad coefficient {parts[0]!r}") from None
        try:
            p = parse_string(parts[1])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if n is None:
            n = p.n
        elif p.n != n:
            raise FormatError(
                f"line {lineno}: string length {p.n} != {n} from earlier lines"
            )
        seen_any = True
        if p.code == 0:
            offset += h
        else:
            terms[p.code] = terms.get(p.code, 0.0) + h
    if not seen_any:
        raise FormatError("no terms found")
    return SparseHamiltonian(n, terms, identity_offset=offset)


def parse_hamiltonian_json(text: str) -> SparseHamiltonian:
    """Parse {"n": ..., "terms": [{"coeff": ..., "pauli": ...}, ...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from None
    if not isinstance(doc, dict) or "n" not in doc or "terms" not in doc:
        raise FormatError('expected an object with "n" and "terms"')
    n = doc["n"]
    if not isinstance(n, int) or not 1 <= n <= MAX_QUBITS:
        raise FormatError(f'"n" must be an integer in [1, {MAX_QUBITS}]')
    if not isinstance(doc["terms"], list):
        raise FormatError('"terms" must be a list')
    terms: dict[int, float] = {}
    offset = 0.0
    for i, entry in enumerate(doc["terms"]):
        if not isinstance(entry, dict) or "coeff" not in entry or "pauli" not in entry:
            raise FormatError(f'terms[{i}]: expected {{"coeff", "pauli"}}')
        coeff = entry["coeff"]
        if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
            raise FormatError(f"terms[{i}]: coeff must be a real number")
        try:
            p = parse_string(str(entry["pauli"]))
        except ValueError as exc:
            raise FormatError(f"terms[{i}]: {exc}") from None
        if p.n != n:
            raise FormatError(f"terms[{i}]: string length {p.n} != n={n}")
        if p.code == 0:
            offset += float(coeff)
        else:
            terms[p.code] = terms.get(p.code, 0.0) + float(coeff)
    return SparseHamiltonian(n, terms, identity_offset=offset)


def parse_hamiltonian(text: str) -> SparseHamiltonian:
    """Parse either format, sniffing JSON by a leading '{'."""
    if text.lstrip().startswith("{"):
        return parse_hamiltonian_json(text)
    return parse_hamiltonian_text(text)


def load_hamiltonian(path) -> SparseHamiltonian:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hamiltonian(fh.read())


def format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def hamiltonian_to_dict(h: SparseHamiltonian, alphabet: str = "digits") -> dict:
    """{"n", "terms": [{"coeff", "pauli"}, ...]}, the JSON input format, terms
    in ascending code order after the identity when its offset is nonzero."""
    codes = ([0] if h.identity_offset != 0.0 else []) + list(h.support)
    coeffs = [h.identity_offset if code == 0 else h.terms[code] for code in codes]
    return {"n": h.n, "terms": [{"coeff": c, "pauli": p}
                                for p, c in zip(format_codes(h.n, codes, alphabet), coeffs)]}


def format_hamiltonian_text(h: SparseHamiltonian, alphabet: str = "digits") -> str:
    """Render back into the line format, identity line first when nonzero."""
    terms = hamiltonian_to_dict(h, alphabet)["terms"]
    return "\n".join(f"{t['coeff']:.17g} {t['pauli']}" for t in terms) + "\n"


def coeff_entries(labels, coeffs) -> list[dict]:
    """One {"pauli", "re", "im"} entry per label and complex coefficient."""
    return [{"pauli": p, "re": c.real, "im": c.imag} for p, c in zip(labels, coeffs)]


def coeff_lines(labels, coeffs, prefix: str = "") -> list[str]:
    """One `label re im` line per label and complex coefficient."""
    return [f"{prefix}{p} {c.real:.17g} {c.imag:.17g}" for p, c in zip(labels, coeffs)]


def format_expansion_text(e: PauliExpansion, method: str, beta=None, alphabet="digits") -> str:
    """`# n`, `# beta` (when given) and `# method` header lines, then one
    `label re im` line per coefficient in ascending code order."""
    lines = [f"# n {e.n}"]
    if beta is not None:
        lines.append(f"# beta {format_complex(beta)}")
    lines.append(f"# method {method}")
    support = e.support
    lines += coeff_lines(format_codes(e.n, support, alphabet), map(e.coeffs.get, support))
    return "\n".join(lines) + "\n"


def expansion_to_dict(
    e: PauliExpansion, beta: complex | None = None, alphabet: str = "digits"
) -> dict:
    """JSON-ready dict for an expansion, coefficients in ascending code order."""
    doc: dict = {"n": e.n}
    if beta is not None:
        doc["beta"] = {"re": beta.real, "im": beta.imag}
    support = e.support
    doc["coeffs"] = coeff_entries(format_codes(e.n, support, alphabet), map(e.coeffs.get, support))
    return doc


def expansion_from_dict(doc: dict) -> tuple[PauliExpansion, complex | None]:
    """Inverse of expansion_to_dict; returns (expansion, beta or None)."""
    if not isinstance(doc, dict) or "n" not in doc or "coeffs" not in doc:
        raise FormatError('expected an object with "n" and "coeffs"')
    n = doc["n"]
    if not isinstance(n, int) or not 1 <= n <= MAX_QUBITS:
        raise FormatError(f'"n" must be an integer in [1, {MAX_QUBITS}]')
    beta = None
    if "beta" in doc:
        b = doc["beta"]
        if not isinstance(b, dict) or "re" not in b or "im" not in b:
            raise FormatError('"beta" must be {"re", "im"}')
        beta = complex(float(b["re"]), float(b["im"]))
    coeffs: dict[int, complex] = {}
    for i, entry in enumerate(doc["coeffs"]):
        if not isinstance(entry, dict) or not {"pauli", "re", "im"} <= entry.keys():
            raise FormatError(f'coeffs[{i}]: expected {{"pauli", "re", "im"}}')
        try:
            p = parse_string(str(entry["pauli"]))
        except ValueError as exc:
            raise FormatError(f"coeffs[{i}]: {exc}") from None
        if p.n != n:
            raise FormatError(f"coeffs[{i}]: string length {p.n} != n={n}")
        coeffs[p.code] = complex(float(entry["re"]), float(entry["im"]))
    return PauliExpansion(n, coeffs), beta
