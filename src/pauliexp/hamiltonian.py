"""Sparse Pauli sums: types, closures, random closed sets, text and JSON formats.

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
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ClosureExplosion, FormatError
from .pauli import MAX_QUBITS, LabelError, format_codes, parse_codes

DEFAULT_CLOSURE_CAP = 4096
LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)  # the largest x with exp(x) finite


def checked_codes(n: int, codes, identity_error: str | None = None) -> np.ndarray:
    """codes as a contiguous uint64 array, checked one-dimensional, strictly
    increasing and below 4**n on 1 to MAX_QUBITS qubits. Code 0 raises
    ValueError(identity_error) unless identity_error is None."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    try:
        codes = np.ascontiguousarray(codes, dtype=np.uint64)
    except OverflowError as exc:  # a negative code, or one past 64 bits
        raise ValueError(f"code out of range for n={n}: {exc}") from None
    if codes.ndim != 1:
        raise ValueError("codes must be one-dimensional")
    if codes.size:
        if identity_error is not None and codes[0] == 0:
            raise ValueError(identity_error)
        if not (codes[1:] > codes[:-1]).all():
            raise ValueError("codes must be strictly increasing")
        if int(codes[-1]) >= 4**n:
            raise ValueError(f"code {int(codes[-1])} out of range for n={n}")
    return codes


def _finite_values(codes: np.ndarray, values, dtype) -> np.ndarray:
    """values as a contiguous `dtype` array, checked finite and one per code."""
    values = np.ascontiguousarray(values, dtype=dtype)
    if values.shape != codes.shape:
        raise ValueError(f"values of shape {values.shape} for {codes.size} codes")
    if not np.isfinite(values).all():
        bad = np.flatnonzero(~np.isfinite(values))[0]
        raise ValueError(f"non-finite coefficient for code {int(codes[bad])}")
    return values


def _equal_fields(a, b) -> bool:
    """Field-by-field equality, arrays compared elementwise."""
    if type(a) is not type(b):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


@dataclass(frozen=True, eq=False)
class SparseHamiltonian:
    """Real combination of non-identity Pauli strings, identity kept aside.

    `codes` is a strictly increasing uint64 array of non-identity codes and
    `values` their real coefficients; the identity component lives in
    identity_offset. Zero coefficients are dropped.
    """

    n: int
    codes: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    identity_offset: float = 0.0
    __eq__ = _equal_fields

    def __post_init__(self):
        codes = checked_codes(self.n, self.codes,
                              "identity term belongs in identity_offset, not terms")
        values = _finite_values(codes, self.values, np.float64)
        if not np.isfinite(self.identity_offset):
            raise ValueError("non-finite identity offset")
        kept = values != 0.0
        object.__setattr__(self, "codes", codes[kept])
        object.__setattr__(self, "values", values[kept])
        object.__setattr__(self, "identity_offset", float(self.identity_offset))


@dataclass(frozen=True, eq=False)
class PauliExpansion:
    """Complex expansion sum_K c_K P_K, identity included as code 0.

    `codes` is a strictly increasing uint64 array and `values` the complex
    coefficients.
    """

    n: int
    codes: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    __eq__ = _equal_fields

    def __post_init__(self):
        codes = checked_codes(self.n, self.codes)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "values", _finite_values(codes, self.values, np.complex128))


def gf2_basis(codes: np.ndarray) -> np.ndarray:
    """Basis of the GF(2) span of uint64 codes, leading bits descending.

    The largest code left holds the highest leading bit left, so min(c, c ^
    pivot) clears that bit wherever it is set: at most 64 steps in all."""
    basis, rest = [], codes
    while pivot := rest.max(initial=0):
        basis.append(pivot)
        rest = np.minimum(rest, rest ^ pivot)
    return np.array(basis, dtype=np.uint64)


def close_codes(n: int, codes, cap: int = DEFAULT_CLOSURE_CAP) -> np.ndarray:
    """Multiplicative closure of the given non-identity codes, as a strictly
    increasing uint64 array without the identity.

    The closure is the GF(2) span of the codes minus the zero word. Gaussian
    elimination finds a basis of rank r; when the exact size 2**r - 1 exceeds
    `cap`, ClosureExplosion says so before anything is enumerated. Otherwise
    the span is built by r doublings and one sort."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    codes = np.fromiter(codes, dtype=np.uint64)
    if codes.size and int(codes.max()) >= 4**n:
        raise ValueError(f"code {int(codes.max())} out of range for n={n}")
    basis = gf2_basis(codes)
    if 2**basis.size - 1 > cap:
        raise ClosureExplosion(2**basis.size - 1, cap)
    span = np.zeros(1, dtype=np.uint64)
    for b in basis:
        span = np.concatenate((span, span ^ b))
    span.sort()
    return span[1:]


def close(h: SparseHamiltonian, cap: int = DEFAULT_CLOSURE_CAP) -> np.ndarray:
    """Closure of a Hamiltonian's support under string composition."""
    return close_codes(h.n, h.codes, cap)


def random_closed_hamiltonian(rng: np.random.Generator, n: int, s: int,
                              c: int) -> SparseHamiltonian:
    """Random Hamiltonian on the full closed set of s anticommuting pairs and
    c central strings, 2**(2s + c) - 1 codes with coefficients uniform in
    [-1, 1]. X_q, Z_q (q < s) and Z_q (s <= q < s + c), qubit 0 first as in
    labels, are moved by 8n random CNOT, H and S gates on their (x, z) bits,
    which keep every commutation relation (Aaronson and Gottesman, PRA 70,
    052328, 2004). A shape outside s, c >= 0 and s + c <= n, or n outside
    [1, MAX_QUBITS], raises ValueError before any draw."""
    if not 1 <= n <= MAX_QUBITS or min(s, c) < 0 or s + c > n:
        raise ValueError(f"no closed set of shape (s, c) = ({s}, {c}) on n = {n} qubits: "
                         f"need s, c >= 0, s + c <= n and 1 <= n <= {MAX_QUBITS}")
    x, z = np.zeros((2, 2 * s + c, n), dtype=bool)
    q = np.arange(s + c)
    x[q[:s], q[:s]] = z[s + q, q] = True
    for _ in range(8 * n):
        a, b = rng.choice(n, 2, replace=n == 1)  # a == b only at n = 1, which skips CNOT
        gate = rng.integers(3)
        if gate == 0 and a != b:  # CNOT a -> b
            x[:, b] ^= x[:, a]
            z[:, a] ^= z[:, b]
        elif gate == 1:  # H
            x[:, a], z[:, a] = z[:, a].copy(), x[:, a].copy()
        elif gate == 2:  # S
            z[:, a] ^= x[:, a]
    digits = (2 * z + (x ^ z)).astype(np.uint64)  # X = 1, Y = 2, Z = 3
    gens = (digits << 2 * np.arange(n - 1, -1, -1, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)
    codes = close_codes(n, gens, cap=2 ** (2 * s + c) - 1)
    return SparseHamiltonian(n, codes, rng.uniform(-1.0, 1.0, size=codes.size))


# ---------------------------------------------------------------------------
# file formats


def _summed(n: int, codes: np.ndarray, values) -> SparseHamiltonian:
    """Hamiltonian with the values of repeated codes summed in input order
    (np.add.at is ordered, so sums match a running total bit for bit) and
    code 0 summed into the identity offset; codes that strictly increase skip np.unique."""
    unique, inverse = ((codes, slice(None)) if (codes[1:] > codes[:-1]).all()
                       else np.unique(codes, return_inverse=True))
    sums = np.zeros(unique.size)
    with np.errstate(over="ignore", invalid="ignore"):  # left to the non-finite check
        np.add.at(sums, inverse, values)
    skip = int(unique.size > 0 and unique[0] == 0)
    return SparseHamiltonian(n, unique[skip:], sums[skip:], sums[0] if skip else 0.0)


def _read_terms(rows, value_of, label_of, where, n: int | None = None):
    """(codes, values, labels) of the (place, row) pairs of one file.

    value_of(row) is the row's coefficient or a ValueError naming its
    fault, label_of(row) its Pauli label. The first fault is reported as a
    FormatError at where(place): a row's coefficient is checked before its
    label, and a label on an earlier row before a coefficient on a later one.
    """
    places, values, labels, fault = [], [], [], None
    for place, row in rows:
        try:
            values.append(value_of(row))
        except ValueError as exc:
            fault = FormatError(f"{where(place)}: {exc}")
            break
        places.append(place)
        labels.append(label_of(row))
    try:
        codes = parse_codes(labels, n)
    except LabelError as exc:
        raise FormatError(f"{where(places[exc.index])}: {exc}") from None
    if fault:
        raise fault
    return codes, values, labels


def _qubits(doc, key: str) -> int:
    """The "n" of a JSON document that must also hold `key`."""
    if not isinstance(doc, dict) or "n" not in doc or key not in doc:
        raise FormatError(f'expected an object with "n" and "{key}"')
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_QUBITS:
        raise FormatError(f'"n" must be an integer in [1, {MAX_QUBITS}]')
    return n


def _line_value(line: tuple[str, list[str]]) -> float:
    """Coefficient of a (raw, fields) `<coeff> <pauli>` line; ValueError
    naming the fault."""
    raw, parts = line
    if len(parts) != 2:
        raise ValueError(f"expected `<coeff> <pauli>`, got {raw.strip()!r}")
    try:
        value = float(parts[0])
    except ValueError:
        raise ValueError(f"bad coefficient {parts[0]!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite coefficient {parts[0]!r}")
    return value


def _real(value, name: str) -> float:
    """A JSON number as a finite float; ValueError naming the field `name`
    for a bool, a non-number or a non-finite value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a real number")
    try:
        value = float(value)
    except OverflowError:  # an int beyond float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number")
    return value


def _entry_value(entry) -> float:
    """Coefficient of a {"coeff", "pauli"} entry; ValueError naming the fault."""
    if not isinstance(entry, dict) or "coeff" not in entry or "pauli" not in entry:
        raise ValueError('expected {"coeff", "pauli"}')
    value = _real(entry["coeff"], "coeff")
    if not isinstance(entry["pauli"], str):
        raise ValueError("pauli must be a string")
    return value


def parse_hamiltonian_text(text: str) -> SparseHamiltonian:
    """Parse the line-oriented format: one `<coeff> <pauli>` pair per line.

    Blank lines and `#` comments (full-line or trailing) are ignored. The
    Pauli column accepts digits or IXYZ letters; identity lines accumulate
    into the offset; repeated strings accumulate coefficients. The first
    bad line is reported, a line's coefficient before its Pauli string.
    Well-formed lines are read in one pass over the fields of the whole text;
    a fault sends the text line by line, which names the first bad line.
    """
    # comments cut, each line kept in its place
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines()) if "#" in text else text
    try:  # every line `<coeff> <pauli>` or blank, and one at least, or a ValueError
        if not {2} <= set(map(len, map(str.split, body.splitlines()))) <= {0, 2}:
            raise ValueError
        # every line break is whitespace to str.split, so the fields run line by line
        fields = body.split()
        values = np.array(list(map(float, fields[0::2])))
        if not np.isfinite(values).all():
            raise ValueError
        labels = fields[1::2]
        codes = parse_codes(labels)
    except ValueError:  # LabelError included
        lines = [(lineno, (raw, parts)) for lineno, raw in enumerate(text.splitlines(), start=1)
                 if (parts := raw.split("#", 1)[0].split())]
        codes, values, labels = _read_terms(lines, _line_value, lambda line: line[1][1],
                                            "line {}".format)
        if not labels:
            raise FormatError("no terms found")
    return _summed(len(labels[0]), codes, values)


def parse_hamiltonian_json(text: str) -> SparseHamiltonian:
    """Parse {"n": ..., "terms": [{"coeff": ..., "pauli": ...}, ...]}.

    The first bad entry is reported, an entry's coefficient before its
    Pauli string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from None
    n = _qubits(doc, "terms")
    if not isinstance(doc["terms"], list):
        raise FormatError('"terms" must be a list')
    codes, values, _ = _read_terms(enumerate(doc["terms"]), _entry_value,
                                   lambda entry: entry["pauli"], "terms[{}]".format, n)
    return _summed(n, codes, values)


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
    codes, coeffs = h.codes.tolist(), h.values.tolist()
    if h.identity_offset != 0.0:
        codes, coeffs = [0] + codes, [h.identity_offset] + coeffs
    return {"n": h.n, "terms": [{"coeff": c, "pauli": p}
                                for p, c in zip(format_codes(h.n, codes, alphabet), coeffs)]}


def format_hamiltonian_text(h: SparseHamiltonian, alphabet: str = "digits") -> str:
    """Render back into the line format, identity line first when nonzero."""
    terms = hamiltonian_to_dict(h, alphabet)["terms"]
    return "\n".join(f"{t['coeff']:.17g} {t['pauli']}" for t in terms) + "\n"


def coeff_entries(labels, coeffs) -> list[dict]:
    """One {"pauli", "re", "im"} entry per label and complex coefficient."""
    return [{"pauli": p, "re": c.real, "im": c.imag} for p, c in zip(labels, coeffs)]


def coeffs_json(labels, values):
    """JSON text of the coefficient list of `labels` and their complex
    `values` (an array), byte for byte json.dumps(coeff_entries(labels,
    values.tolist())) for labels that json writes as they are, such as
    Pauli labels; for 2-D `values`, a list of such texts, one per row.
    The labels are written into one template, once, and the numbers of all
    rows are rendered by one repr of a list, which is float.__repr__ as json
    uses it: the real and the imaginary parts in turn, or, when every
    imaginary part is +0.0, the real parts alone, the template holding the
    constant 0.0. A non-finite value raises ValueError."""
    values = np.asarray(values)
    if not np.isfinite(values).all():
        raise ValueError("non-finite coefficient in a JSON coefficient list")
    real = not (values.imag.any() or np.signbit(values.imag).any())  # every imaginary part +0.0
    tail = '", "re": %s, "im": ' + ("0.0}" if real else "%s}")
    template = ('[{"pauli": "' + (tail + ', {"pauli": "').join(labels) + tail + "]"
                if len(labels) else "[]")
    # the real parts, or the real and the imaginary parts in turn
    numbers = values.real if real else np.ascontiguousarray(values, np.complex128).view(float)
    fields = repr(numbers.reshape(-1).tolist())[1:-1].split(", ")
    k = numbers.shape[-1]  # fields a row
    texts = [template % tuple(fields[row * k:row * k + k])
             for row in range(len(values) if values.ndim == 2 else 1)]
    return texts if values.ndim == 2 else texts[0]


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
    lines += coeff_lines(format_codes(e.n, e.codes, alphabet), e.values.tolist())
    return "\n".join(lines) + "\n"


def expansion_to_dict(
    e: PauliExpansion, beta: complex | None = None, alphabet: str = "digits"
) -> dict:
    """JSON-ready dict for an expansion, coefficients in ascending code order."""
    doc: dict = {"n": e.n}
    if beta is not None:
        doc["beta"] = {"re": beta.real, "im": beta.imag}
    doc["coeffs"] = coeff_entries(format_codes(e.n, e.codes, alphabet), e.values.tolist())
    return doc

