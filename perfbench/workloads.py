"""Inputs, operations and reference results of the three workloads.

Every input is generated here from the seed, except the fixtures that the
symmetry check and the large-beta overflow ops run on. Large-n
inputs are images of inputs on at most six qubits under identity padding
and a random Clifford (see ``paulis.Embedding``), so their exact results
come from a dense matrix on the preimage. The structure of each input
(n, rank r = 2s + c, tau) does not depend on the seed; the coefficients,
the Clifford and the times and temperatures do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from paulis import Clifford, Embedding, Span, code_string, coefficients, commute, dense

WORKLOADS = ("evolve-flat", "thermal-grid", "large-closure")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@dataclass
class Input:
    """A Hamiltonian file for the program, with its small dense preimage."""

    name: str
    n: int
    terms: dict[int, float]  # the program's input, on n qubits
    pre_m: int
    pre_terms: dict[int, float]  # the same Hamiltonian before the embedding
    embedding: Embedding | None
    path: str = ""  # set when written, or the fixture's path
    span: Span = field(init=False)
    _memo: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        self.span = Span(self.terms)  # code 0, the identity, adds nothing

    @property
    def tau(self) -> int:
        return 2**self.span.rank - 1

    def structure(self) -> tuple[int, int, int]:
        """(r, s, c): rank of the support's span, hyperbolic pairs, center."""
        basis = list(self.span.basis.values())
        r = len(basis)
        # rank over GF(2) of the commutation form on the basis is 2s
        rows = []
        for a in basis:
            v = 0
            for j, b in enumerate(basis):
                if not commute(a, b, self.n):
                    v |= 1 << j
            rows.append(v)
        form_rank = Span(rows).rank
        return r, form_rank // 2, r - form_rank

    def anticommuting(self) -> bool:
        codes = list(self.terms)
        return all(
            not commute(a, b, self.n) for i, a in enumerate(codes) for b in codes[i + 1 :]
        )

    def text(self) -> str:
        return "".join(f"{h!r} {code_string(c, self.n)}\n" for c, h in sorted(self.terms.items()))

    # -- exact results, from scipy.linalg.expm on the preimage -----------------

    def _matrix(self) -> np.ndarray:
        return dense(self.pre_terms, self.pre_m)

    def _expand(self, mat: np.ndarray) -> dict[int, complex]:
        pre_span = Span(self.pre_terms).elements()
        coeffs = coefficients(mat, pre_span, self.pre_m)
        return self.embedding.map(coeffs) if self.embedding else coeffs

    def exp(self, beta: complex) -> dict[int, complex]:
        """Coefficients of exp(-beta H) on the span of the support and I."""
        key = ("exp", beta)
        if key not in self._memo:
            with np.errstate(all="ignore"):
                self._memo[key] = self._expand(scipy.linalg.expm(-beta * self._matrix()))
        return self._memo[key]

    def thermal(self, beta: float) -> tuple[float, float, dict[int, complex]]:
        """(log tr exp(-beta H), its shift-free trace, Gibbs coefficients).

        For beta > 0. The exponential is taken of H - lambda_min, so the Gibbs
        state stays finite at every beta; the trace is inf where it overflows.
        """
        key = ("thermal", beta)
        if key not in self._memo:
            self._memo[key] = self._thermal(beta)
        return self._memo[key]

    def _thermal(self, beta: float):
        mat = self._matrix()
        w0 = float(np.linalg.eigvalsh(mat)[0])
        shifted = scipy.linalg.expm(-beta * (mat - w0 * np.eye(2**self.pre_m)))
        tr = float(np.trace(shifted).real)
        log_z = math.log(tr) - beta * w0 + (self.n - self.pre_m) * math.log(2)
        z_trace = math.exp(log_z) if log_z < 709 else math.inf
        gibbs = self._expand(shifted / (tr * 2 ** (self.n - self.pre_m)))
        return log_z, z_trace, gibbs


@dataclass
class Op:
    """One CLI invocation; ``argv`` lacks only ``-o``."""

    name: str
    argv: list[str]
    kind: str  # "exp", "gibbs" or "partition"
    inp: Input
    betas: list[complex]
    fmt: str
    gibbs_rows: bool = False
    mirror: Input | None = None
    expect_fail: bool = False

    @property
    def evals(self) -> int:
        """(input, beta) exponentials the op asks for."""
        return len(self.betas) * (2 if self.mirror else 1)


# ---------------------------------------------------------------------------
# generators


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _standard_span(s: int, c: int) -> list[int]:
    """All non-identity strings spanned by X_j, Z_j (j <= s) and Z_j (s < j <= s+c).

    Rank r = 2s + c, commutation form of rank 2s, center of dimension c.
    """
    m = s + c
    gens = []
    for j in range(s):
        gens += [1 << 2 * (m - 1 - j), 3 << 2 * (m - 1 - j)]
    gens += [3 << 2 * (m - 1 - j) for j in range(s, m)]
    return sorted(Span(gens).elements())[1:]


def _embed(name: str, n: int, m: int, pre_terms: dict[int, float], rng) -> Input:
    emb = Embedding(m, Clifford.random(n, rng))
    terms = {c: float(v.real) for c, v in emb.map(pre_terms).items()}
    return Input(name, n, terms, m, pre_terms, emb)


def closed_set(n: int, s: int, c: int, rng) -> Input:
    """Fully populated closed set of rank 2s + c, mapped to n qubits, plus
    an identity term."""
    codes = _standard_span(s, c)
    values = rng.uniform(-1.0, 1.0, len(codes)) / math.sqrt(len(codes))
    pre = {k: float(v) for k, v in zip(codes, values)}
    pre[0] = float(rng.uniform(-1.0, 1.0))
    return _embed(f"closed_r{2 * s + c}_s{s}c{c}_n{n}", n, s + c, pre, rng)


def triple(n: int, rng) -> Input:
    """X, Y, Z on one qubit, mapped to n qubits: pairwise anticommuting, tau 3."""
    values = rng.uniform(0.2, 1.0, 3) * rng.choice([-1.0, 1.0], 3)
    return _embed(f"triple_n{n}", n, 1, dict(zip((1, 2, 3), map(float, values))), rng)


def pattern(n: int, rng) -> Input:
    """The 3-generator pattern (all-X, all-Z, X on qubit 1) on 4 qubits,
    closed to its 7 strings and mapped to n qubits."""
    gens = (int("1111", 4), int("3333", 4), int("1000", 4))
    codes = sorted(Span(gens).elements())[1:]
    values = rng.uniform(-1.0, 1.0, len(codes))
    return _embed(f"pattern_n{n}", n, 4, dict(zip(codes, map(float, values))), rng)


def xy_chain(n: int, periodic: bool, rng) -> Input:
    """XX + YY couplings and Z fields, random strengths; rank 2n - 1 for n = 5."""
    terms = {}
    bonds = [(j, j + 1) for j in range(n - 1)] + ([(n - 1, 0)] if periodic else [])
    for a, b in bonds:
        for d in (1, 2):
            terms[(d << 2 * (n - 1 - a)) | (d << 2 * (n - 1 - b))] = float(rng.uniform(0.5, 1.5))
    for a in range(n):
        terms[3 << 2 * (n - 1 - a)] = float(rng.uniform(0.2, 1.0))
    name = f"xy_{'periodic' if periodic else 'open'}_n{n}"
    return Input(name, n, terms, n, terms, None)


def fixture(name: str) -> Input:
    """A fixture file, read with the benchmark's own parser."""
    path = str(FIXTURES / name)
    terms: dict[int, float] = {}
    n = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].split()
            if line:
                n = len(line[1])
                code = int(line[1], 4)
                terms[code] = terms.get(code, 0.0) + float(line[0])
    inp = Input(name.removesuffix(".txt"), n, terms, n, terms, None)
    inp.path = path
    return inp


def _grid(rng, points: int, lo: float = 0.05, hi: float = 5.0) -> list[float]:
    return sorted(float(b) for b in np.exp(rng.uniform(math.log(lo), math.log(hi), points)))


def _betas_arg(betas) -> str:
    return ",".join(repr(b) for b in betas)


# ---------------------------------------------------------------------------
# workloads

EVOLVE_NS = (4, 8, 16, 24, 32)
EVOLVE_TIMES = 4
# tau 15, 31, 63 as (s, c); fixed per tau so the scan over n is like for like
EVOLVE_CLOSED = ((2, 0), (2, 1), (2, 2))

# (s, c, n, grid points): ranks 4-7, tau 15-127. With the four fixture ops
# a round has 15 ops of well separated cost, so the median and the 90th
# percentile each fall in the middle of one op's samples, not between two.
THERMAL_CLOSED = (
    (1, 2, 4, 32),
    (2, 0, 32, 16),
    (2, 1, 8, 24),
    (1, 3, 24, 16),
    (2, 1, 32, 16),
    (3, 0, 16, 16),
    (2, 2, 32, 24),
    (3, 0, 8, 32),
    (3, 1, 8, 16),
    (2, 3, 32, 16),
    (3, 1, 16, 24),
)
THERMAL_SYMMETRY_POINTS = 16
# the large-real-beta overflow: these ops fail on every run until it is mended
OVERFLOW_BETA = 1000.0
OVERFLOW_GRID = (1.0, 10.0, 100.0, OVERFLOW_BETA)

# (s, c, n, betas): tau 511 and 1023. A round has 7 ops: the two chains
# (about 0.2 s each), four tau-511 closed-set ops (about 0.3 s) and one
# tau-1023 op (about 2 s), so the median falls in the middle of the
# closed-set ops rather than between two groups of different cost.
LARGE_CLOSED = (
    (4, 1, 16, (1.0, 1j)),
    (3, 3, 32, (1.0, 1j)),
    (5, 0, 32, (1j,)),
)
LARGE_CHAIN_N = 5


def _exp_op(inp: Input, beta: complex, expect_fail: bool = False) -> Op:
    if beta.real == 0:
        flag = ["--time", repr(beta.imag)]
    else:
        flag = ["--beta", repr(beta.real)]
    label = "t" if beta.real == 0 else "beta"
    return Op(
        f"exp:{inp.name}:{label}={flag[1]}",
        ["exp", *flag, "--format", "pauli-json", "-i", inp.path],
        "exp", inp, [beta], "pauli-json", expect_fail=expect_fail,
    )


def build(workload: str, seed: int, directory) -> tuple[list[Input], list[Op]]:
    """The workload's inputs, written to ``directory``, and one round of its ops."""
    inputs: list[Input] = []
    ops: list[Op] = []
    if workload == "evolve-flat":
        for k, n in enumerate(EVOLVE_NS):
            rng = _rng(seed, 0, k)
            inputs += [triple(n, rng), pattern(n, rng)]
            inputs += [closed_set(n, s, c, rng) for s, c in EVOLVE_CLOSED]
        _write(inputs, directory)
        for i, inp in enumerate(inputs):
            times = _rng(seed, 1, i).uniform(0.1, 2.0, EVOLVE_TIMES)
            ops += [_exp_op(inp, complex(0.0, float(t))) for t in times]
    elif workload == "thermal-grid":
        for k, (s, c, n, points) in enumerate(THERMAL_CLOSED):
            rng = _rng(seed, 0, k)
            inp = closed_set(n, s, c, rng)
            inputs.append(inp)
            _write([inp], directory)
            betas = _grid(rng, points)
            ops.append(Op(
                f"partition-gibbs:{inp.name}:{points}",
                ["partition", "--betas", _betas_arg(betas), "--gibbs", "--format", "json",
                 "-i", inp.path],
                "partition", inp, betas, "json", gibbs_rows=True,
            ))
        h2, mirror, h1 = fixture("h2.txt"), fixture("h2_mirror.txt"), fixture("h1.txt")
        betas = _grid(_rng(seed, 2), THERMAL_SYMMETRY_POINTS)
        ops.append(Op(
            "partition-symmetry:h2",
            ["partition", "--betas", _betas_arg(betas), "--symmetry-check", mirror.path,
             "--format", "text", "-i", h2.path],
            "partition", h2, betas, "text", mirror=mirror,
        ))
        ops.append(_exp_op(h1, complex(OVERFLOW_BETA), expect_fail=True))
        ops.append(Op(
            "gibbs:h1:beta=1000",
            ["gibbs", "--beta", repr(OVERFLOW_BETA), "--format", "pauli-json", "-i", h1.path],
            "gibbs", h1, [OVERFLOW_BETA], "pauli-json", expect_fail=True,
        ))
        ops.append(Op(
            "partition:h1:to-beta=1000",
            ["partition", "--betas", _betas_arg(OVERFLOW_GRID), "--format", "json",
             "-i", h1.path],
            "partition", h1, list(OVERFLOW_GRID), "json", expect_fail=True,
        ))
        inputs += [h2, mirror, h1]
    elif workload == "large-closure":
        rng = _rng(seed, 0)
        chains = [xy_chain(LARGE_CHAIN_N, False, rng), xy_chain(LARGE_CHAIN_N, True, rng)]
        closed = [closed_set(n, s, c, _rng(seed, 1, k))
                  for k, (s, c, n, _) in enumerate(LARGE_CLOSED)]
        inputs = chains + closed
        _write(inputs, directory)
        ops += [_exp_op(chains[0], complex(1.0)), _exp_op(chains[1], complex(0.0, 1.0))]
        for inp, (*_, betas) in zip(closed, LARGE_CLOSED):
            ops += [_exp_op(inp, complex(b)) for b in betas]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs, ops


def _write(inputs: list[Input], directory) -> None:
    for inp in inputs:
        inp.path = str(directory / f"{inp.name}.txt")
        with open(inp.path, "w", encoding="utf-8") as fh:
            fh.write(inp.text())
