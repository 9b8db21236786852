"""Computation paths for exp(-beta H) over a closed Pauli term set.

Three routes produce the same expansion:

  exp_spectral       eigendecompose the Hermitian structure matrix and read
                     off the first column of exp(-beta A); Reduced keeps the
                     decomposition for any number of betas
  exp_contour        trapezoidal quadrature of the resolvent around a circle
                     enclosing the spectrum
  exp_anticommuting  closed form cosh/sinh when the support pairwise
                     anticommutes

All routes multiply the result by exp(-beta * identity_offset), so the
identity component of the Hamiltonian never enters the linear algebra. The
spectral and anticommuting routes carry a log scale, so intermediate
exponentials never overflow; a result that itself does not fit in float64
raises OverflowError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import ContourError, SingularSystem
from .hamiltonian import (
    DEFAULT_CLOSURE_CAP,
    PauliExpansion,
    SparseHamiltonian,
)
from .resolvent import (
    StructureMatrix,
    build_structure_matrix,
    gershgorin_bounds,
    resolvent_at,
)

DEFAULT_NODES = 64
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)


@dataclass(frozen=True)
class ContourSpec:
    """Circle center + radius for the quadrature, and node count."""

    center: complex
    radius: float
    nodes: int = DEFAULT_NODES

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.nodes < 4:
            raise ValueError(f"need at least 4 nodes, got {self.nodes}")

    @classmethod
    def for_matrix(cls, sm, nodes: int = DEFAULT_NODES) -> "ContourSpec":
        """Default circle from Gershgorin bounds: centered on the interval
        midpoint, radius = half-spread * 1.25 + 1."""
        lo, hi = gershgorin_bounds(sm)
        center = complex((lo + hi) / 2.0)
        radius = (hi - lo) / 2.0 * 1.25 + 1.0
        return cls(center, radius, nodes)


def _scale(log_scale: complex, beta) -> complex:
    """exp(log_scale); OverflowError naming beta when it does not fit in float64."""
    try:
        return cmath.exp(log_scale)
    except OverflowError:
        raise OverflowError(
            f"exp(-beta H) at beta {complex(beta):g} does not fit in float64"
        ) from None


def _finish(sm: StructureMatrix, column: np.ndarray, h, beta) -> PauliExpansion:
    scale = _scale(-beta * h.identity_offset, beta)
    coeffs = {0: scale * complex(column[0])}
    for i in range(sm.term_set.tau):
        coeffs[sm.term_set.code_at(i)] = scale * complex(column[i + 1])
    return PauliExpansion(h.n, coeffs)


class Reduced:
    """exp(-beta H) at any number of betas from one reduction of H.

    Construction closes the support, assembles the structure matrix A and
    runs eigh once: A = V diag(w) V*. The expansion of exp(-beta H) over
    `codes` (the identity, then the closure) is then
    exp(-beta offset) V (e^{-beta w} . conj(V[0])), one matrix-vector
    product per beta, one matrix product for a grid.

    Each evaluation shifts w by lambda_min when Re beta > 0 and by
    lambda_max when Re beta < 0, so no exponential of the spectrum exceeds
    1 in modulus, and carries the shift in a log scale. Every eigenvalue of
    A is one of H - offset with weight |V[0]|^2 summing to its multiplicity
    over 2^n, so Gibbs coefficients and log partition functions stay finite
    at every finite beta. exp and exp_many raise OverflowError when the
    result itself does not fit in float64.
    """

    def __init__(self, h: SparseHamiltonian, cap: int = DEFAULT_CLOSURE_CAP):
        self.h = h
        self.sm = build_structure_matrix(h, cap=cap)
        self.w, self.v = np.linalg.eigh(self.sm.matrix)
        self.codes = np.concatenate((np.zeros(1, np.uint64), self.sm.term_set.codes))

    @property
    def tau(self) -> int:
        return self.sm.term_set.tau

    @property
    def lambda_min(self) -> float:
        return float(self.w[0])

    @property
    def lambda_max(self) -> float:
        return float(self.w[-1])

    @property
    def ground_energy(self) -> float:
        """Lowest eigenvalue of H, identity offset included."""
        return self.lambda_min + self.h.identity_offset

    def _weighted(self, betas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(betas, log_scale, t), one row per beta, such that
        exp(-beta H) = exp(log_scale) * sum_i (t @ V.T)[i] P_codes[i]."""
        betas = np.atleast_1d(np.asarray(betas, dtype=np.complex128))
        real = betas.real[:, None]
        shift = np.where(real > 0, self.w[0], np.where(real < 0, self.w[-1], 0.0))
        log_scale = -betas * (shift[:, 0] + self.h.identity_offset)
        t = np.exp(-betas[:, None] * (self.w - shift)) * np.conj(self.v[0])
        return betas, log_scale, t

    def exp_many(self, betas) -> np.ndarray:
        """Coefficients of exp(-beta H) over `codes`, one row per beta."""
        betas, log_scale, t = self._weighted(betas)
        scale = np.array([_scale(ls, b) for ls, b in zip(log_scale, betas)])
        return scale[:, None] * (t @ self.v.T)

    def exp(self, beta: complex) -> PauliExpansion:
        """exp(-beta H) as a Pauli expansion."""
        return self._expansion(self.exp_many(beta)[0])

    def log_partition(self, betas) -> np.ndarray:
        """log tr exp(-beta H) per beta, principal branch (real for real beta)."""
        _, log_scale, t = self._weighted(betas)
        return log_scale + np.log(t @ self.v[0]) + self.h.n * math.log(2.0)

    def gibbs_many(self, betas) -> np.ndarray:
        """Coefficients of exp(-beta H) / tr exp(-beta H) over `codes`, one
        row per real beta; the identity coefficient is exactly 1/2**n."""
        _, _, t = self._weighted(betas)
        columns = t @ self.v.T
        gibbs = columns / ((2**self.h.n) * columns[:, :1])
        gibbs[:, 0] = 1.0 / (2**self.h.n)
        return gibbs

    def gibbs(self, beta: float) -> PauliExpansion:
        """Gibbs state exp(-beta H) / tr exp(-beta H) as a Pauli expansion."""
        return self._expansion(self.gibbs_many(beta)[0])

    def _expansion(self, row: np.ndarray) -> PauliExpansion:
        return PauliExpansion(self.h.n, dict(zip(self.codes.tolist(), row.tolist())))


def exp_spectral(
    h: SparseHamiltonian, beta: complex, cap: int = DEFAULT_CLOSURE_CAP
) -> PauliExpansion:
    """exp(-beta H) as a Pauli expansion, via eigh of the structure matrix."""
    return Reduced(h, cap).exp(beta)


def _quadrature(sm: StructureMatrix, beta: complex, spec: ContourSpec) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(spec.nodes) / spec.nodes
    zs = spec.center + spec.radius * np.exp(1j * angles)
    if (-beta * zs).real.max() > _LOG_FLOAT_MAX:
        raise OverflowError(f"contour integrand exp(-beta z) at beta {complex(beta):g} "
                            f"does not fit in float64; the spectral path has no such limit")
    acc = np.zeros(sm.size, dtype=np.complex128)
    for z in zs:
        acc += (z - spec.center) * np.exp(-beta * z) * resolvent_at(sm, z)
    return acc / spec.nodes


def exp_contour(
    h: SparseHamiltonian,
    beta: complex,
    contour: ContourSpec | None = None,
    cap: int = DEFAULT_CLOSURE_CAP,
    nodes: int | None = None,
) -> PauliExpansion:
    """exp(-beta H) via trapezoidal resolvent quadrature on a circle.

    The default contour encloses the Gershgorin interval with margin; a
    user contour must also enclose it or ContourError is raised. If a node
    lands on (or too near) an eigenvalue, the radius is grown by 1% and the
    quadrature retried once. `nodes` overrides the node count of the
    default contour; an explicit `contour` carries its own.
    """
    sm = build_structure_matrix(h, cap=cap)
    eigs = np.linalg.eigvalsh(sm.matrix)
    spec = (
        contour
        if contour is not None
        else ContourSpec.for_matrix(sm, nodes=nodes or DEFAULT_NODES)
    )
    reach = float(np.abs(eigs - spec.center).max()) if eigs.size else 0.0
    if reach >= spec.radius:
        raise ContourError(
            f"circle (center {spec.center}, radius {spec.radius}) does not "
            f"enclose the spectrum (furthest eigenvalue at distance {reach})"
        )
    try:
        column = _quadrature(sm, beta, spec)
    except SingularSystem:
        spec = replace(spec, radius=spec.radius * 1.01)
        column = _quadrature(sm, beta, spec)
    return _finish(sm, column, h, beta)


def is_pairwise_anticommuting(h: SparseHamiltonian) -> bool:
    """Whether every pair of distinct support strings anticommutes."""
    codes = np.array(h.support, dtype=np.uint64)
    if codes.size < 2:
        return True
    fwd = _kernels.phase_exponents(codes[:, None], codes[None, :])
    commuting = fwd == fwd.T
    np.fill_diagonal(commuting, False)
    return not bool(commuting.any())


def _anticommuting(h: SparseHamiltonian, beta: complex) -> PauliExpansion:
    hs = np.array([h.terms[c] for c in h.support], dtype=np.float64)
    g = float(np.sqrt((hs**2).sum()))
    if g == 0.0:
        return PauliExpansion(h.n, {0: _scale(-beta * h.identity_offset, beta)})
    # g beta = sign (a + ib) with a >= 0. cosh(a) = e^a c and sinh(a) = e^a s
    # with s = (1 - e^{-2a})/2 and c = 1 - s, so e^a goes into the scale and
    # cosh(a + ib), sinh(a + ib) keep their exact real and imaginary parts.
    y = g * beta
    sign = 1.0 if y.real >= 0 else -1.0
    a, b = sign * y.real, sign * y.imag
    s = -math.expm1(-2.0 * a) / 2.0
    c = 1.0 - s
    scale = _scale(-beta * h.identity_offset + a, beta)
    ratio = sign * complex(s * math.cos(b), c * math.sin(b)) / g
    coeffs: dict[int, complex] = {0: scale * complex(c * math.cos(b), s * math.sin(b))}
    for code in h.support:
        coeffs[code] = -scale * ratio * h.terms[code]
    return PauliExpansion(h.n, coeffs)


def exp_anticommuting(h: SparseHamiltonian, beta: complex) -> PauliExpansion:
    """Closed form for pairwise anticommuting support.

    With H0 = H - offset and H0^2 = (sum h_K^2) I = g^2 I,
    exp(-beta H0) = cosh(g beta) I - (sinh(g beta)/g) H0, evaluated in log
    scale so that only a result that does not fit in float64 overflows.
    """
    if not is_pairwise_anticommuting(h):
        raise ValueError("support does not pairwise anticommute")
    return _anticommuting(h, beta)


def exp_with_method(
    h: SparseHamiltonian,
    beta: complex,
    method: str = "auto",
    cap: int = DEFAULT_CLOSURE_CAP,
    contour: ContourSpec | None = None,
    nodes: int | None = None,
) -> tuple[PauliExpansion, str]:
    """exp(-beta H) and the name of the path that computed it.

    method=auto prefers the exact anticommuting closed form when the
    precondition holds, else the spectral path. Explicit methods never fall
    back: asking for anticommute on a non-anticommuting support is an error.
    `contour` and `nodes` apply to the contour path.
    """
    if method == "auto":
        if is_pairwise_anticommuting(h):
            return _anticommuting(h, beta), "anticommute"
        method = "spectral"
    if method == "spectral":
        return Reduced(h, cap).exp(beta), method
    if method == "contour":
        return exp_contour(h, beta, contour, cap, nodes), method
    if method == "anticommute":
        return exp_anticommuting(h, beta), method
    raise ValueError(f"unknown method {method!r}")


def exp_pauli(
    h: SparseHamiltonian,
    beta: complex,
    method: str = "auto",
    cap: int = DEFAULT_CLOSURE_CAP,
    contour: ContourSpec | None = None,
) -> PauliExpansion:
    """exp(-beta H) by the path `method` selects (see exp_with_method)."""
    return exp_with_method(h, beta, method, cap, contour)[0]


def partition_function(
    h: SparseHamiltonian, beta: complex, cap: int = DEFAULT_CLOSURE_CAP
) -> tuple[complex, complex]:
    """(z_normalized, z_trace) with z_normalized = tr(exp(-beta H)) / 2**n.

    z_normalized is the identity coefficient of the expansion (all other
    strings are traceless); z_trace = 2**n * z_normalized.
    """
    z_norm = complex(Reduced(h, cap).exp_many(beta)[0, 0])
    return z_norm, (2**h.n) * z_norm


def gibbs_state(
    h: SparseHamiltonian, beta: float, cap: int = DEFAULT_CLOSURE_CAP
) -> PauliExpansion:
    """Gibbs expansion exp(-beta H) / tr(exp(-beta H)).

    The identity coefficient is set to exactly 1/2**n; the trace
    normalization makes that coefficient exact by construction.
    """
    return Reduced(h, cap).gibbs(beta)


def multiply_expansions(a: PauliExpansion, b: PauliExpansion) -> PauliExpansion:
    """Product of two expansions, re-expanded in the string basis."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} != {b.n}")
    ka = np.array(a.support, dtype=np.uint64)
    kb = np.array(b.support, dtype=np.uint64)
    if ka.size == 0 or kb.size == 0:
        return PauliExpansion(a.n, {})
    ca = np.array([a.coeffs[int(k)] for k in ka], dtype=np.complex128)
    cb = np.array([b.coeffs[int(k)] for k in kb], dtype=np.complex128)
    prods = (ka[:, None] ^ kb[None, :]).ravel()
    exps = _kernels.phase_exponents(ka[:, None], np.broadcast_to(kb[None, :], (ka.size, kb.size)))
    weights = (ca[:, None] * cb[None, :] * _kernels.I_POWERS_ARR[exps]).ravel()
    uniq, inverse = np.unique(prods, return_inverse=True)
    sums = np.zeros(uniq.size, dtype=np.complex128)
    np.add.at(sums, inverse, weights)
    return PauliExpansion(a.n, {int(k): complex(c) for k, c in zip(uniq, sums)})
