"""Computation paths for exp(-beta H) over a closed Pauli term set.

Four routes produce the same expansion:

  Reduced            the sector path: split the support's GF(2) span into
                     symplectic pairs and central codes, eigendecompose
                     2^c blocks of size 2^s, and keep them for any number
                     of betas (behind auto, partition and gibbs)
  exp_spectral       eigendecompose the (1 + tau)-dimensional Hermitian
                     structure matrix and read off the first column of
                     exp(-beta A): the paper's reference path
  exp_contour        trapezoidal quadrature of the resolvent around a circle
                     enclosing the spectrum, used as given, one stacked
                     solve of the Reduced blocks per node; the circle and
                     node count are its own arguments, not exp_with_method's
  exp_anticommuting  closed form cosh/sinh when the support pairwise
                     anticommutes

All routes multiply the result by exp(-beta * identity_offset), so the
identity component of the Hamiltonian never enters the linear algebra. The
sector, spectral and anticommuting routes carry a log scale, so intermediate
exponentials never overflow; a result that itself does not fit in float64
raises OverflowError.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ClosureExplosion, ContourError
from .hamiltonian import (DEFAULT_CLOSURE_CAP, LOG_FLOAT_MAX, PauliExpansion, SparseHamiltonian,
                          close, gf2_basis)
from .pauli import I_POWERS_ARR, LANES, phase_exponents
from .resolvent import build_structure_matrix, solve_shifted


def _scale(log_scale: complex, beta) -> complex:
    """exp(log_scale); OverflowError naming beta when its modulus or its phase
    does not fit in float64 (cmath.exp returns inf, or raises, for these)."""
    try:
        scale = cmath.exp(log_scale)
    except (OverflowError, ValueError):
        scale = math.inf
    if cmath.isinf(scale):
        raise OverflowError(f"exp(-beta H) at beta {complex(beta):g} does not fit in float64")
    return scale


def _log_weights(w: np.ndarray, lo: float, hi: float, offset: float, betas):
    """(betas, log_scale, t), one leading row per beta, for eigenvalues w of
    any shape: t = exp(-beta (w - shift)) and log_scale = -beta (shift +
    offset), with shift lo when Re beta > 0, hi when Re beta < 0 and 0 at
    Re beta = 0, so that no entry of t exceeds 1 in modulus. -inf in the
    exponent of t is the exact limit t = 0, an infinite log_scale is refused
    by _scale and the callers, and a phase |Im beta| |w - shift| past float64
    raises OverflowError."""
    betas = np.asarray(betas, dtype=np.complex128).reshape(-1)
    shift = np.array([lo if b > 0 else hi if b < 0 else 0.0 for b in betas.real.tolist()])
    col = (-1,) + (1,) * w.ndim
    with np.errstate(over="ignore"):
        log_scale = -betas * (shift + offset)
        exponent = -betas.reshape(col) * (w - shift.reshape(col))
        lost = np.abs(betas.imag) * np.maximum(hi - shift, shift - lo) == math.inf
    if lost.any():
        raise OverflowError(f"exp(-beta H) at beta {betas[lost][0]:g} does not fit in float64")
    return betas, log_scale, np.exp(exponent)


def _real_rows(betas: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """coeffs with the imaginary part of each real-beta row set to 0.0. For
    Hermitian H and real beta, exp(-beta H) is Hermitian, so every tr(P_K .)
    of it is real and what the transforms leave there is rounding noise."""
    coeffs.imag[betas.imag == 0] = 0.0
    return coeffs


def _wht(x: np.ndarray, strides) -> np.ndarray:
    """Unnormalized Walsh-Hadamard butterflies along the middle axis of x,
    of shape (a, m, b), one pass per stride h in `strides` (each pairs i
    with i + h in blocks of 2h), between two buffers."""
    a, m, b = x.shape
    bufs = np.empty((2, a * m * b), x.dtype)
    for k, h in enumerate(strides):
        y, x = x.reshape(-1, 2, h * b), bufs[k & 1].reshape(-1, 2, h * b)
        lo, hi = y[:, 0], y[:, 1]
        np.add(lo, hi, out=x[:, 0])
        np.subtract(lo, hi, out=x[:, 1])
    return x.reshape(a, m, b)


def symplectic_split(basis: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """(e, f, z), lists of codes: a basis of the same span with each e_i
    anticommuting with f_i and with no other code of the three, and each z_k
    commuting with every code of the span. Symplectic Gram-Schmidt on the
    commutation form, row k an int of the bits l with x_k . z_l + z_k . x_l odd:
    v <- v + [v, f] e + [v, e] f clears a pair, A_k <- A_k + a_k b + b_k a."""
    z = basis >> np.uint64(1) & LANES
    x = (basis & LANES) ^ z
    anti = np.bitwise_count(x[:, None] & z ^ z[:, None] & x) & np.uint8(1)
    rows = (anti @ (np.uint64(1) << np.arange(basis.size, dtype=np.uint64))).tolist()
    gens, live, es, fs, zs = basis.tolist(), (1 << basis.size) - 1, [], [], []
    while live:
        i = (live & -live).bit_length() - 1
        live ^= 1 << i
        hits = rows[i] & live
        if not hits:
            zs.append(gens[i])
            continue
        j = (hits & -hits).bit_length() - 1
        live ^= 1 << j
        a, b = rows[j] & live, rows[i] & live
        for k in range(len(gens)):  # a and b: the columns of f and e on the codes left
            ak, bk = a >> k & 1, b >> k & 1
            gens[k], rows[k] = gens[k] ^ gens[i] * ak ^ gens[j] * bk, rows[k] ^ b * ak ^ a * bk
        es.append(gens[i])
        fs.append(gens[j])
    return es, fs, zs


class Reduced:
    """exp(-beta H) at any number of betas from one reduction of H.

    The support's GF(2) basis splits into s anticommuting pairs (e_i, f_i)
    and c central codes (symplectic_split). Each code K of the span is the
    product e^x f^y z^w of generators in that order up to a phase,
    e^x f^y z^w = i^E_K P_K, so P_K acts on the eigenspace of character
    lambda of the central codes as i^-E_K (-1)^(lambda.w) X^x Z^y on s
    virtual qubits. H is then 2^c Hermitian blocks of size 2^s, built by
    Walsh-Hadamard transforms, kept as `blocks` and eigendecomposed by one
    stacked eigh; `coefficients` reads any operator given by its blocks
    back by the inverse transforms. `codes` is the identity, then the
    closure, ascending.

    Each evaluation shifts the spectrum by its global lambda_min when
    Re beta > 0 and by lambda_max when Re beta < 0, so no exponential of it
    exceeds 1 in modulus, and carries the shift in a log scale. Gibbs
    coefficients stay finite at every finite beta, and log partition
    functions while beta E fits in float64, E the lowest eigenvalue (the
    highest for beta < 0), and +-inf past it; exp and exp_many raise
    OverflowError when the result itself does not fit in float64.
    """

    def __init__(self, h: SparseHamiltonian, cap: int = DEFAULT_CLOSURE_CAP,
                 basis: np.ndarray | None = None):
        """Reduce h; `basis`, when given, is gf2_basis(h.codes). ClosureExplosion
        with the exact size 2**r - 1 when the span has more than `cap` strings."""
        basis = gf2_basis(h.codes) if basis is None else basis
        if 2**basis.size - 1 > cap:
            raise ClosureExplosion(2**basis.size - 1, cap)
        self.h = h
        e, f, z = symplectic_split(basis)
        self.s, self.c = len(e), len(z)
        # span index x + (y << s) + (w << 2s): e^x f^y z^w = i^E P_K, each string being
        # i^#Y X^x Z^z (x = lo xor hi, z = hi), so E = sum #Y(g_t) + 2 sum_{t<u} [z_t . x_u
        # odd] - #Y(K) mod 4, and doubling by g_u adds z(K) . x_u = popcount(K & x_u << 1);
        # coefficients carry i^E_K / 2^(s+c)
        span, phase = np.zeros(2**basis.size, np.uint64), np.zeros(2**basis.size, np.uint8)
        for t, g in enumerate(e + f + z):
            lo, hi, k = g & int(LANES), g >> 1 & int(LANES), 1 << t
            np.bitwise_xor(span[:k], g, out=span[k:2 * k])
            odd = np.bitwise_count(span[:k] & (lo ^ hi) << 1)
            np.add(phase[:k], (odd << 1) + (hi & ~lo).bit_count(), out=phase[k:2 * k])
        phase = (phase - np.bitwise_count(span >> np.uint64(1) & ~span & LANES)) & 3
        self._order = np.argsort(span)
        self.codes = span[self._order]
        i_e = I_POWERS_ARR[phase]
        self._phase = i_e / 2 ** (self.s + self.c)
        coeffs = np.zeros(span.size)
        coeffs[self._order[np.searchsorted(self.codes, h.codes)]] = h.values
        d = (coeffs * np.conj(i_e)).reshape(1, 2 ** (self.s + self.c), -1)
        j, self._strides = np.arange(2**self.s), [2**k for k in range(self.s + self.c)]
        self._rows, self._cols = j[:, None] ^ j, j[:, None]
        # block lambda: M[j ^ x, j] = sum_y D_lambda[x, y] (-1)^(y.j), transformed in w then y
        d = _wht(d, self._strides[self.s:] + self._strides[:self.s])
        self.blocks = d.reshape(2**self.c, 2**self.s, -1)[:, self._cols.T, self._rows]
        self.w, self.v = np.linalg.eigh(self.blocks)
        self.lambda_min, self.lambda_max = float(self.w.min()), float(self.w.max())

    @property
    def tau(self) -> int:
        return self.codes.size - 1

    @property
    def ground_energy(self) -> float:
        """Lowest eigenvalue of H, identity offset included."""
        return self.lambda_min + self.h.identity_offset

    def _weighted(self, betas):
        return _log_weights(self.w, self.lambda_min, self.lambda_max,
                            self.h.identity_offset, betas)

    def coefficients(self, f: np.ndarray) -> np.ndarray:
        """Coefficients over `codes` of the operators given by their blocks
        f of shape (k, 2^c, 2^s, 2^s), one row per operator."""
        g = f[..., self._rows, self._cols].reshape(f.shape[0], self.codes.size >> self.s, -1)
        return (_wht(g, self._strides).reshape(f.shape[0], -1) * self._phase)[:, self._order]

    def _columns(self, t: np.ndarray) -> np.ndarray:
        """Coefficients of the operator whose block lambda is
        V_lambda diag(t[lambda]) V_lambda^dagger, one row per row of t."""
        return self.coefficients((self.v * t[..., None, :]) @ np.conj(self.v).swapaxes(-1, -2))

    def exp_many(self, betas) -> np.ndarray:
        """Coefficients of exp(-beta H) over `codes`, one row per beta;
        exactly real in the rows of real beta."""
        betas, log_scale, t = self._weighted(betas)
        scale = np.array([_scale(ls, b) for ls, b in zip(log_scale, betas)])
        return _real_rows(betas, scale[:, None] * self._columns(t))

    def exp(self, beta: complex) -> PauliExpansion:
        """exp(-beta H) as a Pauli expansion."""
        return PauliExpansion(self.h.n, self.codes, self.exp_many(beta)[0])

    def log_partition(self, betas) -> np.ndarray:
        """log tr exp(-beta H) per beta, principal branch (real for real beta)."""
        _, log_scale, t = self._weighted(betas)
        rest = (self.h.n - self.s - self.c) * math.log(2.0)
        return log_scale + np.log(t.sum(axis=(1, 2))) + rest

    def gibbs_many(self, betas) -> np.ndarray:
        """Coefficients of exp(-beta H) / tr exp(-beta H) over `codes`, one
        row per real beta, exactly real; the identity coefficient is exactly
        1/2**n. The imaginary noise goes before the complex division, which
        would otherwise mix it into the real parts."""
        betas, _, t = self._weighted(betas)
        columns = _real_rows(betas, self._columns(t))
        gibbs = columns / ((2**self.h.n) * columns[:, :1])
        gibbs[:, 0] = 1.0 / (2**self.h.n)
        return gibbs

    def gibbs(self, beta: float) -> PauliExpansion:
        """Gibbs state exp(-beta H) / tr exp(-beta H) as a Pauli expansion."""
        return PauliExpansion(self.h.n, self.codes, self.gibbs_many(beta)[0])


def exp_spectral(
    h: SparseHamiltonian, beta: complex, cap: int = DEFAULT_CLOSURE_CAP
) -> PauliExpansion:
    """exp(-beta H) as a Pauli expansion via eigh of the structure matrix A,
    the paper's reference path: A = V diag(w) V*, and the expansion over the
    identity and the closure is exp(-beta offset) V (e^{-beta w} . conj(V[0])),
    in the same log scale as Reduced."""
    codes = close(h, cap)
    w, v = np.linalg.eigh(build_structure_matrix(h, codes))
    _, log_scale, t = _log_weights(w, w[0], w[-1], h.identity_offset, beta)
    return PauliExpansion(h.n, np.append(np.uint64(0), codes),
                          _scale(log_scale[0], beta) * ((t * np.conj(v[0])) @ v.T)[0])


def exp_contour(
    h: SparseHamiltonian,
    beta: complex,
    cap: int = DEFAULT_CLOSURE_CAP,
    nodes: int | None = None,
    center: complex | None = None,
    radius: float | None = None,
) -> PauliExpansion:
    """exp(-beta H) via trapezoidal resolvent quadrature on a circle of
    `nodes` points: (1/N) sum_z (z - center) e^{-beta z} (z - H0)^{-1} over
    the N nodes z, one stacked solve of the blocks of Reduced per node.

    The spectrum lies in [-g, g] with g = sum |h_K|, the Gershgorin interval
    of the structure matrix (zero diagonal, each |h_K| once in every row).
    None means the default: 64 nodes, center 0, radius 1.25 g + 1, whose
    nodes are all at least 0.25 g + 1 from the spectrum. A circle must
    enclose the spectrum (else ContourError) and is used as given: a node
    on (or too near) an eigenvalue raises SingularSystem.
    """
    g = float(np.abs(h.values).sum())
    nodes = 64 if nodes is None else nodes
    center = 0j if center is None else center
    radius = 1.25 * g + 1.0 if radius is None else radius
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if nodes < 4:
        raise ValueError(f"need at least 4 nodes, got {nodes}")
    r = Reduced(h, cap)
    reach = float(np.abs(r.w - center).max())
    if reach >= radius:
        raise ContourError(
            f"circle (center {center}, radius {radius}) does not "
            f"enclose the spectrum (furthest eigenvalue at distance {reach})"
        )
    angles = 2.0 * np.pi * np.arange(nodes) / nodes
    zs = center + radius * np.exp(1j * angles)
    if not all((-complex(beta) * z).real <= LOG_FLOAT_MAX for z in zs.tolist()):  # NaN fails
        raise OverflowError(f"contour integrand exp(-beta z) at beta {complex(beta):g} "
                            "does not fit in float64")
    eye = np.broadcast_to(np.eye(2**r.s), r.blocks.shape)
    f = sum((z - center) * np.exp(-beta * z) * solve_shifted(r.blocks, z, eye, g) for z in zs)
    scale = _scale(-beta * h.identity_offset, beta)
    return PauliExpansion(h.n, r.codes, scale * r.coefficients(f[None] / nodes)[0])


def _anticommute_pairwise(codes: np.ndarray, rank: int) -> bool:
    """Whether codes of GF(2) rank `rank` pairwise anticommute. Their form is
    all ones off the diagonal, of rank m or m - 1, so m > rank + 1 fails."""
    m = codes.size
    return m <= rank + 1 and int((phase_exponents(codes[:, None], codes) & 1).sum()) == m * (m - 1)


def is_pairwise_anticommuting(h: SparseHamiltonian) -> bool:
    """Whether every pair of distinct support strings anticommutes."""
    return _anticommute_pairwise(h.codes, gf2_basis(h.codes).size)


def _anticommuting(h: SparseHamiltonian, beta: complex) -> PauliExpansion:
    g = float(np.sqrt((h.values**2).sum()))
    if g == 0.0:
        values = np.array([_scale(-beta * h.identity_offset, beta)])
    else:
        # g beta = sign (a + ib) with a >= 0. cosh(a) = e^a c and sinh(a) = e^a s
        # with s = (1 - e^{-2a})/2 and c = 1 - s, so e^a goes into the scale and
        # cosh(a + ib), sinh(a + ib) keep their exact real and imaginary parts.
        y = g * beta
        sign = 1.0 if y.real >= 0 else -1.0
        a, b = sign * y.real, sign * y.imag
        if math.isinf(b):  # math.cos and math.sin refuse an infinite phase
            raise OverflowError(f"exp(-beta H) at beta {complex(beta):g} does not fit in float64")
        s = -math.expm1(-2.0 * a) / 2.0
        c = 1.0 - s
        scale = _scale(-beta * h.identity_offset + a, beta)
        ratio = sign * complex(s * math.cos(b), c * math.sin(b)) / g
        identity = scale * complex(c * math.cos(b), s * math.sin(b))
        values = np.append(identity, -scale * ratio * h.values)
    if beta.imag == 0:  # exactly real (see _real_rows); the products above leave -0.0
        values.imag = 0.0
    return PauliExpansion(h.n, np.append(np.uint64(0), h.codes), values)


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
    h: SparseHamiltonian, beta: complex, method: str = "auto", cap: int = DEFAULT_CLOSURE_CAP
) -> tuple[PauliExpansion, str]:
    """exp(-beta H) and the name of the path that computed it.

    method=auto prefers the exact anticommuting closed form when the
    precondition holds, else the sector path (Reduced). Explicit methods
    never fall back: asking for anticommute on a non-anticommuting support
    is an error. method=contour runs the default circle; exp_contour takes
    a center, a radius or a node count.
    """
    if method in ("auto", "sector"):  # one GF(2) basis for the check and the reduction
        basis = gf2_basis(h.codes)
        if method == "auto" and _anticommute_pairwise(h.codes, basis.size):
            return _anticommuting(h, beta), "anticommute"
        return Reduced(h, cap, basis).exp(beta), "sector"
    if method == "spectral":
        return exp_spectral(h, beta, cap), method
    if method == "contour":
        return exp_contour(h, beta, cap=cap), method
    if method == "anticommute":
        return exp_anticommuting(h, beta), method
    raise ValueError(f"unknown method {method!r}")


def exp_pauli(
    h: SparseHamiltonian, beta: complex, method: str = "auto", cap: int = DEFAULT_CLOSURE_CAP
) -> PauliExpansion:
    """exp(-beta H) by the path `method` selects (see exp_with_method)."""
    return exp_with_method(h, beta, method, cap)[0]


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
