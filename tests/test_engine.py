import math

import numpy as np
import pytest

from pauliexp import (
    ClosureExplosion,
    ContourError,
    PauliExpansion,
    Reduced,
    SingularSystem,
    SparseHamiltonian,
    build_structure_matrix,
    close,
    exp_anticommuting,
    exp_contour,
    exp_pauli,
    exp_spectral,
    gibbs_state,
    is_pairwise_anticommuting,
    parse_hamiltonian,
    partition_function,
    pauli_decompose,
    reconstruct_dense,
)
from pauliexp.dense import dense_exp
from pauliexp.engine import _scale, exp_with_method, symplectic_split
from pauliexp.hamiltonian import gf2_basis, load_hamiltonian, random_closed_hamiltonian
from pauliexp.pauli import I_POWERS_ARR, phase_exponent, phase_exponents
from conftest import FIXTURES, anticommuting_family, coeff_dict

HAMILTONIAN_FIXTURES = ("h1.txt", "h2.txt", "h2_mirror.txt", "qutrit_pauli.txt",
                        "rho_s_n3.txt", "xy_n6.txt")
# negative, zero, real, complex and imaginary
GRID = (-0.7, 0.0, 0.45, 1.6, 0.3 + 0.4j, -0.5 - 0.25j, 1.1j)


def coeff_distance(a: PauliExpansion, b: PauliExpansion) -> float:
    da, db = coeff_dict(a), coeff_dict(b)
    return max(abs(da.get(k, 0) - db.get(k, 0)) for k in da.keys() | db.keys())


@pytest.fixture
def h_cycle():
    return parse_hamiltonian("1 123\n1 231\n1 312\n")


class TestSpectral:
    def test_closed_form_cycle(self):
        a, b, c, t = 0.8, -1.2, 0.4, 0.65
        h = parse_hamiltonian(f"{a} 123\n{b} 231\n{c} 312\n")
        p = np.sqrt(a * a + b * b + c * c)
        e = coeff_dict(exp_spectral(h, 1j * t))
        assert abs(e[0] - np.cos(p * t)) < 1e-13
        for code, coef in coeff_dict(h).items():
            want = -1j * np.sin(p * t) / p * coef
            assert abs(e[code] - want) < 1e-13

    def test_beta_zero_is_identity(self, rng):
        h = random_closed_hamiltonian(rng, 4, 1, 1)
        e = exp_spectral(h, 0.0)
        assert np.array_equal(e.codes, np.append(np.uint64(0), h.codes))
        assert abs(e.values[0] - 1.0) < 1e-14
        assert np.abs(e.values[1:]).max() < 1e-14

    def test_identity_offset_scales(self, rng):
        h0 = random_closed_hamiltonian(rng, 3, 1, 0)
        delta = 0.9
        h = SparseHamiltonian(h0.n, h0.codes, h0.values, identity_offset=delta)
        beta = 0.4 + 0.2j
        plain = exp_spectral(h0, beta)
        shifted = exp_spectral(h, beta)
        scale = np.exp(-beta * delta)
        assert np.array_equal(shifted.codes, plain.codes)
        assert np.abs(shifted.values - scale * plain.values).max() < 1e-13

    def test_support_is_closure_plus_identity(self, h_cycle):
        e = exp_spectral(h_cycle, 0.3)
        assert e.codes.tolist() == [0, 27, 45, 54]

    def test_real_beta_gives_real_coefficients(self, rng):
        h = random_closed_hamiltonian(rng, 4, 1, 1)
        e = exp_spectral(h, 1.3)
        assert np.abs(e.values.imag).max() < 1e-12

    def test_empty_hamiltonian(self):
        h = SparseHamiltonian(2, [], [], identity_offset=0.7)
        e = exp_spectral(h, 2.0)
        assert e.codes.tolist() == [0]
        assert e.values[0] == pytest.approx(np.exp(-1.4))


class TestContour:
    def test_default_matches_spectral(self, rng):
        for s, c in ((0, 1), (1, 0), (1, 1)):
            h = random_closed_hamiltonian(rng, 4, s, c)
            for beta in (0.7, 0.5j, 0.3 - 0.2j):
                assert coeff_distance(
                    exp_contour(h, beta), exp_spectral(h, beta)
                ) < 1e-12

    def test_nodes_override(self, h_cycle):
        e = exp_contour(h_cycle, 0.5, nodes=256)
        assert coeff_distance(e, exp_spectral(h_cycle, 0.5)) < 1e-12

    def test_explicit_contour(self, h_cycle):
        e = exp_contour(h_cycle, 1j * 0.4, nodes=96, center=0.0, radius=6.0)
        assert coeff_distance(e, exp_spectral(h_cycle, 1j * 0.4)) < 1e-10

    def test_error_drops_until_floor(self, h_cycle):
        # with doubling node counts the quadrature error falls monotonically
        # until it hits rounding noise
        ref = exp_spectral(h_cycle, 0.8)
        errs = [
            coeff_distance(exp_contour(h_cycle, 0.8, nodes=m), ref)
            for m in (16, 32, 64, 128)
        ]
        floor = 1e-12
        for prev, cur in zip(errs, errs[1:]):
            assert cur < prev or (prev <= floor and cur <= floor)
        assert errs[-1] <= 1e-8

    def test_non_enclosing_contour_rejected(self, h_cycle):
        with pytest.raises(ContourError):
            exp_contour(h_cycle, 1.0, nodes=32, center=10.0, radius=1.0)

    def test_singular_node_raises(self, h_cycle):
        # the angle-0 node lands within 1e-13 of the top eigenvalue and fails
        # the residual check; the circle is used as given, not grown
        radius = 4.0
        center = Reduced(h_cycle).lambda_max + 1e-13 - radius
        with pytest.raises(SingularSystem):
            exp_contour(h_cycle, 0.5, nodes=16, center=center, radius=radius)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_integrand_names_beta(self, h_cycle):
        # exp(-300 H) fits (about e^520), but exp(-beta z) on the circle does not
        assert np.isfinite(exp_spectral(h_cycle, 300.0).values[0])
        for beta in (300.0, -300.0, 300.0 + 5j):
            with pytest.raises(OverflowError, match=r"^contour integrand .* at beta -?300"):
                exp_contour(h_cycle, beta)

    def test_contour_spec_validation(self, h_cycle):
        for radius in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="radius must be positive and finite"):
                exp_contour(h_cycle, 1.0, center=0.0, radius=radius)
        for nodes in (0, 2, -3):
            with pytest.raises(ValueError, match=f"need at least 4 nodes, got {nodes}"):
                exp_contour(h_cycle, 1.0, nodes=nodes)

    def test_spectrum_within_coefficient_sum(self, rng, h_cycle):
        # the default circle (center 0, radius 1.25 sum |h_K| + 1) rests on
        # the Gershgorin interval [-sum |h_K|, sum |h_K|] of the structure matrix
        for h in [random_closed_hamiltonian(rng, 5, s, 0) for s in (1, 2)] + [h_cycle]:
            bound = np.abs(h.values).sum()
            assert np.abs(Reduced(h).w).max() <= bound
            w = np.linalg.eigvalsh(build_structure_matrix(h))
            assert np.abs(w).max() <= bound


class TestAnticommuting:
    def test_agrees_with_spectral(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 5))
            fam = anticommuting_family(rng, n, int(rng.integers(2, 2 * n + 1)))
            vals = rng.uniform(-1, 1, size=len(fam))
            h = SparseHamiltonian(n, *zip(*sorted(zip(fam, vals))))
            for beta in (0.8, 0.6j, 0.3 + 0.4j):
                d = coeff_distance(exp_anticommuting(h, beta), exp_spectral(h, beta))
                assert d < 1e-12

    def test_detects_precondition(self, h_cycle):
        assert is_pairwise_anticommuting(h_cycle)
        commuting = SparseHamiltonian(2, [int("03", 4), int("30", 4)], [1.0, 1.0])
        assert not is_pairwise_anticommuting(commuting)
        with pytest.raises(ValueError):
            exp_anticommuting(commuting, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_precondition_matches_brute_force(self, rng, n):
        # no n-qubit set of more than 2n + 1 strings anticommutes pairwise,
        # so larger supports are rejected before the phase table is built
        supports = [anticommuting_family(rng, n, 2 * n + 1) for _ in range(4)]
        supports += [fam + [int(c)] for fam in supports[:2]
                     for c in rng.integers(1, 4**n, size=3) if int(c) not in fam]
        supports += [rng.choice(np.arange(1, 4**n), size=k, replace=False).tolist()
                     for k in range(1, min(4**n - 1, 2 * n + 4)) for _ in range(3)]
        verdicts = set()
        for codes in supports:
            want = all(phase_exponent(a, b) % 2 for i, a in enumerate(codes) for b in codes[:i])
            h = SparseHamiltonian(n, sorted(codes), np.ones(len(codes)))
            assert is_pairwise_anticommuting(h) == want, codes
            verdicts.add((want, len(codes) > 2 * n + 1))
        assert (True, True) not in verdicts
        if n > 1:  # X, Y and Z pairwise anticommute, so on one qubit every set does
            assert {(True, False), (False, False), (False, True)} <= verdicts

    def test_single_term(self):
        h = SparseHamiltonian(1, [2], [0.6])
        e = exp_anticommuting(h, 1.5)
        assert e.codes.tolist() == [0, 2]
        assert e.values == pytest.approx([np.cosh(0.9), -np.sinh(0.9)])

    def test_no_terms(self):
        h = SparseHamiltonian(1, [], [], identity_offset=0.25)
        e = exp_anticommuting(h, 2.0)
        assert e.codes.tolist() == [0]
        assert e.values[0] == pytest.approx(np.exp(-0.5))

    def test_large_beta_with_offset_stays_finite(self):
        # cosh(g beta) alone overflows; the offset brings the result back
        h = SparseHamiltonian(1, [3], [2.0], identity_offset=2.0)
        for beta in (400.0, 1e6):
            e = exp_anticommuting(h, beta)
            assert e.values[0] == pytest.approx(0.5 * np.exp(-4.0 * beta) + 0.5)
            assert e.values[1] == pytest.approx(0.5 * np.exp(-4.0 * beta) - 0.5)

    def test_small_beta_keeps_relative_precision(self):
        h = SparseHamiltonian(1, [2], [0.6])
        for beta in (1e-9, 1e-9j, -1e-12):
            e = exp_anticommuting(h, beta)
            assert e.values[1] == pytest.approx(-np.sinh(0.6 * beta), rel=1e-14, abs=0)


class TestDispatch:
    def test_auto_picks_anticommute(self, h_cycle):
        assert exp_pauli(h_cycle, 0.4) == exp_anticommuting(h_cycle, 0.4)

    def test_auto_falls_back_to_sector(self, rng):
        h = random_closed_hamiltonian(rng, 4, 1, 1)  # no closed set of rank 3 anticommutes
        auto, method = exp_with_method(h, 0.4)
        assert method == "sector"
        assert auto == exp_pauli(h, 0.4, method="sector")
        assert auto == Reduced(h).exp(0.4)
        assert coeff_distance(auto, exp_spectral(h, 0.4)) <= 1e-12 * abs(auto.values[0])

    def test_explicit_methods(self, h_cycle):
        ref = exp_spectral(h_cycle, 0.2)
        assert exp_pauli(h_cycle, 0.2, method="spectral") == ref
        assert coeff_distance(exp_pauli(h_cycle, 0.2, method="contour"), ref) < 1e-12

    def test_unknown_method(self, h_cycle):
        with pytest.raises(ValueError):
            exp_pauli(h_cycle, 1.0, method="magic")

    def test_auto_picks_anticommute_exactly_when_brute_force_does(self, rng):
        # X, Y, Z on one qubit: m = r + 1; the 7-qubit Majorana strings: rank
        # 14, closure 16383 past the default cap, which auto never enumerates;
        # Z on all 7 qubits anticommutes with each, ZZIIIII commutes with the fifth
        majorana = [int("3" * q + p + "0" * (6 - q), 4) for q in range(7) for p in "12"]
        supports = [(1, [1, 2, 3]), (7, majorana), (7, majorana[:5] + [int("3" * 7, 4)]),
                    (7, majorana + [int("33" + "0" * 5, 4)])]
        for n in (1, 2, 3, 4):
            supports += [(n, anticommuting_family(rng, n, k)) for k in range(1, 2 * n + 2)]
            supports += [(n, rng.choice(np.arange(1, 4**n), size=k, replace=False).tolist())
                         for k in range(1, min(4**n - 1, 9)) for _ in range(4)]
        verdicts = set()
        for n, codes in supports:
            want = all(phase_exponent(a, b) % 2 for i, a in enumerate(codes) for b in codes[:i])
            h = SparseHamiltonian(n, sorted(codes), np.full(len(codes), 0.5))
            try:
                method = exp_with_method(h, 0.3)[1]
            except ClosureExplosion:  # past the cap, the sector path refuses
                method = None
            assert (method == "anticommute") == want, codes
            assert is_pairwise_anticommuting(h) == want, codes
            verdicts.add(want)
        assert verdicts == {True, False}


class TestPartitionAndGibbs:
    def test_beta_zero(self, rng):
        h = random_closed_hamiltonian(rng, 3, 1, 0)
        z_norm, z_trace = partition_function(h, 0.0)
        assert z_norm == pytest.approx(1.0)
        assert z_trace == pytest.approx(2**3)

    def test_matches_dense_trace(self, rng):
        h = random_closed_hamiltonian(rng, 4, 1, 1)
        beta = 0.9
        _, z_trace = partition_function(h, beta)
        w = np.linalg.eigvalsh(reconstruct_dense(h))
        assert z_trace.real == pytest.approx(np.exp(-beta * w).sum(), rel=1e-12)

    def test_gibbs_normalization(self, rng):
        h = random_closed_hamiltonian(rng, 3, 1, 1)
        g = gibbs_state(h, 1.2)
        assert g.values[0] == 1.0 / 8.0  # exact by construction
        rho = reconstruct_dense(g)
        assert np.trace(rho).real == pytest.approx(1.0)
        w = np.linalg.eigvalsh(rho)
        assert w.min() > -1e-12

    def test_gibbs_matches_dense(self, rng):
        h = random_closed_hamiltonian(rng, 3, 1, 0)
        beta = 0.7
        rho = reconstruct_dense(gibbs_state(h, beta))
        m = reconstruct_dense(h)
        w, v = np.linalg.eigh(m)
        dense = (v * np.exp(-beta * w)) @ v.conj().T
        dense /= np.trace(dense)
        assert np.abs(rho - dense).max() < 1e-12


def _row(e: PauliExpansion, codes) -> np.ndarray:
    coeffs = coeff_dict(e)
    return np.array([coeffs.get(c, 0j) for c in codes.tolist()])


def _dense_reference(h, beta):
    """(coefficients over all strings, Z, sum |exp(-beta E)|) from the dense oracle."""
    m = reconstruct_dense(h)
    e = pauli_decompose(dense_exp(m, beta), zero_tol=0.0)
    if not isinstance(e, PauliExpansion):  # Hermitian results come back as Hamiltonians
        e = PauliExpansion(h.n, np.append(np.uint64(0), e.codes),
                           np.append(e.identity_offset, e.values))
    boltzmann = np.exp(-beta * np.linalg.eigvalsh(m))
    return e, boltzmann.sum(), np.abs(boltzmann).sum()


class TestReduced:
    @pytest.mark.parametrize("name", HAMILTONIAN_FIXTURES)
    def test_grid_matches_dense_on_fixtures(self, name):
        h = load_hamiltonian(FIXTURES / name)
        red = Reduced(h)
        rows = red.exp_many(GRID)
        log_z = red.log_partition(GRID)
        for beta, row, lz in zip(GRID, rows, log_z):
            ref, z, scale = _dense_reference(h, beta)
            want = _row(ref, red.codes)
            tol = 1e-12 * np.abs(want).max()
            assert set(ref.codes[np.abs(ref.values) > tol].tolist()) <= set(red.codes.tolist())
            assert np.abs(row - want).max() <= tol, beta
            assert abs(np.exp(lz) - z) <= 1e-12 * scale, beta

    def test_grid_matches_per_beta_spectral(self, rng):
        cases = [load_hamiltonian(FIXTURES / name) for name in HAMILTONIAN_FIXTURES[:5]]
        cases += [random_closed_hamiltonian(rng, n, s, c) for n, s, c in
                  ((3, 1, 0), (5, 2, 0), (8, 2, 1), (32, 2, 0))]
        offset = SparseHamiltonian(4, cases[1].codes, cases[1].values, identity_offset=-0.8)
        for h in cases + [offset]:
            red = Reduced(h)
            assert red.codes.dtype == np.uint64
            assert red.codes.tolist() == [0] + close(h).tolist()
            rows = red.exp_many(GRID)
            log_z = red.log_partition(GRID)
            for beta, row, lz in zip(GRID, rows, log_z):
                want = _row(exp_spectral(h, beta), red.codes)
                assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()
                z = 2**h.n * want[0]
                assert abs(np.exp(lz) - z) <= 1e-12 * abs(z)
                assert partition_function(h, beta)[1] == pytest.approx(z, rel=1e-12)

    def test_exp_matches_unshifted_formula(self, rng):
        # the direct first column V (e^{-beta w} . conj(V[0])), with no shift
        h = random_closed_hamiltonian(rng, 6, 2, 1)
        w, v = np.linalg.eigh(build_structure_matrix(h))
        red = Reduced(h)
        for beta in GRID:
            want = v @ (np.exp(-beta * w) * np.conj(v[0]))
            assert np.abs(red.exp(beta).values[0] - want[0]) <= 1e-12 * abs(want[0])
            assert np.abs(red.exp_many(beta)[0] - want).max() <= 1e-12 * np.abs(want).max()

    def test_spectral_range_and_ground_energy(self, rng):
        h0 = random_closed_hamiltonian(rng, 4, 1, 1)
        h = SparseHamiltonian(4, h0.codes, h0.values, identity_offset=0.3)
        red = Reduced(h)
        e = np.linalg.eigvalsh(reconstruct_dense(h))
        assert red.ground_energy == pytest.approx(e[0], abs=1e-12)
        assert red.lambda_min == pytest.approx(e[0] - 0.3, abs=1e-12)
        assert red.lambda_max == pytest.approx(e[-1] - 0.3, abs=1e-12)
        assert red.tau == 7 and red.codes[0] == 0

    @pytest.mark.parametrize("beta", [-3.0, 0.0, 0.8, 1e3, 1e6])
    def test_gibbs_identity_coefficient_exact(self, rng, beta):
        for h in (random_closed_hamiltonian(rng, 5, 2, 0), load_hamiltonian(FIXTURES / "h2.txt"),
                  random_closed_hamiltonian(rng, 32, 1, 1)):
            red = Reduced(h)
            assert red.gibbs(beta).values[0] == 1.0 / 2**h.n
            assert (red.gibbs_many([beta, 2 * beta])[:, 0] == 1.0 / 2**h.n).all()

    def test_gibbs_matches_dense_on_grid(self, rng):
        h = random_closed_hamiltonian(rng, 4, 2, 0)
        betas = [-2.0, 0.3, 1.7, 6.0]
        m = reconstruct_dense(h)
        w, v = np.linalg.eigh(m)
        red = Reduced(h)
        for beta, row in zip(betas, red.gibbs_many(betas)):
            rho = (v * np.exp(-beta * (w - w[0] if beta > 0 else w - w[-1]))) @ v.conj().T
            rho /= np.trace(rho)
            got = reconstruct_dense(PauliExpansion(h.n, red.codes, row))
            assert np.abs(got - rho).max() < 1e-12

    @pytest.mark.parametrize("beta", [1e3, 1e6, 1e308, np.finfo(np.float64).max])
    def test_gibbs_large_beta_is_ground_projector(self, beta):
        # XYZ + YZX + ZXY: H^2 = 3 I, ground space projector (I - H/sqrt 3)/2
        h = load_hamiltonian(FIXTURES / "h1.txt")
        for sign in (1.0, -1.0):  # negative beta picks the top of the spectrum
            g = gibbs_state(h, sign * beta)
            assert np.array_equal(g.codes, np.append(np.uint64(0), h.codes))
            assert g.values[0] == 1.0 / 8.0
            assert g.values[1:] == pytest.approx(-sign * h.values / (8 * np.sqrt(3)), rel=1e-8)

    def test_free_energy_tends_to_ground_energy(self, rng):
        h0 = random_closed_hamiltonian(rng, 6, 2, 0)
        h = SparseHamiltonian(6, h0.codes, h0.values, identity_offset=1.25)
        red = Reduced(h)
        e0 = np.linalg.eigvalsh(reconstruct_dense(h))[0]
        for beta in (1e2, 1e4, 1e6, 1e9):
            free_energy = -red.log_partition(beta)[0].real / beta
            assert np.isfinite(free_energy)
            assert e0 - 6 * np.log(2) / beta - 1e-12 <= free_energy <= e0 + 1e-12

    def test_overflow_raises(self):
        h = load_hamiltonian(FIXTURES / "h1.txt")
        red = Reduced(h)
        for beta in (1000.0, -1000.0, 1000.0 + 3j):
            with pytest.raises(OverflowError, match="does not fit in float64"):
                red.exp(beta)
            with pytest.raises(OverflowError):
                exp_anticommuting(h, beta)
            assert np.isfinite(red.log_partition(beta)).all()
        # four of the eight eigenvalues are -sqrt(3)
        assert red.log_partition(1000.0)[0].real == pytest.approx(1000 * np.sqrt(3) + np.log(4))
        # only the phase of exp(-beta offset) leaves float64, where cmath.exp raises ValueError
        shifted = SparseHamiltonian(h.n, h.codes, h.values, identity_offset=1e10)
        for method in ("sector", "spectral", "contour", "anticommute"):
            with pytest.raises(OverflowError, match=r"at beta 0\+1e\+300j does not fit"):
                exp_with_method(shifted, 1e300j, method)


SHAPES = [(n, s, r - 2 * s) for r in (1, 2, 5, 8) for s in range(r // 2 + 1)
          for n in (max(2, r - s), 32)]
BETAS = (1.0, 0.7j, 0.3 + 0.2j, -2.0, 5.0, 0.0)


def _assert_matches_spectral(h, red, betas=BETAS):
    rows = red.exp_many(betas)
    log_z = red.log_partition(betas)
    for beta, row, lz in zip(betas, rows, log_z):
        want = _row(exp_spectral(h, beta), red.codes)
        assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max(), beta
        # compared through exp: complex log Z may differ by 2 pi i
        z = 2**h.n * want[0]
        assert abs(np.exp(lz) - z) <= 1e-12 * abs(z), beta


def _reference_reduction(h: SparseHamiltonian):
    """(codes, phase, blocks) of Reduced built the old way: span and phases
    by doubling with phase_exponents, and each Walsh-Hadamard pass stacked."""
    basis = gf2_basis(h.codes)
    e, f, z = (np.array(g, dtype=np.uint64) for g in symplectic_split(basis))
    span, phase = np.zeros(1, np.uint64), np.zeros(1, np.uint8)
    for g in np.concatenate((e, f, z)):
        phase = np.concatenate((phase, (phase + phase_exponents(span, g)) & 3))
        span = np.concatenate((span, span ^ g))
    order, i_e = np.argsort(span), I_POWERS_ARR[phase]
    coeffs = np.zeros(span.size)
    coeffs[order[np.searchsorted(span[order], h.codes)]] = h.values
    d = (coeffs * np.conj(i_e)).reshape(2**z.size, 2**e.size, -1)
    for axis in (0, 1):
        x, m = d.reshape(math.prod(d.shape[:axis]), d.shape[axis], -1), d.shape[axis]
        for h2 in 2 ** np.arange(m.bit_length() - 1):
            y = x.reshape(x.shape[0], m // (2 * h2), 2, -1)
            x = np.stack((y[:, :, 0] + y[:, :, 1], y[:, :, 0] - y[:, :, 1]), axis=2)
        d = x.reshape(d.shape)
    j = np.arange(2**e.size)
    return span[order], i_e / 2 ** (e.size + z.size), d[:, j[:, None].T, j[:, None] ^ j]


class TestSector:
    @pytest.mark.parametrize("n,s,c", [(1, 1, 0), (1, 0, 1), (5, 2, 1), (5, 0, 5), (5, 2, 0),
                                       (16, 3, 2), (16, 0, 6), (32, 4, 0), (32, 3, 3),
                                       (32, 0, 7)])
    def test_matches_the_reference_reduction_bit_for_bit(self, n, s, c):
        rng = np.random.default_rng(100 * n + 10 * s + c)
        hams = [random_closed_hamiltonian(rng, n, s, c) for _ in range(2)]
        if n == 32:  # one of the same rank and shape (r // 2, r % 2), codes of 2**63 and above
            r = 2 * s + c
            hams.append(random_closed_hamiltonian(rng, n, r // 2, r % 2))
            assert hams[-1].codes[-1] >= 2**63
        for h in hams:
            red, (codes, phase, blocks) = Reduced(h), _reference_reduction(h)
            for got, want in ((red.codes, codes), (red._phase, phase), (red.blocks, blocks)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_xy_n6_matches_spectral(self):
        # the other fixtures are in TestReduced::test_grid_matches_per_beta_spectral;
        # here one 2048 x 2048 eigh serves every beta
        h = load_hamiltonian(FIXTURES / "xy_n6.txt")
        red = Reduced(h)
        assert (red.s, red.c) == (5, 1)
        w, v = np.linalg.eigh(build_structure_matrix(h))
        for beta, row in zip(BETAS, red.exp_many(BETAS)):
            shift = w[0] if beta.real > 0 else w[-1] if beta.real < 0 else 0.0
            want = v @ (np.exp(-beta * (w - shift)) * np.conj(v[0])) * np.exp(-beta * shift)
            assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max(), beta

    @pytest.mark.parametrize("n,s,c", SHAPES)
    def test_shapes_match_spectral(self, n, s, c):
        rng = np.random.default_rng(1000 * n + 10 * s + c)
        h = random_closed_hamiltonian(rng, n, s, c)
        red = Reduced(h)
        assert (red.s, red.c, red.tau) == (s, c, 2 ** (2 * s + c) - 1)
        assert red.codes.tolist() == [0] + close(h).tolist()
        assert red.w.shape == (2**c, 2**s)
        _assert_matches_spectral(h, red)

    def test_shapes_reach_the_top_bit(self):
        tops = [max(random_closed_hamiltonian(np.random.default_rng(1000 * n + 10 * s + c),
                                              n, s, c).codes.tolist())
                for n, s, c in SHAPES if n == 32]
        assert max(tops) >= 2**63

    @pytest.mark.parametrize("t", [0.3, 2.0, 17.0])
    def test_parseval_at_imaginary_beta(self, rng, t):
        shaped = [random_closed_hamiltonian(rng, *shape) for shape in
                  ((32, 3, 2), (9, 0, 6), (16, 5, 0))]
        for h in [load_hamiltonian(FIXTURES / "xy_n6.txt")] + shaped:
            row = Reduced(h).exp_many(1j * t)[0]
            assert abs((np.abs(row) ** 2).sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("beta", [1e3, 1e6, -1e6])
    def test_gibbs_identity_exact_on_shapes(self, rng, beta):
        for n, s, c in ((32, 4, 0), (32, 0, 5), (7, 2, 3)):
            red = Reduced(random_closed_hamiltonian(rng, n, s, c))
            rows = red.gibbs_many([beta, 1.0])
            assert (rows[:, 0] == 2.0**-n).all()
            assert np.isfinite(rows).all()

    def test_identity_only(self):
        h = SparseHamiltonian(3, [], [], identity_offset=0.7)
        red = Reduced(h)
        assert (red.s, red.c, red.tau, red.codes.tolist()) == (0, 0, 0, [0])
        assert red.lambda_min == red.lambda_max == 0.0
        for beta in (2.0, -1.5, 0.4j, 0.0):
            assert coeff_dict(red.exp(beta)) == {0: pytest.approx(np.exp(-0.7 * beta))}
            assert red.log_partition(beta)[0] == pytest.approx(-0.7 * beta + 3 * np.log(2))
        assert coeff_dict(red.gibbs(5.0)) == {0: 1 / 8}

    def test_explosion_names_exact_size(self):
        h = load_hamiltonian(FIXTURES / "xy_n6.txt")
        with pytest.raises(ClosureExplosion) as info:
            Reduced(h, cap=512)
        assert (info.value.size, info.value.cap) == (2047, 512)
        assert Reduced(h, cap=2047).tau == 2047

    def test_given_basis_checked_against_cap(self):
        h = load_hamiltonian(FIXTURES / "xy_n6.txt")
        basis = gf2_basis(h.codes)
        with pytest.raises(ClosureExplosion) as info:
            Reduced(h, 512, basis)
        assert (info.value.size, info.value.cap) == (2047, 512)
        assert Reduced(h, 2047, basis).tau == 2047

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 32])
    def test_split_invariants(self, n):
        rng = np.random.default_rng(n)
        for size in range(1, 2 * n + 3):
            codes = rng.integers(1, 4**n, size=size, dtype=np.uint64)
            basis = gf2_basis(codes)
            e, f, z = (np.array(g, dtype=np.uint64) for g in symplectic_split(basis))
            gens = np.concatenate((e, f, z)).tolist()
            assert len(gens) == basis.size and 2 * e.size + z.size == basis.size
            for i, a in enumerate(gens):
                for j, b in enumerate(gens):
                    paired = j - i in (e.size, -e.size) and min(i, j) < e.size
                    assert (phase_exponent(a, b) % 2 == 0) != paired, (i, j)
            # same span: each original code reduces to zero against the new basis
            assert gf2_basis(np.concatenate((basis, e, f, z))).size == basis.size


def _exactly_real(rows: np.ndarray) -> bool:
    """Every imaginary part is 0.0, with a positive sign."""
    return not (rows.imag != 0).any() and not np.signbit(rows.imag).any()


def _unrounded(red: Reduced, betas) -> tuple[np.ndarray, np.ndarray]:
    """(exp rows, Gibbs rows) as the transforms give them, noise and all."""
    betas, log_scale, t = red._weighted(betas)
    columns = red._columns(t)
    scale = np.array([_scale(ls, b) for ls, b in zip(log_scale, betas)])
    gibbs = columns / (2**red.h.n * columns[:, :1])
    gibbs[:, 0] = 2.0**-red.h.n
    return scale[:, None] * columns, gibbs


REAL_BETAS = (1.0, -2.0, 0.0, 0.45, 40.0, -25.0)
LARGE_BETAS = (1e3, -1e3, 1e6)


class TestExactlyReal:
    """For Hermitian H and real beta, exp(-beta H) is Hermitian and every
    coefficient is real: the sector path returns imaginary parts of 0.0."""

    @pytest.mark.parametrize("name", HAMILTONIAN_FIXTURES)
    def test_fixtures(self, name):
        self._check(load_hamiltonian(FIXTURES / name))

    @pytest.mark.parametrize("s,c", [(3, 2), (4, 0), (0, 5)])
    def test_shapes_at_32_qubits(self, s, c):
        self._check(random_closed_hamiltonian(np.random.default_rng(10 * s + c), 32, s, c))

    def test_offset_and_closed_set(self, rng):
        h = random_closed_hamiltonian(rng, 16, 3, 0)
        self._check(SparseHamiltonian(16, h.codes, h.values, identity_offset=-0.8))

    def _check(self, h):
        red = Reduced(h)
        rows = red.exp_many(REAL_BETAS)
        assert _exactly_real(rows)
        assert _exactly_real(red.gibbs_many(REAL_BETAS + LARGE_BETAS))
        assert _exactly_real(red.exp(0.7).values) and _exactly_real(red.gibbs(3.0).values)
        # the scale is real, so the real parts are those of the unrounded product
        exp_rows, _ = _unrounded(red, REAL_BETAS)
        assert np.array_equal(rows.real, exp_rows.real)
        assert not np.signbit(rows.imag).any()

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_anticommuting_closed_form(self, rng, n):
        fam = anticommuting_family(rng, n, 2 * n)
        codes, values = zip(*sorted(zip(fam, rng.uniform(-1, 1, len(fam)))))
        for h in (SparseHamiltonian(n, codes, values, 0.3), SparseHamiltonian(n, [], [], 0.3)):
            for beta in REAL_BETAS:
                e = exp_anticommuting(h, beta)
                assert _exactly_real(e.values), beta
                assert _exactly_real(exp_anticommuting(h, complex(beta)).values), beta
            assert not _exactly_real(exp_anticommuting(h, 0.5 + 0.1j).values)

    def test_auto_on_h1(self):
        h = load_hamiltonian(FIXTURES / "h1.txt")
        for beta in REAL_BETAS:
            e, method = exp_with_method(h, complex(beta))
            assert method == "anticommute" and _exactly_real(e.values), beta

    def test_gibbs_drops_noise_before_dividing(self):
        # 0 in exact math; dividing first left 8.4e-39 in the real part
        g = Reduced(load_hamiltonian(FIXTURES / "xy_n6.txt")).gibbs(0.5)
        assert coeff_dict(g)[int("011021", 4)] == 0.0

    def test_complex_beta_unchanged(self, rng):
        mixed = [0.3 + 0.2j, 1.0, 0.7j, -0.5 - 0.25j, 2.0]
        complex_rows = [0, 2, 3]
        for h in (load_hamiltonian(FIXTURES / "xy_n6.txt"),
                  random_closed_hamiltonian(rng, 32, 3, 2)):
            red = Reduced(h)
            exp_rows, gibbs_rows = _unrounded(red, mixed)
            got_exp, got_gibbs = red.exp_many(mixed), red.gibbs_many(mixed)
            assert np.array_equal(got_exp[complex_rows], exp_rows[complex_rows])
            assert np.array_equal(got_gibbs[complex_rows], gibbs_rows[complex_rows])
            assert _exactly_real(got_exp[[1, 4]]) and _exactly_real(got_gibbs[[1, 4]])
            # the rounding noise dropped was at the rounding level
            assert np.abs(got_gibbs[[1, 4]] - gibbs_rows[[1, 4]]).max() <= 1e-15 * 2.0**-h.n


class TestMultiplyExpansions:
    """Products of expansions, taken on their dense matrices."""

    def test_unitary_times_adjoint(self, h_cycle):
        u = exp_spectral(h_cycle, 1j * 0.8)
        prod = reconstruct_dense(u) @ reconstruct_dense(u).conj().T
        assert np.abs(prod - np.eye(8)).max() < 1e-13

    def test_semigroup(self, rng):
        h = random_closed_hamiltonian(rng, 3, 1, 1)
        prod = reconstruct_dense(exp_spectral(h, 0.3)) @ reconstruct_dense(exp_spectral(h, 0.5))
        assert np.abs(prod - reconstruct_dense(exp_spectral(h, 0.8))).max() < 1e-12

    def test_empty_factor(self):
        e = PauliExpansion(2, [0], [1.0])
        empty = PauliExpansion(2, [], [])
        assert pauli_decompose(reconstruct_dense(e) @ reconstruct_dense(empty)).codes.size == 0
