import numpy as np
import pytest

from pauliexp import (
    ContourError,
    ContourSpec,
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
    multiply_expansions,
    parse_hamiltonian,
    partition_function,
    pauli_decompose,
    reconstruct_dense,
)
from pauliexp.dense import dense_exp
from pauliexp.engine import _quadrature
from pauliexp.hamiltonian import load_hamiltonian
from conftest import FIXTURES, anticommuting_family, make_closed_hamiltonian

HAMILTONIAN_FIXTURES = ("h1.txt", "h2.txt", "h2_mirror.txt", "qutrit_pauli.txt",
                        "rho_s_n3.txt", "xy_n6.txt")
# negative, zero, real, complex and imaginary
GRID = (-0.7, 0.0, 0.45, 1.6, 0.3 + 0.4j, -0.5 - 0.25j, 1.1j)


def coeff_distance(a: PauliExpansion, b: PauliExpansion) -> float:
    keys = set(a.support) | set(b.support)
    return max(abs(a.coefficient(k) - b.coefficient(k)) for k in keys)


@pytest.fixture
def h_cycle():
    return parse_hamiltonian("1 123\n1 231\n1 312\n")


class TestSpectral:
    def test_closed_form_cycle(self):
        a, b, c, t = 0.8, -1.2, 0.4, 0.65
        h = parse_hamiltonian(f"{a} 123\n{b} 231\n{c} 312\n")
        p = np.sqrt(a * a + b * b + c * c)
        e = exp_spectral(h, 1j * t)
        assert abs(e.coefficient(0) - np.cos(p * t)) < 1e-13
        for code, coef in h.terms.items():
            want = -1j * np.sin(p * t) / p * coef
            assert abs(e.coefficient(code) - want) < 1e-13

    def test_beta_zero_is_identity(self, rng):
        h = make_closed_hamiltonian(rng, 4, 3)
        e = exp_spectral(h, 0.0)
        assert abs(e.coefficient(0) - 1.0) < 1e-14
        for code in h.support:
            assert abs(e.coefficient(code)) < 1e-14

    def test_identity_offset_scales(self, rng):
        h0 = make_closed_hamiltonian(rng, 3, 2)
        delta = 0.9
        h = SparseHamiltonian(h0.n, dict(h0.terms), identity_offset=delta)
        beta = 0.4 + 0.2j
        plain = exp_spectral(h0, beta)
        shifted = exp_spectral(h, beta)
        scale = np.exp(-beta * delta)
        assert coeff_distance(shifted, plain.scaled(scale)) < 1e-13

    def test_support_is_closure_plus_identity(self, h_cycle):
        e = exp_spectral(h_cycle, 0.3)
        assert e.support == (0, 27, 45, 54)

    def test_real_beta_gives_real_coefficients(self, rng):
        h = make_closed_hamiltonian(rng, 4, 3)
        e = exp_spectral(h, 1.3)
        for c in e.coeffs.values():
            assert abs(c.imag) < 1e-12

    def test_empty_hamiltonian(self):
        h = SparseHamiltonian(2, {}, identity_offset=0.7)
        e = exp_spectral(h, 2.0)
        assert e.support == (0,)
        assert e.coefficient(0) == pytest.approx(np.exp(-1.4))


class TestContour:
    def test_default_matches_spectral(self, rng):
        for rank in (1, 2, 3):
            h = make_closed_hamiltonian(rng, 4, rank)
            for beta in (0.7, 0.5j, 0.3 - 0.2j):
                assert coeff_distance(
                    exp_contour(h, beta), exp_spectral(h, beta)
                ) < 1e-12

    def test_nodes_override(self, h_cycle):
        e = exp_contour(h_cycle, 0.5, nodes=256)
        assert coeff_distance(e, exp_spectral(h_cycle, 0.5)) < 1e-12

    def test_explicit_contour(self, h_cycle):
        spec = ContourSpec(center=0.0, radius=6.0, nodes=96)
        e = exp_contour(h_cycle, 1j * 0.4, contour=spec)
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
        spec = ContourSpec(center=10.0, radius=1.0, nodes=32)
        with pytest.raises(ContourError):
            exp_contour(h_cycle, 1.0, contour=spec)

    def test_radius_retry_after_singular_node(self, h_cycle):
        # the angle-0 node lands within 1e-13 of the top eigenvalue: the
        # first quadrature fails the residual check, the 1% retry succeeds
        sm = build_structure_matrix(h_cycle)
        lam = float(np.linalg.eigvalsh(sm.matrix)[-1])
        radius = 4.0
        spec = ContourSpec(center=lam + 1e-13 - radius, radius=radius, nodes=16)
        with pytest.raises(SingularSystem):
            _quadrature(sm, 0.5, spec)
        e = exp_contour(h_cycle, 0.5, contour=spec)
        assert np.isfinite([abs(c) for c in e.coeffs.values()]).all()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_integrand_names_beta(self, h_cycle):
        # exp(-300 H) fits (about e^520), but exp(-beta z) on the circle does not
        assert np.isfinite(abs(exp_spectral(h_cycle, 300.0).coefficient(0)))
        for beta in (300.0, -300.0, 300.0 + 5j):
            with pytest.raises(OverflowError, match=r"beta -?300.*spectral path"):
                exp_contour(h_cycle, beta)

    def test_contour_spec_validation(self):
        with pytest.raises(ValueError):
            ContourSpec(0.0, -1.0)
        with pytest.raises(ValueError):
            ContourSpec(0.0, 1.0, nodes=2)


class TestAnticommuting:
    def test_agrees_with_spectral(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 5))
            fam = anticommuting_family(rng, n, int(rng.integers(2, 2 * n + 1)))
            vals = rng.uniform(-1, 1, size=len(fam))
            h = SparseHamiltonian(n, dict(zip(fam, map(float, vals))))
            for beta in (0.8, 0.6j, 0.3 + 0.4j):
                d = coeff_distance(exp_anticommuting(h, beta), exp_spectral(h, beta))
                assert d < 1e-12

    def test_detects_precondition(self, h_cycle):
        assert is_pairwise_anticommuting(h_cycle)
        commuting = SparseHamiltonian(2, {int("30", 4): 1.0, int("03", 4): 1.0})
        assert not is_pairwise_anticommuting(commuting)
        with pytest.raises(ValueError):
            exp_anticommuting(commuting, 1.0)

    def test_single_term(self):
        h = SparseHamiltonian(1, {2: 0.6})
        e = exp_anticommuting(h, 1.5)
        assert e.coefficient(0) == pytest.approx(np.cosh(0.9))
        assert e.coefficient(2) == pytest.approx(-np.sinh(0.9))

    def test_no_terms(self):
        h = SparseHamiltonian(1, {}, identity_offset=0.25)
        e = exp_anticommuting(h, 2.0)
        assert e.support == (0,)
        assert e.coefficient(0) == pytest.approx(np.exp(-0.5))

    def test_large_beta_with_offset_stays_finite(self):
        # cosh(g beta) alone overflows; the offset brings the result back
        h = SparseHamiltonian(1, {3: 2.0}, identity_offset=2.0)
        for beta in (400.0, 1e6):
            e = exp_anticommuting(h, beta)
            assert e.coefficient(0) == pytest.approx(0.5 * np.exp(-4.0 * beta) + 0.5)
            assert e.coefficient(3) == pytest.approx(0.5 * np.exp(-4.0 * beta) - 0.5)

    def test_small_beta_keeps_relative_precision(self):
        h = SparseHamiltonian(1, {2: 0.6})
        for beta in (1e-9, 1e-9j, -1e-12):
            e = exp_anticommuting(h, beta)
            assert e.coefficient(2) == pytest.approx(-np.sinh(0.6 * beta), rel=1e-14, abs=0)


class TestDispatch:
    def test_auto_picks_anticommute(self, h_cycle):
        assert exp_pauli(h_cycle, 0.4).coeffs == exp_anticommuting(h_cycle, 0.4).coeffs

    def test_auto_falls_back_to_spectral(self, rng):
        h = make_closed_hamiltonian(rng, 4, 3)
        if is_pairwise_anticommuting(h):  # pragma: no cover - seed-dependent guard
            pytest.skip("sampled family happens to anticommute")
        assert exp_pauli(h, 0.4).coeffs == exp_spectral(h, 0.4).coeffs

    def test_explicit_methods(self, h_cycle):
        ref = exp_spectral(h_cycle, 0.2)
        assert exp_pauli(h_cycle, 0.2, method="spectral").coeffs == ref.coeffs
        assert coeff_distance(exp_pauli(h_cycle, 0.2, method="contour"), ref) < 1e-12

    def test_unknown_method(self, h_cycle):
        with pytest.raises(ValueError):
            exp_pauli(h_cycle, 1.0, method="magic")


class TestPartitionAndGibbs:
    def test_beta_zero(self, rng):
        h = make_closed_hamiltonian(rng, 3, 2)
        z_norm, z_trace = partition_function(h, 0.0)
        assert z_norm == pytest.approx(1.0)
        assert z_trace == pytest.approx(2**3)

    def test_matches_dense_trace(self, rng):
        h = make_closed_hamiltonian(rng, 4, 3)
        beta = 0.9
        _, z_trace = partition_function(h, beta)
        w = np.linalg.eigvalsh(reconstruct_dense(h))
        assert z_trace.real == pytest.approx(np.exp(-beta * w).sum(), rel=1e-12)

    def test_gibbs_normalization(self, rng):
        h = make_closed_hamiltonian(rng, 3, 3)
        g = gibbs_state(h, 1.2)
        assert g.coefficient(0) == 1.0 / 8.0  # exact by construction
        rho = reconstruct_dense(g)
        assert np.trace(rho).real == pytest.approx(1.0)
        w = np.linalg.eigvalsh(rho)
        assert w.min() > -1e-12

    def test_gibbs_matches_dense(self, rng):
        h = make_closed_hamiltonian(rng, 3, 2)
        beta = 0.7
        rho = reconstruct_dense(gibbs_state(h, beta))
        m = reconstruct_dense(h)
        w, v = np.linalg.eigh(m)
        dense = (v * np.exp(-beta * w)) @ v.conj().T
        dense /= np.trace(dense)
        assert np.abs(rho - dense).max() < 1e-12


def _row(e: PauliExpansion, codes) -> np.ndarray:
    return np.array([e.coefficient(int(c)) for c in codes])


def _dense_reference(h, beta):
    """(coefficients over all strings, Z, sum |exp(-beta E)|) from the dense oracle."""
    m = reconstruct_dense(h)
    e = pauli_decompose(dense_exp(m, beta), zero_tol=0.0)
    if not isinstance(e, PauliExpansion):  # Hermitian results come back as Hamiltonians
        e = PauliExpansion(h.n, {0: e.identity_offset, **e.terms})
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
            assert set(ref.prune(tol).support) <= set(red.codes.tolist())
            assert np.abs(row - want).max() <= tol, beta
            assert abs(np.exp(lz) - z) <= 1e-12 * scale, beta

    def test_grid_matches_per_beta_spectral(self, rng):
        cases = [load_hamiltonian(FIXTURES / name) for name in HAMILTONIAN_FIXTURES[:5]]
        cases += [make_closed_hamiltonian(rng, n, rank) for n, rank in
                  ((3, 2), (5, 4), (8, 5), (32, 4))]
        offset = SparseHamiltonian(4, dict(cases[1].terms), identity_offset=-0.8)
        for h in cases + [offset]:
            red = Reduced(h)
            assert red.codes.dtype == np.uint64
            assert red.codes.tolist() == [0] + close(h).codes.tolist()
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
        h = make_closed_hamiltonian(rng, 6, 5)
        sm = build_structure_matrix(h)
        w, v = np.linalg.eigh(sm.matrix)
        red = Reduced(h)
        for beta in GRID:
            want = v @ (np.exp(-beta * w) * np.conj(v[0]))
            assert np.abs(red.exp(beta).coefficient(0) - want[0]) <= 1e-12 * abs(want[0])
            assert np.abs(red.exp_many(beta)[0] - want).max() <= 1e-12 * np.abs(want).max()

    def test_spectral_range_and_ground_energy(self, rng):
        h0 = make_closed_hamiltonian(rng, 4, 3)
        h = SparseHamiltonian(4, dict(h0.terms), identity_offset=0.3)
        red = Reduced(h)
        e = np.linalg.eigvalsh(reconstruct_dense(h))
        assert red.ground_energy == pytest.approx(e[0], abs=1e-12)
        assert red.lambda_min == pytest.approx(e[0] - 0.3, abs=1e-12)
        assert red.lambda_max == pytest.approx(e[-1] - 0.3, abs=1e-12)
        assert red.tau == 7 and red.codes[0] == 0

    @pytest.mark.parametrize("beta", [-3.0, 0.0, 0.8, 1e3, 1e6])
    def test_gibbs_identity_coefficient_exact(self, rng, beta):
        for h in (make_closed_hamiltonian(rng, 5, 4), load_hamiltonian(FIXTURES / "h2.txt"),
                  make_closed_hamiltonian(rng, 32, 3)):
            red = Reduced(h)
            assert red.gibbs(beta).coefficient(0) == 1.0 / 2**h.n
            assert (red.gibbs_many([beta, 2 * beta])[:, 0] == 1.0 / 2**h.n).all()

    def test_gibbs_matches_dense_on_grid(self, rng):
        h = make_closed_hamiltonian(rng, 4, 4)
        betas = [-2.0, 0.3, 1.7, 6.0]
        m = reconstruct_dense(h)
        w, v = np.linalg.eigh(m)
        red = Reduced(h)
        for beta, row in zip(betas, red.gibbs_many(betas)):
            rho = (v * np.exp(-beta * (w - w[0] if beta > 0 else w - w[-1]))) @ v.conj().T
            rho /= np.trace(rho)
            got = reconstruct_dense(PauliExpansion(h.n, dict(zip(red.codes.tolist(), row))))
            assert np.abs(got - rho).max() < 1e-12

    @pytest.mark.parametrize("beta", [1e3, 1e6])
    def test_gibbs_large_beta_is_ground_projector(self, beta):
        # XYZ + YZX + ZXY: H^2 = 3 I, ground space projector (I - H/sqrt 3)/2
        h = load_hamiltonian(FIXTURES / "h1.txt")
        for sign in (1.0, -1.0):  # negative beta picks the top of the spectrum
            g = gibbs_state(h, sign * beta)
            assert g.coefficient(0) == 1.0 / 8.0
            for code, hk in h.terms.items():
                assert g.coefficient(code) == pytest.approx(-sign * hk / (8 * np.sqrt(3)),
                                                            rel=1e-8)

    def test_free_energy_tends_to_ground_energy(self, rng):
        h0 = make_closed_hamiltonian(rng, 6, 4)
        h = SparseHamiltonian(6, dict(h0.terms), identity_offset=1.25)
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


class TestMultiplyExpansions:
    def test_unitary_times_adjoint(self, h_cycle):
        u = exp_spectral(h_cycle, 1j * 0.8)
        prod = multiply_expansions(u, u.dagger())
        assert abs(prod.coefficient(0) - 1.0) < 1e-13
        for code in prod.support:
            if code:
                assert abs(prod.coefficient(code)) < 1e-13

    def test_semigroup(self, rng):
        h = make_closed_hamiltonian(rng, 3, 3)
        e1 = exp_spectral(h, 0.3)
        e2 = exp_spectral(h, 0.5)
        prod = multiply_expansions(e1, e2)
        direct = exp_spectral(h, 0.8)
        keys = set(prod.support) | set(direct.support)
        assert max(abs(prod.coefficient(k) - direct.coefficient(k)) for k in keys) < 1e-12

    def test_empty_factor(self):
        e = PauliExpansion(2, {0: 1.0})
        empty = PauliExpansion(2, {})
        assert multiply_expansions(e, empty).support == ()

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            multiply_expansions(PauliExpansion(1, {0: 1}), PauliExpansion(2, {0: 1}))
