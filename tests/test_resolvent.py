import numpy as np
import pytest

from pauliexp import (
    SingularSystem,
    SparseHamiltonian,
    build_structure_matrix,
    characteristic_poly_at,
    close,
    close_codes,
    parse_hamiltonian,
    resolvent_at,
)
from pauliexp.hamiltonian import random_closed_hamiltonian

from conftest import coeff_dict

H2_CODES = [27, 39, 60, 75, 80, 108, 119]  # ascending, h1..h7


def h1_hamiltonian(a, b, c):
    return parse_hamiltonian(f"{a} 123\n{b} 231\n{c} 312\n")


def h2_hamiltonian(h):
    return SparseHamiltonian(4, H2_CODES, h)


def h2_expected_matrix(h):
    """Bordered matrix for the seven-term fixture family.

    Frozen from the conjugate of the cofactor-table convention, i.e. the
    convention where the resolvent multiplies (z - H) from the left.
    """
    h1, h2, h3, h4, h5, h6, h7 = h
    i = 1j
    prime = -np.array(
        [
            [0, -h1, -h2, -h3, -h4, -h5, -h6, -h7],
            [-h1, 0, -h3, -h2, -h5, -h4, h7, h6],
            [-h2, -h3, 0, -h1, i * h6, -i * h7, -i * h4, i * h5],
            [-h3, -h2, -h1, 0, -i * h7, i * h6, -i * h5, i * h4],
            [-h4, -h5, -i * h6, i * h7, 0, -h1, i * h2, -i * h3],
            [-h5, -h4, i * h7, -i * h6, -h1, 0, i * h3, -i * h2],
            [-h6, h7, i * h4, i * h5, -i * h2, -i * h3, 0, h1],
            [-h7, h6, -i * h5, -i * h4, i * h3, i * h2, h1, 0],
        ],
        dtype=np.complex128,
    )
    return prime.conj()


class TestStructureMatrixGoldens:
    def test_three_term_cycle(self):
        a, b, c = 2.0, -0.5, 0.75
        m = build_structure_matrix(h1_hamiltonian(a, b, c))
        expected = np.array(
            [
                [0, a, b, c],
                [a, 0, -1j * c, 1j * b],
                [b, 1j * c, 0, -1j * a],
                [c, -1j * b, 1j * a, 0],
            ],
            dtype=np.complex128,
        )
        assert np.array_equal(m, expected)

    def test_seven_term_family(self):
        h = [0.37, -0.81, 0.55, 0.23, -0.44, 0.66, -0.12]
        ham = h2_hamiltonian(h)
        assert close(ham).tolist() == H2_CODES
        assert np.array_equal(build_structure_matrix(ham), h2_expected_matrix(h))

    def test_seven_term_support_is_closed(self):
        assert close_codes(4, H2_CODES).tolist() == H2_CODES


class TestStructureMatrixProperties:
    def test_hermitian_bit_for_bit(self, rng):
        for s, c in ((0, 1), (1, 0), (1, 1), (2, 0), (2, 1)):
            h = random_closed_hamiltonian(rng, 6, s, c)
            m = build_structure_matrix(h)
            assert np.array_equal(m, m.conj().T)

    def test_diagonal_exactly_zero(self, rng):
        h = random_closed_hamiltonian(rng, 5, 2, 0)
        m = build_structure_matrix(h)
        assert np.array_equal(np.diagonal(m), np.zeros(m.shape[0]))

    def test_border_is_coefficient_vector(self, rng):
        h = random_closed_hamiltonian(rng, 5, 1, 1)
        m = build_structure_matrix(h)
        coeffs = np.array([coeff_dict(h).get(c, 0.0) for c in close(h).tolist()],
                          dtype=np.complex128)
        assert np.array_equal(m[0, 1:], coeffs)
        assert np.array_equal(m[1:, 0], coeffs)

    def test_zero_coefficients_allowed(self):
        # support smaller than the closed set it sits in
        ts = close_codes(3, [27, 45])
        h = SparseHamiltonian(3, [27], [1.0])
        m = build_structure_matrix(h, term_set=ts)
        assert m.shape == (4, 4)
        assert m[0, 1] == 1.0
        assert m[0, 2] == 0.0

    def test_term_set_qubit_mismatch(self):
        # a 3-qubit code does not fit the 2-qubit Hamiltonian's code range
        ts = close_codes(3, [27])
        with pytest.raises(ValueError, match="code 27 out of range for n=2"):
            build_structure_matrix(SparseHamiltonian(2, [9], [1.0]), term_set=ts)

    def test_unclosed_term_set_flagged(self):
        ts = np.array([1, 2], dtype=np.uint64)
        with pytest.raises(ValueError, match="not closed: 2 \\* 1 escapes it"):
            build_structure_matrix(SparseHamiltonian(1, [1, 2], [1.0, 0.5]), term_set=ts)

    def test_empty_hamiltonian(self):
        m = build_structure_matrix(SparseHamiltonian(2, [], []))
        assert m.shape == (1, 1)
        assert m[0, 0] == 0

    def test_code_at_border(self):
        # row 0 is the identity, row i the code term_set[i - 1]: one term fills
        # the border at its own position and nothing else
        ts = close_codes(3, [27, 45])
        m = build_structure_matrix(SparseHamiltonian(3, [45], [2.0]), term_set=ts)
        assert ts.tolist() == [27, 45, 54]
        assert np.flatnonzero(m[0]).tolist() == np.flatnonzero(m[:, 0]).tolist() == [2]


class TestResolvent:
    def test_solves_shifted_system(self):
        m = build_structure_matrix(h1_hamiltonian(1.0, 1.0, 1.0))
        z = 2.5 + 0.3j
        r = resolvent_at(m, z)
        lhs = (z * np.eye(4) - m) @ r
        e0 = np.array([1, 0, 0, 0], dtype=complex)
        assert np.abs(lhs - e0).max() < 1e-12

    def test_matches_inverse_first_column(self):
        m = build_structure_matrix(h1_hamiltonian(0.3, -0.7, 1.1))
        z = 1.9j
        inv = np.linalg.inv(z * np.eye(4) - m)
        assert np.abs(resolvent_at(m, z) - inv[:, 0]).max() < 1e-12

    def test_exact_eigenvalue_is_singular(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
        with pytest.raises(SingularSystem):
            resolvent_at(m, 1.0)

    def test_near_eigenvalue_fails_residual(self):
        m = build_structure_matrix(h1_hamiltonian(1.0, 1.0, 1.0))
        lam = float(np.linalg.eigvalsh(m)[-1])
        with pytest.raises(SingularSystem):
            resolvent_at(m, lam)

    def test_accepts_plain_arrays(self):
        m = np.diag([1.0, 2.0]).astype(np.complex128)
        r = resolvent_at(m, 5.0)
        assert r[0] == pytest.approx(1 / 4)


class TestCharacteristicPoly:
    def test_det_factorization(self):
        h = [0.37, -0.81, 0.55, 0.23, -0.44, 0.66, -0.12]
        m = build_structure_matrix(h2_hamiltonian(h))
        h1 = h[0]
        mu = sum(x * x for x in h[1:])
        nu = 2 * h[1] * h[2] + 2 * h[3] * h[4] - 2 * h[5] * h[6]
        for z in (0.9 + 0.4j, -1.3 + 2j, 3.0, 0.2j):
            got = characteristic_poly_at(m, z)
            want = ((z + h1) ** 2 - mu + nu) ** 2 * ((z - h1) ** 2 - mu - nu) ** 2
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_large_z_asymptotics(self):
        m = build_structure_matrix(h1_hamiltonian(1.0, -0.5, 2.0))
        z = 1e6
        assert characteristic_poly_at(m, z) == pytest.approx(z**m.shape[0], rel=1e-6)
