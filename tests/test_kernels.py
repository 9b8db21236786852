"""Phase and assembly kernels against naive scalar references."""

import numpy as np
import pytest

from pauliexp.pauli import I_POWERS_ARR, phase_exponent, phase_exponents
from pauliexp.resolvent import build_structure_matrix
from pauliexp.hamiltonian import SparseHamiltonian, random_closed_hamiltonian


def random_codes(rng, n, size):
    return rng.integers(0, 4**n, size=size, dtype=np.uint64)


class TestPhaseExponents:
    def test_matches_scalar_reference(self, rng):
        cases = []
        for n in (1, 10, 31, 32):
            a = random_codes(rng, n, 200)
            b = random_codes(rng, n, 200)
            if n == 32:
                a[:4] = b[2:6] = 2**64 - 1  # Z on every qubit, the top digit included
            cases.append((n, a, b))
        # outer broadcast, as engine.is_pairwise_anticommuting calls it
        cases.append((32, random_codes(rng, 32, 30)[:, None], random_codes(rng, 32, 20)[None, :]))
        for n, a, b in cases:
            out = phase_exponents(a, b)
            assert out.dtype == np.uint8
            assert out.shape == np.broadcast_shapes(a.shape, b.shape)
            for (x, y), e in zip(np.broadcast(a, b), out.ravel()):
                assert int(e) == phase_exponent(int(x), int(y)), (n, int(x), int(y))

    def test_empty(self):
        a = np.empty(0, dtype=np.uint64)
        assert phase_exponents(a, a).shape == (0,)


def naive_assemble(codes, coeffs):
    """Dict-based reference for the structure matrix."""
    tau = len(codes)
    index = {int(c): i for i, c in enumerate(codes)}
    a = np.zeros((tau + 1, tau + 1), dtype=np.complex128)
    a[0, 1:] = coeffs
    a[1:, 0] = coeffs
    for j, k in enumerate(codes):
        for l, hl in zip(codes, coeffs):
            m = int(k) ^ int(l)
            if m == 0:
                continue
            a[index[m] + 1, j + 1] += hl * I_POWERS_ARR[phase_exponent(int(k), int(l))]
    return a


def structure_matrix(codes, coeffs):
    """build_structure_matrix over `codes`, the Hamiltonian holding the
    nonzero coeffs."""
    nz = coeffs != 0
    return build_structure_matrix(SparseHamiltonian(32, codes[nz], coeffs[nz]), term_set=codes)


class TestAssemble:
    def test_against_naive(self, rng):
        for s, c in ((0, 1), (1, 0), (1, 1), (2, 0)):
            h = random_closed_hamiltonian(rng, 5, s, c)
            codes, coeffs = h.codes, h.values.copy()
            got = structure_matrix(codes, coeffs)
            assert np.array_equal(got, naive_assemble(codes, coeffs))

    def test_zero_coefficients_and_high_codes(self, rng):
        # zero coefficients skip their string; codes >= 2**63 at n = 32
        for n, s, c in ((5, 2, 1), (32, 2, 0)):
            h = random_closed_hamiltonian(rng, n, s, c)
            codes, coeffs = h.codes, h.values.copy()
            coeffs[::3] = 0.0
            got = structure_matrix(codes, coeffs)
            assert np.array_equal(got, naive_assemble(codes, coeffs))

    @pytest.mark.parametrize("seed", [0, 8192])
    def test_reports_first_escaping_pair(self, seed):
        # two independent random Hamiltonians, each with one code removed
        h = random_closed_hamiltonian(np.random.default_rng(seed), 6, 2, 1)
        codes, coeffs = np.delete(h.codes, 11), np.delete(h.values, 11)
        coeffs[:2] = 0.0
        members = set(codes.tolist())
        k, l = next((k, l) for l in range(codes.size) if coeffs[l]
                    for k in range(codes.size)
                    if k != l and int(codes[k]) ^ int(codes[l]) not in members)
        with pytest.raises(ValueError) as info:
            structure_matrix(codes, coeffs)
        assert str(info.value) == (f"term set is not closed: {int(codes[k])} * {int(codes[l])} "
                                   "escapes it")

    def test_hermitian_exactly(self, rng):
        h = random_closed_hamiltonian(rng, 6, 2, 0)
        a = structure_matrix(h.codes, h.values)
        assert np.array_equal(a, a.conj().T)

    def test_flags_unclosed_set(self):
        # {X, Y} without their product Z
        codes = np.array([1, 2], dtype=np.uint64)
        coeffs = np.array([0.5, 0.25])
        with pytest.raises(ValueError, match="term set is not closed"):
            structure_matrix(codes, coeffs)

    def test_empty_set(self):
        a = structure_matrix(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64))
        assert a.shape == (1, 1)
        assert a[0, 0] == 0
