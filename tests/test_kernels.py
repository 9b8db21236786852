"""Phase and assembly kernels against naive scalar references."""

import numpy as np
import pytest

from pauliexp import _kernels
from pauliexp.pauli import PauliString, compose, phase_exponent
from conftest import make_closed_hamiltonian


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
            out = _kernels.phase_exponents(a, b)
            assert out.dtype == np.uint8
            assert out.shape == np.broadcast_shapes(a.shape, b.shape)
            for (x, y), e in zip(np.broadcast(a, b), out.ravel()):
                p, q = PauliString(n, int(x)), PauliString(n, int(y))
                assert int(e) == phase_exponent(p, q), (n, int(x), int(y))

    def test_empty(self):
        a = np.empty(0, dtype=np.uint64)
        assert _kernels.phase_exponents(a, a).shape == (0,)


def naive_assemble(codes, coeffs):
    """Dict-based reference for the structure matrix."""
    n = 32  # width is irrelevant to the arithmetic
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
            _, ph = compose(PauliString(n, int(k)), PauliString(n, int(l)))
            a[index[m] + 1, j + 1] += hl * ph.value
    return a


class TestAssemble:
    def test_against_naive(self, rng):
        for rank in (1, 2, 3, 4):
            h = make_closed_hamiltonian(rng, 5, rank)
            codes = np.array(h.support, dtype=np.uint64)
            coeffs = np.array([h.terms[c] for c in h.support])
            got, bad_k, bad_l = _kernels.assemble(codes, coeffs)
            assert bad_k == -1
            assert np.array_equal(got, naive_assemble(codes, coeffs))

    def test_blocks_match_naive(self, rng, monkeypatch):
        # one column a block, zero coefficients and codes >= 2**63
        monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 0)
        for n, rank in ((5, 5), (32, 4)):
            h = make_closed_hamiltonian(rng, n, rank)
            codes = np.array(h.support, dtype=np.uint64)
            coeffs = np.array([h.terms[c] for c in h.support])
            coeffs[::3] = 0.0
            got, bad_k, bad_l = _kernels.assemble(codes, coeffs)
            assert (bad_k, bad_l) == (-1, -1)
            assert np.array_equal(got, naive_assemble(codes, coeffs))

    @pytest.mark.parametrize("block_entries", [0, 8192])
    def test_reports_first_escaping_pair(self, rng, monkeypatch, block_entries):
        monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", block_entries)
        h = make_closed_hamiltonian(rng, 6, 5)
        codes = np.delete(np.array(h.support, dtype=np.uint64), 11)
        coeffs = np.array([h.terms[int(c)] for c in codes])
        coeffs[:2] = 0.0
        members = set(codes.tolist())
        want = next((k, l) for l in range(codes.size) if coeffs[l]
                    for k in range(codes.size)
                    if k != l and int(codes[k]) ^ int(codes[l]) not in members)
        _, bad_k, bad_l = _kernels.assemble(codes, coeffs)
        assert (bad_k, bad_l) == want

    def test_hermitian_exactly(self, rng):
        h = make_closed_hamiltonian(rng, 6, 4)
        codes = np.array(h.support, dtype=np.uint64)
        coeffs = np.array([h.terms[c] for c in h.support])
        a, _, _ = _kernels.assemble(codes, coeffs)
        assert np.array_equal(a, a.conj().T)

    def test_flags_unclosed_set(self):
        # {X, Y} without their product Z
        codes = np.array([1, 2], dtype=np.uint64)
        coeffs = np.array([0.5, 0.25])
        _, bad_k, bad_l = _kernels.assemble(codes, coeffs)
        assert bad_k >= 0

    def test_empty_set(self):
        a, bad_k, _ = _kernels.assemble(
            np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
        )
        assert bad_k == -1
        assert a.shape == (1, 1)
        assert a[0, 0] == 0

