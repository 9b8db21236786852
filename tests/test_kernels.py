"""Parity between the numba kernels and the numpy fallbacks."""

import os
import subprocess
import sys

import numpy as np
import pytest

from pauliexp import _kernels
from pauliexp.pauli import PauliString, compose, phase_exponent
from conftest import make_closed_hamiltonian

needs_numba = pytest.mark.skipif(not _kernels.HAS_NUMBA, reason="numba not installed")


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
            out = _kernels.phase_exponents_numpy(a, b)
            assert out.dtype == np.uint8
            assert out.shape == np.broadcast_shapes(a.shape, b.shape)
            for (x, y), e in zip(np.broadcast(a, b), out.ravel()):
                p, q = PauliString(n, int(x)), PauliString(n, int(y))
                assert int(e) == phase_exponent(p, q), (n, int(x), int(y))

    @needs_numba
    def test_numba_matches_numpy(self, rng):
        for n in (1, 4, 17, 32):
            a = random_codes(rng, n, 500)
            b = random_codes(rng, n, 500)
            got = _kernels.phase_exponents_numba(a, b)
            want = _kernels.phase_exponents_numpy(a, b)
            assert np.array_equal(got, want)

    @needs_numba
    def test_numba_broadcasts_outer(self, rng):
        a = random_codes(rng, 6, 40)
        b = random_codes(rng, 6, 25)
        got = _kernels.phase_exponents_numba(a[:, None], b[None, :])
        want = _kernels.phase_exponents_numpy(a[:, None], b[None, :])
        assert got.shape == (40, 25)
        assert np.array_equal(got, want)

    def test_empty(self):
        a = np.empty(0, dtype=np.uint64)
        assert _kernels.phase_exponents_numpy(a, a).shape == (0,)


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
            got, bad_k, bad_l = _kernels.assemble_numpy(codes, coeffs)
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
            got, bad_k, bad_l = _kernels.assemble_numpy(codes, coeffs)
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
        _, bad_k, bad_l = _kernels.assemble_numpy(codes, coeffs)
        assert (bad_k, bad_l) == want

    @needs_numba
    def test_numba_matches_numpy(self, rng):
        for rank in (1, 3, 5):
            h = make_closed_hamiltonian(rng, 7, rank)
            codes = np.array(h.support, dtype=np.uint64)
            coeffs = np.array([h.terms[c] for c in h.support])
            a1, k1, l1 = _kernels.assemble_numpy(codes, coeffs)
            a2, k2, l2 = _kernels.assemble_numba(codes, coeffs)
            assert (k1, l1) == (-1, -1)
            assert (k2, l2) == (-1, -1)
            assert np.array_equal(a1, a2)

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
        _, bad_k, bad_l = _kernels.assemble_numpy(codes, coeffs)
        assert bad_k >= 0
        if _kernels.HAS_NUMBA:
            _, bad_k2, _ = _kernels.assemble_numba(codes, coeffs)
            assert bad_k2 >= 0

    def test_empty_set(self):
        a, bad_k, _ = _kernels.assemble(
            np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
        )
        assert bad_k == -1
        assert a.shape == (1, 1)
        assert a[0, 0] == 0


class TestBackendSelection:
    def test_active_backend_is_valid(self):
        assert _kernels.backend() in ("numba", "numpy")
        if _kernels.HAS_NUMBA and os.environ.get("PAULIEXP_BACKEND", "auto") == "auto":
            assert _kernels.backend() == "numba"

    @pytest.mark.parametrize("flavor", ["numpy", "numba"])
    def test_env_flag_selects(self, flavor):
        if flavor == "numba" and not _kernels.HAS_NUMBA:
            pytest.skip("numba not installed")
        code = (
            "from pauliexp import _kernels; import sys; "
            "sys.exit(0 if _kernels.backend() == %r else 1)" % flavor
        )
        env = dict(os.environ, PAULIEXP_BACKEND=flavor)
        proc = subprocess.run([sys.executable, "-c", code], env=env)
        assert proc.returncode == 0

    def test_env_flag_rejects_unknown(self):
        env = dict(os.environ, PAULIEXP_BACKEND="cuda")
        proc = subprocess.run(
            [sys.executable, "-c", "import pauliexp._kernels"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode != 0
        assert "PAULIEXP_BACKEND" in proc.stderr

    def test_numpy_backend_full_pipeline(self, fixtures_dir):
        # same expansion bit-for-bit through the fallback kernels
        code = (
            "import json, pauliexp as px\n"
            "h = px.load_hamiltonian(%r)\n"
            "e = px.exp_spectral(h, 1.0)\n"
            "print(json.dumps({str(k): [v.real, v.imag] for k, v in e.coeffs.items()}))\n"
            % str(fixtures_dir / "h2.txt")
        )
        outs = {}
        for flavor in ("numpy", "auto"):
            env = dict(os.environ, PAULIEXP_BACKEND=flavor)
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            outs[flavor] = proc.stdout
        assert outs["numpy"] == outs["auto"]
