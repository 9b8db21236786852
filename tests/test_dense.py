import numpy as np
import pytest

from pauliexp import (
    FormatError,
    PauliExpansion,
    SparseHamiltonian,
    compare,
    dense_exp,
    embed,
    load_hamiltonian,
    pauli_matrix,
    read_dense,
    reconstruct_dense,
)
from pauliexp.dense import (
    DENSE_CAP_MAX,
    dense_from_bytes,
    dense_from_json,
    dense_to_bytes,
    dense_to_json,
)


class TestPauliMatrix:
    def test_one_qubit_exact(self):
        assert np.array_equal(pauli_matrix(1, 0), np.eye(2))
        assert np.array_equal(pauli_matrix(1, 1), [[0, 1], [1, 0]])
        assert np.array_equal(pauli_matrix(1, 2), [[0, -1j], [1j, 0]])
        assert np.array_equal(pauli_matrix(1, 3), [[1, 0], [0, -1]])

    def test_identity_any_width(self):
        assert np.array_equal(pauli_matrix(3, 0), np.eye(8))

    def test_kron_order_big_endian(self):
        # "31" = (Z on qubit 1) kron (X on qubit 2): leftmost digit outermost
        want = np.array(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]],
            dtype=complex,
        )
        assert np.array_equal(pauli_matrix(2, int("31", 4)), want)

    def test_traces(self, rng):
        n = 3
        assert np.trace(pauli_matrix(n, 0)) == 2**n
        for code in rng.integers(1, 4**n, size=8):
            assert np.trace(pauli_matrix(n, int(code))) == 0

    def test_unitary_hermitian_exact(self, rng):
        for code in rng.integers(0, 4**3, size=6):
            m = pauli_matrix(3, int(code))
            assert np.array_equal(m, m.conj().T)
            assert np.array_equal(m @ m, np.eye(8))

    @pytest.mark.parametrize("code", [-1, 4, 2**64 - 1])
    def test_code_out_of_range(self, code):
        with pytest.raises(ValueError, match=f"code {code} out of range for n=1"):
            pauli_matrix(1, code)

    def test_cap(self):
        with pytest.raises(ValueError):
            pauli_matrix(11, 0)
        with pytest.raises(ValueError):
            pauli_matrix(11, 0, dense_cap=DENSE_CAP_MAX + 1)
        for cap in (0, -1):
            with pytest.raises(ValueError, match=rf"dense cap must be in \[1, 12\], got {cap}"):
                pauli_matrix(1, 0, dense_cap=cap)
        # raising the cap unlocks it
        m = pauli_matrix(11, 0, dense_cap=11)
        assert m.shape == (2048, 2048)


class TestReconstruct:
    def test_cycle_has_24_nonzeros(self, fixtures_dir):
        h = load_hamiltonian(fixtures_dir / "h1.txt")
        m = reconstruct_dense(h)
        assert int(np.count_nonzero(m)) == 24

    def test_empty_expansion_is_zero(self):
        assert not reconstruct_dense(PauliExpansion(2, [], [])).any()

    def test_uniform_superposition_projector(self, fixtures_dir):
        rho = reconstruct_dense(load_hamiltonian(fixtures_dir / "rho_s_n3.txt"))
        assert np.abs(rho - 1.0 / 8.0).max() < 1e-15

    def test_linearity(self, rng):
        e1 = PauliExpansion(2, [1, 6], [0.5j, 1.0])
        e2 = PauliExpansion(2, [6, 9], [-2.0, 0.25])
        alpha = 1.5 - 0.5j
        combined = PauliExpansion(2, [1, 6, 9], [alpha * 0.5j, alpha - 2.0, 0.25])
        lhs = reconstruct_dense(combined)
        rhs = alpha * reconstruct_dense(e1) + reconstruct_dense(e2)
        assert np.abs(lhs - rhs).max() < 1e-14

    def test_includes_identity_offset(self):
        h = SparseHamiltonian(1, [3], [1.0], identity_offset=2.0)
        assert np.array_equal(reconstruct_dense(h), np.diag([3.0, 1.0]))

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            reconstruct_dense(np.eye(2))

    def test_cap(self):
        with pytest.raises(ValueError):
            reconstruct_dense(PauliExpansion(11, [0], [1.0]))


class TestDenseExp:
    def test_zero_matrix(self):
        assert np.array_equal(dense_exp(np.zeros((4, 4)), 1.7), np.eye(4))

    def test_diagonal_case(self):
        m = np.diag([1.0, -1.0])
        got = dense_exp(m, 0.8)
        assert np.allclose(got, np.diag([np.exp(-0.8), np.exp(0.8)]), atol=1e-14)

    def test_semigroup(self, rng):
        for n in (2, 5):
            x = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            m = (x + x.conj().T) / 2
            b1, b2 = 0.4, 0.9
            lhs = dense_exp(m, b1 + b2)
            rhs = dense_exp(m, b1) @ dense_exp(m, b2)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_trace_is_eigenvalue_sum(self, rng):
        x = rng.normal(size=(8, 8))
        m = x + x.T
        beta = 0.6
        w = np.linalg.eigvalsh(m)
        assert np.trace(dense_exp(m, beta)).real == pytest.approx(
            np.exp(-beta * w).sum(), abs=1e-10
        )

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            dense_exp(m, 1.0)
        # a defect past float64 reads as inf, not as an overflow
        with pytest.raises(ValueError, match=r"not Hermitian \(defect inf\)"):
            dense_exp(np.array([[0.0, 1.7e308], [-1.7e308, 0.0]]), 1.0)

    @pytest.mark.filterwarnings("error")
    def test_overflow_names_beta_and_path(self):
        m = np.diag([1.0, -1.0])
        assert dense_exp(m, 709.0)[1, 1].real == pytest.approx(np.exp(709.0))
        for beta in (710.0, -710.0, 710.0 + 2j):
            with pytest.raises(OverflowError, match=r"beta -?710.*dense path"):
                dense_exp(m, beta)


class TestCompare:
    def test_identical(self):
        m = np.eye(4)
        assert compare(m, m) == (0.0, 0.0)

    def test_identity_vs_zero(self):
        n = 3
        res = compare(np.eye(2**n), np.zeros((2**n, 2**n)))
        assert res.max_abs == 1.0
        assert res.frobenius == pytest.approx(np.sqrt(2**n))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compare(np.eye(2), np.eye(4))


class TestEmbed:
    def test_qutrit_shape_and_content(self):
        hp = np.diag([2.0, 0.0, -2.0])
        m = embed(hp)
        assert m.shape == (4, 4)
        assert np.array_equal(m[:3, :3], hp)
        assert not m[3, :].any() and not m[:, 3].any()

    def test_explicit_n(self):
        m = embed(np.eye(3), n=3)
        assert m.shape == (8, 8)

    def test_too_small(self):
        with pytest.raises(ValueError):
            embed(np.eye(5), n=2)

    def test_non_square(self):
        with pytest.raises(ValueError):
            embed(np.zeros((2, 3)))


class TestFormats:
    def random_matrix(self, rng, n):
        d = 2**n
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    def test_json_round_trip(self, rng):
        m = self.random_matrix(rng, 2)
        assert np.array_equal(dense_from_json(dense_to_json(m)), m)

    def test_bytes_round_trip(self, rng):
        m = self.random_matrix(rng, 3)
        blob = dense_to_bytes(m)
        assert blob[:4] == b"PEXP"
        assert len(blob) == 8 + 64 * 16
        assert np.array_equal(dense_from_bytes(blob), m)

    def test_files_round_trip_both_ways(self, rng, tmp_path):
        m = self.random_matrix(rng, 2)
        jpath, bpath = tmp_path / "m.json", tmp_path / "m.pexp"
        jpath.write_text(dense_to_json(m))
        bpath.write_bytes(dense_to_bytes(m))
        assert np.array_equal(read_dense(jpath), m)
        assert np.array_equal(read_dense(bpath), m)

    @pytest.mark.parametrize(
        "blob",
        [
            b"",
            b"NOPE" + b"\x00" * 20,
            b"PEXP" + b"\x01\x00\x00\x00",  # truncated body
            b"PEXP" + b"\x30\x00\x00\x00" + b"\x00" * 64,  # absurd n
            b"PEXP" + b"\x01\x00\x00\x00" + np.array([1, 0, 1j * np.inf, 1]).astype("<c16").tobytes(),
            b"PEXP" + b"\x01\x00\x00\x00" + np.array([1, np.nan, 0, 1]).astype("<c16").tobytes(),
        ],
    )
    def test_bad_bytes(self, blob):
        with pytest.raises(FormatError):
            dense_from_bytes(blob)

    @pytest.mark.parametrize(
        "text",
        [
            "{nope",
            '{"matrix": []}',
            '{"n": 1, "matrix": [[[0,0]]]}',
            '{"n": 1, "matrix": [[[0,0],[0,0]],[[0,0],[0]]]}',
            '{"n": 0, "matrix": [[[0,0]]]}',
            '{"n": 1, "matrix": [[[0,0],[0,0]],[[0,0]]]}',
            '{"n": true, "matrix": [[[0,0],[0,0]],[[0,0],[0,0]]]}',
        ],
    )
    def test_bad_json(self, text):
        with pytest.raises(FormatError):
            dense_from_json(text)

    @pytest.mark.parametrize("part", ["null", "true", '"0.5"', '"1e999"', "NaN", "Infinity",
                                      "1e400", "[1]"])
    @pytest.mark.parametrize("at", [0, 1])
    def test_bad_entry_is_named(self, part, at):
        pair = [part, "0"] if at == 0 else ["0", part]
        text = ('{"n": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [%s, %s]]]}' % tuple(pair))
        with pytest.raises(FormatError, match=r"^entry \(1, 1\): (re|im) must be a "):
            dense_from_json(text)

    def test_read_dense_rejects_garbage(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"\xff\xfe\x00\x01garbage")
        with pytest.raises(FormatError):
            read_dense(p)
