import json
from functools import reduce
from itertools import combinations
from operator import xor

import numpy as np
import pytest

from pauliexp import (
    ClosedTermSet,
    ClosureExplosion,
    FormatError,
    PauliExpansion,
    PauliString,
    SparseHamiltonian,
    close,
    close_codes,
    load_hamiltonian,
    parse_hamiltonian,
    pauli_decompose,
)
from pauliexp.dense import pauli_matrix, reconstruct_dense
from pauliexp.hamiltonian import (
    expansion_from_dict,
    expansion_to_dict,
    format_hamiltonian_text,
    hamiltonian_to_dict,
    parse_hamiltonian_json,
    parse_hamiltonian_text,
    qubit_count,
    random_closed_hamiltonian,
)
from conftest import make_closed_hamiltonian


class TestSparseHamiltonian:
    def test_basic(self):
        h = SparseHamiltonian(3, {27: 1.0, 45: -0.5}, identity_offset=2.0)
        assert h.support == (27, 45)
        assert h.coefficient(27) == 1.0
        assert h.coefficient(99) == 0.0
        assert h.identity_offset == 2.0

    def test_zero_coefficients_dropped(self):
        h = SparseHamiltonian(2, {5: 0.0, 6: 1.0})
        assert h.support == (6,)

    def test_identity_code_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            SparseHamiltonian(2, {0: 1.0})

    def test_out_of_range_code(self):
        with pytest.raises(ValueError):
            SparseHamiltonian(1, {4: 1.0})

    def test_non_finite(self):
        with pytest.raises(ValueError):
            SparseHamiltonian(1, {1: float("nan")})
        with pytest.raises(ValueError):
            SparseHamiltonian(1, {1: 1.0}, identity_offset=float("inf"))


class TestPauliExpansion:
    def test_support_and_lookup(self):
        e = PauliExpansion(2, {0: 1 + 2j, 5: -1j})
        assert e.support == (0, 5)
        assert e.coefficient(5) == -1j
        assert e.coefficient(3) == 0j

    def test_prune_keeps_identity(self):
        e = PauliExpansion(2, {0: 0j, 5: 1e-14, 6: 0.5})
        p = e.prune(1e-12)
        assert p.support == (0, 6)

    def test_dagger(self):
        e = PauliExpansion(1, {1: 1 + 2j})
        assert e.dagger().coefficient(1) == 1 - 2j

    def test_scaled(self):
        e = PauliExpansion(1, {1: 2.0})
        assert e.scaled(0.5j).coefficient(1) == 1j


class TestParseText:
    def test_basic_with_comments(self):
        h = parse_hamiltonian_text(
            """
            # a comment
            0.5 XYZ
            -1  123   # trailing note
            2.0 III
            """
        )
        assert h.n == 3
        assert h.coefficient(int("123", 4)) == pytest.approx(-0.5)
        assert h.identity_offset == 2.0

    def test_duplicates_accumulate(self):
        h = parse_hamiltonian_text("1 XX\n0.5 11\n")
        assert h.coefficient(0b0101) == 1.5

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "# only a comment\n",
            "abc XYZ\n",
            "1 WUT\n",
            "1 X Y\n",
            "1 X\n1 XX\n",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(FormatError):
            parse_hamiltonian_text(bad)

    def test_error_names_line(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_hamiltonian_text("1 X\nbogus\n")


class TestParseJson:
    def test_basic(self):
        doc = {"n": 2, "terms": [{"coeff": 0.5, "pauli": "XZ"},
                                 {"coeff": -1, "pauli": "II"}]}
        h = parse_hamiltonian_json(json.dumps(doc))
        assert h.n == 2
        assert h.coefficient(0b0111) == 0.5
        assert h.identity_offset == -1.0

    @pytest.mark.parametrize(
        "doc",
        [
            {"terms": []},
            {"n": 0, "terms": []},
            {"n": 2, "terms": [{"coeff": True, "pauli": "XX"}]},
            {"n": 2, "terms": [{"coeff": 1, "pauli": "X"}]},
            {"n": 2, "terms": [{"pauli": "XX"}]},
            {"n": 2, "terms": "XX"},
        ],
    )
    def test_rejects(self, doc):
        with pytest.raises(FormatError):
            parse_hamiltonian_json(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(FormatError):
            parse_hamiltonian_json("{oops")


class TestLoadAndSniff:
    def test_sniffs_json(self, tmp_path):
        p = tmp_path / "h.json"
        p.write_text(json.dumps({"n": 1, "terms": [{"coeff": 1, "pauli": "Z"}]}))
        assert load_hamiltonian(p).coefficient(3) == 1.0

    def test_sniffs_text(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("1 Z\n")
        assert load_hamiltonian(p).coefficient(3) == 1.0

    def test_dict_round_trip(self):
        h = SparseHamiltonian(2, {6: -0.5, 11: 1.25}, identity_offset=0.75)
        doc = hamiltonian_to_dict(h, alphabet="letters")
        assert [t["pauli"] for t in doc["terms"]] == ["II", "XY", "YZ"]
        again = parse_hamiltonian_json(json.dumps(doc))
        assert again.terms == h.terms
        assert again.identity_offset == h.identity_offset
        assert hamiltonian_to_dict(SparseHamiltonian(1, {}))["terms"] == []

    def test_parse_hamiltonian_dispatch(self):
        assert parse_hamiltonian("1 Z\n").n == 1
        assert parse_hamiltonian('{"n": 1, "terms": []}').n == 1

    def test_format_round_trip(self):
        h = SparseHamiltonian(3, {27: 0.25, 45: -1.5}, identity_offset=0.125)
        again = parse_hamiltonian_text(format_hamiltonian_text(h))
        assert again.terms == h.terms
        assert again.identity_offset == h.identity_offset
        lettered = format_hamiltonian_text(h, alphabet="letters")
        assert parse_hamiltonian_text(lettered).terms == h.terms


def gf2_rank(codes: list[int]) -> int:
    basis: list[int] = []
    for c in codes:
        for b in basis:
            c = min(c, c ^ b)
        if c:
            basis.append(c)
            basis.sort(reverse=True)
    return len(basis)


class TestClosure:
    def test_two_generators_golden(self):
        ts = close_codes(3, [int("123", 4), int("231", 4)])
        assert [int(c) for c in ts.codes] == [27, 45, 54]

    def test_single_element(self):
        ts = close_codes(2, [9])
        assert ts.tau == 1
        assert ts.code_at(0) == 9

    def test_empty(self):
        ts = close_codes(4, [])
        assert ts.tau == 0
        assert ts.is_closed()

    def test_of_hamiltonian(self):
        h = SparseHamiltonian(3, {27: 1.0, 45: 2.0})
        assert close(h) == close_codes(3, [27, 45])

    def test_idempotent(self, rng):
        for rank in (2, 4):
            h = make_closed_hamiltonian(rng, 6, rank)
            ts = close(h)
            again = close_codes(6, [int(c) for c in ts.codes])
            assert again == ts
            assert ts.is_closed()

    def test_size_is_two_to_rank_minus_one(self, rng):
        for _ in range(40):
            n = int(rng.choice([1, 2, 3, 5, 8, 16, 31, 32]))
            drawn = rng.integers(1, 4**n, size=int(rng.integers(1, 11)), dtype=np.uint64)
            gens = [int(g) for g in drawn]
            gens.append(gens[0] ^ gens[-1])  # dependent on the draws (0 for one draw)
            ts = close_codes(n, gens)
            assert ts.tau == 2 ** gf2_rank(gens) - 1
            assert ts.is_closed()
            if len(gens) <= 8:
                subsets = {reduce(xor, combo) for k in range(1, len(gens) + 1)
                           for combo in combinations(gens, k)}
                assert [int(c) for c in ts.codes] == sorted(subsets - {0})

    def test_explosion(self, fixtures_dir):
        h = load_hamiltonian(fixtures_dir / "xy_n6.txt")
        with pytest.raises(ClosureExplosion) as exc:
            close(h, cap=512)
        assert exc.value.cap == 512
        assert exc.value.size == 2047

    def test_explosion_before_enumeration(self):
        singles = [1 << (2 * j) for j in range(32)] + [3 << (2 * j) for j in range(32)]
        with pytest.raises(ClosureExplosion) as exc:
            close_codes(32, singles)
        assert exc.value.size == 2**64 - 1

    def test_xy_chain_true_size(self, fixtures_dir):
        h = load_hamiltonian(fixtures_dir / "xy_n6.txt")
        assert close(h, cap=4096).tau == 2047

    def test_cap_below_support(self):
        with pytest.raises(ClosureExplosion):
            close_codes(4, [1, 2, 3], cap=2)

    def test_out_of_range_generator(self):
        with pytest.raises(ValueError):
            close_codes(1, [7])

    @pytest.mark.parametrize("n,codes", [(0, []), (33, [1]), (40, [4**39])])
    def test_qubit_count_checked(self, n, codes):
        with pytest.raises(ValueError, match="qubit count"):
            close_codes(n, codes)


class TestRandomClosedHamiltonian:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_rank_up_to_2n(self, rng, n):
        h = random_closed_hamiltonian(rng, n, 2 * n)
        assert len(h.terms) == close(h).tau == 4**n - 1

    @pytest.mark.parametrize("n,rank", [(1, 3), (2, 5), (32, 65)])
    def test_rank_above_2n_raises_before_drawing(self, rng, n, rank):
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"rank {rank} exceeds 2n"):
            random_closed_hamiltonian(rng, n, rank)
        assert rng.bit_generator.state == state


class TestClosedTermSet:
    def test_index_round_trip(self):
        ts = close_codes(3, [27, 45])
        for i in range(ts.tau):
            assert ts.index_of(ts.code_at(i)) == i

    def test_index_of_missing(self):
        ts = close_codes(3, [27, 45])
        with pytest.raises(KeyError):
            ts.index_of(28)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClosedTermSet(2, np.array([0, 1], dtype=np.uint64))
        with pytest.raises(ValueError):
            ClosedTermSet(2, np.array([3, 2], dtype=np.uint64))
        with pytest.raises(ValueError):
            ClosedTermSet(1, np.array([5], dtype=np.uint64))

    def test_is_closed_detects_holes(self):
        ts = ClosedTermSet(1, np.array([1, 2], dtype=np.uint64))
        assert not ts.is_closed()

    def test_eq_and_hash(self):
        a = close_codes(3, [27, 45])
        b = close_codes(3, [45, 54])
        assert a == b
        assert hash(a) == hash(b)
        assert a != close_codes(3, [27])


def dumb_decompose(m: np.ndarray) -> dict[int, complex]:
    """O(4**n) trace oracle for the coefficient tensor."""
    n = qubit_count(m)
    out = {}
    for code in range(4**n):
        p = pauli_matrix(PauliString(n, code))
        c = np.trace(p @ m) / 2**n
        out[code] = complex(c)
    return out


class TestPauliDecompose:
    def test_matches_trace_oracle_hermitian(self, rng):
        for n in (1, 2, 3):
            x = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            m = x + x.conj().T
            h = pauli_decompose(m, zero_tol=0.0)
            assert isinstance(h, SparseHamiltonian)
            oracle = dumb_decompose(m)
            assert abs(h.identity_offset - oracle[0].real) < 1e-12
            for code in range(1, 4**n):
                assert abs(h.coefficient(code) - oracle[code].real) < 1e-12

    def test_matches_trace_oracle_general(self, rng):
        for n in (1, 2):
            m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            e = pauli_decompose(m, zero_tol=0.0)
            assert isinstance(e, PauliExpansion)
            oracle = dumb_decompose(m)
            for code in range(4**n):
                assert abs(e.coefficient(code) - oracle[code]) < 1e-12

    def test_reconstruct_round_trip(self, rng):
        for rank in (1, 2, 3):
            h = make_closed_hamiltonian(rng, 4, rank)
            back = pauli_decompose(reconstruct_dense(h))
            assert back.support == h.support
            for code in h.support:
                assert back.coefficient(code) == pytest.approx(
                    h.coefficient(code), abs=1e-13
                )

    def test_identity_offset_extracted(self):
        h = pauli_decompose(2.5 * np.eye(4))
        assert h.identity_offset == pytest.approx(2.5)
        assert h.support == ()

    def test_zero_tol_drops_small_terms(self):
        m = np.diag([1.0, 1.0]) + 1e-14 * np.diag([1.0, -1.0])
        h = pauli_decompose(m, zero_tol=1e-12)
        assert h.support == ()
        h2 = pauli_decompose(m, zero_tol=0.0)
        assert h2.support == (3,)

    def test_hermitian_tol_routes(self):
        m = np.array([[0.0, 1.0], [1.0 + 5e-11, 0.0]])
        assert isinstance(pauli_decompose(m), SparseHamiltonian)
        m2 = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
        assert isinstance(pauli_decompose(m2), PauliExpansion)

    def test_qutrit_golden(self):
        hp = np.zeros((4, 4), dtype=complex)
        hp[0, 0] = 2.0
        hp[1, 2] = -4j
        hp[2, 1] = 4j
        hp[2, 2] = -2.0
        h = pauli_decompose(hp)
        want = {int("12", 4): -2.0, int("21", 4): 2.0,
                int("30", 4): 1.0, int("33", 4): 1.0}
        assert set(h.support) == set(want)
        for code, val in want.items():
            assert abs(h.coefficient(code) - val) < 1e-14
        assert abs(h.identity_offset) < 1e-14

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (1, 1), (8,)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError):
            pauli_decompose(np.zeros(shape))


class TestExpansionDict:
    def test_round_trip_with_beta(self):
        e = PauliExpansion(2, {0: 1.5, 6: -0.25j})
        doc = expansion_to_dict(e, beta=0.5 + 0.1j)
        e2, beta = expansion_from_dict(doc)
        assert beta == 0.5 + 0.1j
        assert e2.coeffs == e.coeffs

    def test_round_trip_without_beta(self):
        e = PauliExpansion(1, {3: 1j})
        e2, beta = expansion_from_dict(expansion_to_dict(e))
        assert beta is None
        assert e2.coeffs == e.coeffs

    def test_letters_alphabet(self):
        e = PauliExpansion(2, {6: 1.0})
        doc = expansion_to_dict(e, alphabet="letters")
        assert doc["coeffs"][0]["pauli"] == "XY"
        e2, _ = expansion_from_dict(doc)
        assert e2.coeffs == e.coeffs

    @pytest.mark.parametrize(
        "doc",
        [
            {"coeffs": []},
            {"n": 2, "coeffs": [{"pauli": "XX", "re": 0}]},
            {"n": 2, "coeffs": [{"pauli": "X", "re": 0, "im": 0}]},
            {"n": 2, "beta": 3, "coeffs": []},
        ],
    )
    def test_from_dict_rejects(self, doc):
        with pytest.raises(FormatError):
            expansion_from_dict(doc)
