import numpy as np
import pytest
from hypothesis import given, strategies as st

from pauliexp.pauli import (
    MAX_QUBITS,
    PauliString,
    Phase,
    commutes,
    compose,
    format_codes,
    format_string,
    parse_string,
    phase,
    phase_exponent,
    structure_constant,
)


class TestPauliString:
    def test_from_digits_round_trip(self):
        p = PauliString.from_digits([1, 2, 3])
        assert p.n == 3
        assert p.code == 0b011011  # 1*16 + 2*4 + 3
        assert p.digits == (1, 2, 3)

    def test_identity(self):
        p = PauliString.identity(4)
        assert p.is_identity()
        assert p.digits == (0, 0, 0, 0)
        assert p.weight == 0

    def test_weight(self):
        assert PauliString.from_digits([0, 2, 0, 3]).weight == 2

    def test_str_uses_digits(self):
        assert str(PauliString.from_digits([3, 1, 2])) == "312"

    @pytest.mark.parametrize("n", [0, -1, MAX_QUBITS + 1])
    def test_bad_n(self, n):
        with pytest.raises(ValueError):
            PauliString(n, 0)

    def test_code_out_of_range(self):
        with pytest.raises(ValueError):
            PauliString(2, 16)
        with pytest.raises(ValueError):
            PauliString(2, -1)

    def test_bad_digit(self):
        with pytest.raises(ValueError):
            PauliString.from_digits([1, 4])

    def test_max_width(self):
        p = PauliString.from_digits([3] * MAX_QUBITS)
        assert p.code == 4**MAX_QUBITS - 1
        assert p.digits == (3,) * MAX_QUBITS


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,digits",
        [
            ("123", (1, 2, 3)),
            ("XYZ", (1, 2, 3)),
            ("xyz", (1, 2, 3)),
            ("I", (0,)),
            ("0", (0,)),
            ("30", (3, 0)),
            ("ZI", (3, 0)),
        ],
    )
    def test_parse(self, text, digits):
        assert parse_string(text).digits == digits

    def test_letters_and_digits_agree(self):
        assert parse_string("XYZI") == parse_string("1230")

    @pytest.mark.parametrize("bad", ["", "  ", "1X", "4", "W", "12 3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_string(bad)

    def test_format_round_trip(self):
        p = parse_string("0123")
        assert format_string(p) == "0123"
        assert format_string(p, "letters") == "IXYZ"
        assert parse_string(format_string(p, "letters")) == p

    def test_format_bad_alphabet(self):
        with pytest.raises(ValueError):
            format_string(PauliString.identity(1), "runes")


class TestFormatCodes:
    """format_codes against PauliString.digits mapped through the alphabet."""

    @staticmethod
    def reference(n, codes, table):
        return ["".join(table[d] for d in PauliString(n, int(c)).digits) for c in codes]

    @pytest.mark.parametrize("n", [1, 2, 5, 31, 32])
    @pytest.mark.parametrize("alphabet,table", [("digits", "0123"), ("letters", "IXYZ")])
    def test_matches_digits(self, n, alphabet, table):
        rng = np.random.default_rng(n)
        top = 4**n - 1
        drawn = rng.integers(0, top, size=200, dtype=np.uint64, endpoint=True)
        codes = np.concatenate((np.array([0, top], dtype=np.uint64), drawn))
        if n == 32:
            codes = np.concatenate((codes, np.array([2**63, 2**63 + 12345], dtype=np.uint64)))
            assert (codes >= 2**63).sum() > 2
        assert format_codes(n, codes, alphabet) == self.reference(n, codes, table)
        assert format_codes(n, codes.tolist(), alphabet) == self.reference(n, codes, table)

    @pytest.mark.parametrize("alphabet", ["digits", "letters"])
    def test_empty(self, alphabet):
        assert format_codes(3, np.array([], dtype=np.uint64), alphabet) == []
        assert format_codes(3, (), alphabet) == []

    def test_unknown_alphabet(self):
        with pytest.raises(ValueError, match="runes"):
            format_codes(2, [1, 2], "runes")


class TestPhase:
    def test_values_exact(self):
        assert Phase(0).value == 1
        assert Phase(1).value == 1j
        assert Phase(2).value == -1
        assert Phase(3).value == -1j

    def test_mod_four(self):
        assert Phase(5) == Phase(1)
        assert Phase(-1) == Phase(3)

    def test_product(self):
        assert (Phase(3) * Phase(2)).value == 1j

    def test_conjugate(self):
        assert Phase(1).conjugate() == Phase(3)

    def test_str(self):
        assert [str(Phase(e)) for e in range(4)] == ["1", "i", "-1", "-i"]


# single-qubit multiplication table: (left, right) -> (product digit, phase exp)
ONE_QUBIT_TABLE = {
    (1, 2): (3, 1),
    (2, 1): (3, 3),
    (2, 3): (1, 1),
    (3, 2): (1, 3),
    (3, 1): (2, 1),
    (1, 3): (2, 3),
    (1, 1): (0, 0),
    (2, 2): (0, 0),
    (3, 3): (0, 0),
    (0, 2): (2, 0),
    (3, 0): (3, 0),
}


class TestCompose:
    @pytest.mark.parametrize("pair,expected", list(ONE_QUBIT_TABLE.items()))
    def test_one_qubit_table(self, pair, expected):
        a, b = (PauliString(1, d) for d in pair)
        m, ph = compose(a, b)
        assert (m.code, ph.exponent) == expected

    def test_cyclic_triple(self):
        # ordered products of the weight-3 cycle pick up +i forward, -i back
        s123, s231, s312 = (parse_string(t) for t in ("123", "231", "312"))
        assert compose(s123, s312) == (s231, Phase(1))
        assert compose(s231, s123) == (s312, Phase(1))
        assert compose(s312, s231) == (s123, Phase(1))
        assert compose(s312, s123) == (s231, Phase(3))

    def test_mixed_identity_positions(self):
        m, ph = compose(parse_string("312"), parse_string("210"))
        assert format_string(m) == "102"
        assert ph.value == -1j

    def test_phase_golden(self):
        assert phase(parse_string("231"), parse_string("312")).value == -1j

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            compose(parse_string("12"), parse_string("123"))


class TestCommutesAndStructure:
    def test_single_qubit_anticommute(self):
        assert not commutes(PauliString(1, 1), PauliString(1, 2))

    def test_commutes_with_identity(self):
        assert commutes(parse_string("123"), parse_string("000"))

    def test_even_overlap_commutes(self):
        assert commutes(parse_string("12"), parse_string("21"))

    def test_structure_constant_golden(self):
        assert structure_constant(parse_string("123"), parse_string("312")) == -2.0

    def test_structure_constant_zero_iff_commuting(self):
        a, b = parse_string("330"), parse_string("033")
        assert commutes(a, b)
        assert structure_constant(a, b) == 0.0

    def test_antisymmetry(self):
        a, b = parse_string("123"), parse_string("312")
        assert structure_constant(a, b) == -structure_constant(b, a)


def strings(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            PauliString, st.just(n), st.integers(0, 4**n - 1)
        )
    )


def string_pairs(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.builds(PauliString, st.just(n), st.integers(0, 4**n - 1)),
            st.builds(PauliString, st.just(n), st.integers(0, 4**n - 1)),
        )
    )


class TestAlgebraProperties:
    @given(strings())
    def test_self_product_is_identity(self, a):
        m, ph = compose(a, a)
        assert m.is_identity()
        assert ph == Phase(0)

    @given(strings())
    def test_identity_is_neutral(self, a):
        ident = PauliString.identity(a.n)
        assert compose(a, ident) == (a, Phase(0))
        assert compose(ident, a) == (a, Phase(0))

    @given(string_pairs())
    def test_phases_are_reciprocal(self, pair):
        # a.b and b.a produce the same string, with conjugate phases
        a, b = pair
        assert (phase_exponent(a, b) + phase_exponent(b, a)) % 4 == 0

    @given(string_pairs())
    def test_commutes_symmetric(self, pair):
        a, b = pair
        assert commutes(a, b) == commutes(b, a)

    @given(string_pairs())
    def test_structure_constant_values(self, pair):
        a, b = pair
        c = structure_constant(a, b)
        assert c in (0.0, 2.0, -2.0)
        assert (c == 0.0) == commutes(a, b)

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(*([st.integers(0, 4**n - 1)] * 3)).map(
                lambda codes: [PauliString(n, c) for c in codes]
            )
        )
    )
    def test_associativity(self, triple):
        a, b, c = triple
        ab, p1 = compose(a, b)
        abc_left, p2 = compose(ab, c)
        bc, p3 = compose(b, c)
        abc_right, p4 = compose(a, bc)
        assert abc_left == abc_right
        assert p1 * p2 == p3 * p4

    @given(string_pairs(max_n=3))
    def test_matrix_representation(self, pair):
        # the defining check: matrices multiply exactly like codes + phase
        from pauliexp.dense import pauli_matrix

        a, b = pair
        m, ph = compose(a, b)
        lhs = pauli_matrix(a) @ pauli_matrix(b)
        rhs = ph.value * pauli_matrix(m)
        assert np.array_equal(lhs, rhs)
