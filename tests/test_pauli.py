import numpy as np
import pytest
from hypothesis import given, strategies as st

from pauliexp.dense import pauli_matrix
from pauliexp.hamiltonian import checked_codes
from pauliexp.pauli import (
    I_POWERS_ARR,
    MAX_QUBITS,
    LabelError,
    format_codes,
    parse_codes,
    phase_exponent,
    phase_exponents,
)


def code(label: str) -> int:
    """The code of one base-4 label, by Python's own int parser."""
    return int(label, 4)


def commutes(x: int, y: int) -> bool:
    """Strings commute exactly when both orders pick up the same phase."""
    return phase_exponent(x, y) == phase_exponent(y, x)


def commutator_coefficient(x: int, y: int) -> float:
    """Real C with [P_x, P_y] = i C P_(x xor y): zero when they commute, else +-2."""
    c = I_POWERS_ARR[(phase_exponent(x, y) + 1) % 4] - I_POWERS_ARR[(phase_exponent(y, x) + 1) % 4]
    assert c.imag == 0.0  # a commutator of Pauli strings is i times a real multiple
    return float(c.real)


class TestPauliString:
    """Pauli strings as packed base-4 codes, qubit 1 the most significant digit."""

    def test_from_digits_round_trip(self):
        assert parse_codes(["123"]).tolist() == [0b011011]  # 1*16 + 2*4 + 3
        assert format_codes(3, [0b011011]) == ["123"]

    def test_identity(self):
        assert format_codes(4, [0]) == ["0000"]
        assert format_codes(4, [0], "letters") == ["IIII"]
        assert parse_codes(["IIII"]).tolist() == [0]

    def test_str_uses_digits(self):
        assert format_codes(3, [code("312")]) == ["312"]

    @pytest.mark.parametrize("n", [0, -1, MAX_QUBITS + 1])
    def test_bad_n(self, n):
        with pytest.raises(ValueError, match="qubit count"):
            checked_codes(n, [0])

    def test_code_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            checked_codes(2, [16])
        with pytest.raises(ValueError, match="out of range"):
            checked_codes(2, [-1])

    def test_bad_digit(self):
        with pytest.raises(LabelError):
            parse_codes(["14"])

    def test_max_width(self):
        assert parse_codes(["3" * MAX_QUBITS]).tolist() == [4**MAX_QUBITS - 1]
        assert format_codes(MAX_QUBITS, [4**MAX_QUBITS - 1]) == ["3" * MAX_QUBITS]


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
        label = "".join(map(str, digits))
        assert parse_codes([text]).tolist() == [code(label)]
        assert format_codes(len(digits), parse_codes([text])) == [label]

    def test_letters_and_digits_agree(self):
        assert parse_codes(["XYZI"]).tolist() == parse_codes(["1230"]).tolist()

    @pytest.mark.parametrize("bad", ["", "  ", "1X", "4", "W", "12 3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_codes([bad])

    def test_format_round_trip(self):
        codes = parse_codes(["0123"])
        assert format_codes(4, codes) == ["0123"]
        assert format_codes(4, codes, "letters") == ["IXYZ"]
        assert parse_codes(format_codes(4, codes, "letters")).tolist() == codes.tolist()

    def test_format_bad_alphabet(self):
        with pytest.raises(ValueError):
            format_codes(1, [0], "runes")


class TestFormatCodes:
    """format_codes against the base-4 digits mapped through the alphabet one by one."""

    @staticmethod
    def reference(n, codes, table):
        return ["".join(table[int(c) >> 2 * (n - 1 - q) & 3] for q in range(n)) for c in codes]

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


def parse_one(text: str) -> tuple[int, int]:
    """Per-character parse of one label to (qubits, code): the reference
    parse_codes must match."""
    s = text.strip()
    if not s:
        raise ValueError("empty Pauli string")
    up = s.upper()
    if all(c in "0123" for c in up):
        digits = [int(c) for c in up]
    elif all(c in "IXYZ" for c in up):
        digits = ["IXYZ".index(c) for c in up]
    else:
        raise ValueError(f"not a Pauli string (digits 0-3 or letters IXYZ): {text!r}")
    if len(digits) > MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {len(digits)}")
    return len(digits), sum(d << 2 * (len(digits) - 1 - q) for q, d in enumerate(digits))


def parse_list(labels, n=None):
    """parse_one over a list with the length rule: (codes, None) or (None, (index, message))."""
    codes = []
    for i, label in enumerate(labels):
        try:
            length, c = parse_one(label)
        except ValueError as exc:
            return None, (i, str(exc))
        width = n if n is not None else (length if i == 0 else width)
        if length != width:
            tail = f"{width} from earlier lines" if n is None else f"n={n}"
            return None, (i, f"string length {length} != {tail}")
        codes.append(c)
    return codes, None


def assert_matches_reference(labels, n=None):
    """parse_codes(labels, n) gives parse_list's codes, or raises its fault."""
    codes, fault = parse_list(labels, n)
    if fault is None:
        assert parse_codes(labels, n).tolist() == codes
    else:
        with pytest.raises(LabelError) as info:
            parse_codes(labels, n)
        assert (info.value.index, str(info.value)) == fault


# mostly Pauli characters, with whitespace, other ASCII and non-ASCII junk
# (U+0131 upper-cases to "I")
label_text = st.text(st.sampled_from("0123IXYZixyz" * 4 + " \t4W-.\u0131\u00e9\u00df"), max_size=6)


class TestParseCodes:
    @given(st.integers(1, MAX_QUBITS).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, 4**n - 1), max_size=20))),
        st.sampled_from(["digits", "letters"]))
    def test_inverts_format_codes(self, n_codes, alphabet):
        n, codes = n_codes
        codes = np.array(codes, dtype=np.uint64)
        assert np.array_equal(parse_codes(format_codes(n, codes, alphabet)), codes)

    @pytest.mark.parametrize("alphabet", ["digits", "letters"])
    def test_top_bit(self, alphabet):
        codes = np.array([2**63, 2**64 - 1, 2**63 + 12345, 0], dtype=np.uint64)
        assert np.array_equal(parse_codes(format_codes(32, codes, alphabet)), codes)

    @given(label_text)
    def test_one_label_matches_reference(self, text):
        try:
            want = parse_one(text)
        except ValueError as exc:
            with pytest.raises(LabelError) as info:
                parse_codes([text])
            assert (info.value.index, str(info.value)) == (0, str(exc))
        else:
            assert parse_codes([text]).tolist() == [want[1]]

    @given(st.lists(label_text, max_size=5), st.sampled_from([None, 1, 2, 3]))
    def test_lists_match_reference(self, labels, n):
        assert_matches_reference(labels, n)

    @pytest.mark.parametrize("chars", ["0123", "IXYZ", "ixyz"])
    def test_every_width_matches_int(self, chars):
        """The word kernel against int(label, 4) at every width, codes of
        2**63 and above among them, and each fault at its index."""
        rng = np.random.default_rng(ord(chars[0]))
        for width in range(1, MAX_QUBITS + 1):
            digits = rng.integers(0, 4, size=(6, width)).tolist()
            digits += [[0] * width, [3] * width, [2] + [0] * (width - 1), [1] + [3] * (width - 1)]
            labels = ["".join(chars[d] for d in row) for row in digits]
            codes = [int("".join(map(str, row)), 4) for row in digits]
            assert parse_codes(labels).tolist() == codes
            assert parse_codes(labels, width).tolist() == codes
            other = "I0"[chars == "0123"]  # a character of the other alphabet
            for fault in ("W", other, chars[1] * 2, ""):
                bad = labels.copy()
                bad[3] = bad[3][:-1] + fault
                for n in (None, width):
                    assert_matches_reference(bad, n)
        assert {2**63, 2**63 - 1, 2**64 - 1} <= set(codes)  # the last width's codes

    def test_lengths_and_long_labels(self):
        for labels, n, fault in [
            (["X" * 33, "W"], None, (0, "qubit count must be in [1, 32], got 33")),
            (["X", "X" * 33], None, (1, "qubit count must be in [1, 32], got 33")),
            (["X" * 33], 32, (0, "qubit count must be in [1, 32], got 33")),
            (["XX", "W"], 1, (0, "string length 2 != n=1")),
        ]:
            assert parse_list(labels, n) == (None, fault)
            with pytest.raises(LabelError) as info:
                parse_codes(labels, n)
            assert (info.value.index, str(info.value)) == fault


class TestPhase:
    """The phases i**e as I_POWERS_ARR, indexed by phase exponents."""

    def test_values_exact(self):
        assert I_POWERS_ARR.tolist() == [1, 1j, -1, -1j]
        # every zero part is +0.0, so no product with it leaves a -0.0 behind
        assert np.signbit(I_POWERS_ARR.real).tolist() == [False, False, True, False]
        assert np.signbit(I_POWERS_ARR.imag).tolist() == [False, False, False, True]

    def test_mod_four(self):
        # four cyclic qubit pairs give i**4 = 1, three give i**3 = -i
        assert phase_exponent(code("1111"), code("2222")) == 0
        assert phase_exponent(code("111"), code("222")) == 3
        assert phase_exponents(np.uint64(code("1111")), np.uint64(code("2222"))) == 0

    def test_product(self):
        for a in range(4):
            for b in range(4):
                assert I_POWERS_ARR[(a + b) % 4] == I_POWERS_ARR[a] * I_POWERS_ARR[b]

    def test_conjugate(self):
        for e in range(4):
            assert I_POWERS_ARR[-e % 4] == np.conj(I_POWERS_ARR[e])


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
    """P_a P_b = i**phase_exponent(a, b) P_(a xor b)."""

    @pytest.mark.parametrize("pair,expected", list(ONE_QUBIT_TABLE.items()))
    def test_one_qubit_table(self, pair, expected):
        a, b = pair
        assert (a ^ b, phase_exponent(a, b)) == expected
        assert phase_exponents(np.uint64(a), np.uint64(b)) == expected[1]

    def test_cyclic_triple(self):
        # ordered products of the weight-3 cycle pick up +i forward, -i back
        s123, s231, s312 = code("123"), code("231"), code("312")
        assert (s123 ^ s312, phase_exponent(s123, s312)) == (s231, 1)
        assert (s231 ^ s123, phase_exponent(s231, s123)) == (s312, 1)
        assert (s312 ^ s231, phase_exponent(s312, s231)) == (s123, 1)
        assert (s312 ^ s123, phase_exponent(s312, s123)) == (s231, 3)

    def test_mixed_identity_positions(self):
        a, b = code("312"), code("210")
        assert format_codes(3, [a ^ b]) == ["102"]
        assert I_POWERS_ARR[phase_exponent(a, b)] == -1j

    def test_phase_golden(self):
        assert I_POWERS_ARR[phase_exponent(code("231"), code("312"))] == -1j

    def test_width_mismatch(self):
        # codes carry no width: strings of different lengths are caught as labels
        with pytest.raises(LabelError, match="string length 3 != 2 from earlier lines"):
            parse_codes(["12", "123"])
        with pytest.raises(LabelError, match="string length 3 != n=2"):
            parse_codes(["123"], 2)


class TestCommutesAndStructure:
    def test_single_qubit_anticommute(self):
        assert not commutes(1, 2)

    def test_commutes_with_identity(self):
        assert commutes(code("123"), 0)

    def test_even_overlap_commutes(self):
        assert commutes(code("12"), code("21"))

    def test_structure_constant_golden(self):
        assert commutator_coefficient(code("123"), code("312")) == -2.0

    def test_structure_constant_zero_iff_commuting(self):
        a, b = code("330"), code("033")
        assert commutes(a, b)
        assert commutator_coefficient(a, b) == 0.0

    def test_antisymmetry(self):
        a, b = code("123"), code("312")
        assert commutator_coefficient(a, b) == -commutator_coefficient(b, a)


def strings(max_n=8, count=1):
    """(n, codes...) with `count` codes on n qubits."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(st.just(n), *[st.integers(0, 4**n - 1)] * count))


class TestAlgebraProperties:
    @given(strings())
    def test_self_product_is_identity(self, na):
        _, a = na
        assert (a ^ a, phase_exponent(a, a)) == (0, 0)

    @given(strings())
    def test_identity_is_neutral(self, na):
        _, a = na
        assert phase_exponent(a, 0) == phase_exponent(0, a) == 0

    @given(strings(count=2))
    def test_phases_are_reciprocal(self, nab):
        # a.b and b.a produce the same string, with conjugate phases
        _, a, b = nab
        assert (phase_exponent(a, b) + phase_exponent(b, a)) % 4 == 0

    @given(strings(count=2))
    def test_commutes_symmetric(self, nab):
        _, a, b = nab
        assert commutes(a, b) == commutes(b, a)

    @given(strings(count=2))
    def test_structure_constant_values(self, nab):
        _, a, b = nab
        c = commutator_coefficient(a, b)
        assert c in (0.0, 2.0, -2.0)
        assert (c == 0.0) == commutes(a, b)

    @given(strings(max_n=6, count=3))
    def test_associativity(self, nabc):
        # (a.b).c and a.(b.c): the same string, so the same total phase
        _, a, b, c = nabc
        left = phase_exponent(a, b) + phase_exponent(a ^ b, c)
        right = phase_exponent(b, c) + phase_exponent(a, b ^ c)
        assert left % 4 == right % 4

    @given(strings(max_n=3, count=2))
    def test_matrix_representation(self, nab):
        # the defining check: matrices multiply exactly like codes + phase
        n, a, b = nab
        lhs = pauli_matrix(n, a) @ pauli_matrix(n, b)
        rhs = I_POWERS_ARR[phase_exponent(a, b)] * pauli_matrix(n, a ^ b)
        assert np.array_equal(lhs, rhs)
