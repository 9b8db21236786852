import json
from functools import reduce
from itertools import combinations
from operator import xor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pauliexp import (
    ClosureExplosion,
    FormatError,
    PauliExpansion,
    SparseHamiltonian,
    build_structure_matrix,
    close,
    close_codes,
    load_hamiltonian,
    parse_hamiltonian,
    pauli_decompose,
)
from pauliexp.dense import dense_exp, pauli_matrix, qubit_count, reconstruct_dense
from pauliexp.hamiltonian import (
    _line_value,
    _read_terms,
    _summed,
    coeff_entries,
    coeffs_json,
    expansion_to_dict,
    format_hamiltonian_text,
    hamiltonian_to_dict,
    parse_hamiltonian_json,
    parse_hamiltonian_text,
    random_closed_hamiltonian,
)
from pauliexp.pauli import MAX_QUBITS, format_codes

from conftest import coeff_dict, read_expansion


class TestSparseHamiltonian:
    def test_basic(self):
        h = SparseHamiltonian(3, [27, 45], [1.0, -0.5], identity_offset=2.0)
        assert h.codes.dtype == np.uint64 and h.values.dtype == np.float64
        assert (h.codes.tolist(), h.values.tolist()) == ([27, 45], [1.0, -0.5])
        assert h.identity_offset == 2.0

    def test_zero_coefficients_dropped(self):
        h = SparseHamiltonian(2, [5, 6], [0.0, 1.0])
        assert h.codes.tolist() == [6]

    def test_identity_code_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            SparseHamiltonian(2, [0], [1.0])

    def test_out_of_range_code(self):
        with pytest.raises(ValueError):
            SparseHamiltonian(1, [4], [1.0])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            SparseHamiltonian(1, [1], [float("nan")])
        with pytest.raises(ValueError):
            SparseHamiltonian(1, [1], [1.0], identity_offset=float("inf"))


    def test_from_arrays(self):
        h = SparseHamiltonian(3, np.array([27, 45], dtype=np.uint64), [1.0, 0.0], 2.0)
        assert (h.codes.tolist(), h.identity_offset) == ([27], 2.0)
        for codes in ([45, 27], [27, 27], [0, 27], [27, 64]):
            with pytest.raises(ValueError):
                SparseHamiltonian(3, codes, [1.0, 1.0])
        with pytest.raises(ValueError, match="non-finite coefficient for code 45"):
            SparseHamiltonian(3, [27, 45], [1.0, np.inf])
        assert h == SparseHamiltonian(3, [27], [1.0], identity_offset=2.0)
        assert h != SparseHamiltonian(3, [27], [1.0])
        assert (h == {27: 1.0}) is False


class TestPauliExpansion:
    def test_support_and_lookup(self):
        e = PauliExpansion(2, [0, 5], [1 + 2j, -1j])
        assert e.codes.dtype == np.uint64 and e.values.dtype == np.complex128
        assert coeff_dict(e) == {0: 1 + 2j, 5: -1j}

    def test_from_arrays(self):
        e = PauliExpansion(2, [0, 5], [0j, 1 - 1j])
        assert coeff_dict(e) == {0: 0j, 5: 1 - 1j}  # zeros kept
        with pytest.raises(ValueError):
            PauliExpansion(2, [5, 0], [1, 1])
        assert e == PauliExpansion(2, [0, 5], [0, 1 - 1j])
        assert e != PauliExpansion(2, [0, 5], [0, 2 - 2j])
        assert (e == "2 5") is False


@pytest.mark.parametrize("cls", [SparseHamiltonian, PauliExpansion])
@pytest.mark.parametrize("n,codes,values,message", [
    (0, [1], [1.0], "qubit count"),
    (33, [1], [1.0], "qubit count"),
    (2, [-1], [1.0], "out of range"),
    (2, [[1, 2]], [[1.0, 1.0]], "one-dimensional"),
    (2, [1, 2], [1.0], "values of shape"),
    (2, [1, 2], [[1.0, 2.0]], "values of shape"),
])
def test_from_arrays_rejects(cls, n, codes, values, message):
    with pytest.raises(ValueError, match=message):
        cls(n, codes, values)


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
        assert coeff_dict(h)[int("123", 4)] == pytest.approx(-0.5)
        assert h.identity_offset == 2.0

    def test_duplicates_accumulate(self):
        h = parse_hamiltonian_text("1 XX\n0.5 11\n")
        assert coeff_dict(h) == {0b0101: 1.5}

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

    @pytest.mark.parametrize("text,terms,offset", [
        ("1 X\r\n2 Z\r\n", {1: 1.0, 3: 2.0}, 0.0),
        ("1 X\x0b2 Z\x1c3 Y\n", {1: 1.0, 3: 2.0, 2: 3.0}, 0.0),
        ("1\tX\n2\u00a0Z\n", {1: 1.0, 3: 2.0}, 0.0),
        ("1_0 X\n", {1: 10.0}, 0.0),
        ("0.5 XZ # note\n# skip\n0.25 II  # id\n", {7: 0.5}, 0.25),
        ("3 ZZ\n1 XX\n2 ZZ\n-1 II\n0.5 XX\n", {15: 5.0, 5: 1.5}, -1.0),
    ])
    def test_accepts(self, text, terms, offset):
        h = parse_hamiltonian_text(text)
        assert (coeff_dict(h), h.identity_offset) == (terms, offset)

    @pytest.mark.parametrize("text,message", [
        ("0x1p0 X\n", "line 1: bad coefficient '0x1p0'"),
        ("1 X\n1 \u0425\n", "line 2: not a Pauli string (digits 0-3 or letters IXYZ): '\u0425'"),
        ("1 X 2\nY\n", "line 1: expected `<coeff> <pauli>`, got '1 X 2'"),
    ])
    def test_rejects_with_message(self, text, message):
        with pytest.raises(FormatError) as info:
            parse_hamiltonian_text(text)
        assert str(info.value) == message


def parse_by_lines(text: str) -> SparseHamiltonian:
    """The line format read line by line, each line split on its own: the
    reference parse_hamiltonian_text must match."""
    lines = [(lineno, (raw, parts)) for lineno, raw in enumerate(text.splitlines(), start=1)
             if (parts := raw.split("#", 1)[0].split())]
    codes, values, labels = _read_terms(lines, _line_value, lambda line: line[1][1],
                                        "line {}".format)
    if not labels:
        raise FormatError("no terms found")
    return _summed(len(labels[0]), codes, values)


def parse_outcome(parse, text: str):
    """(n, codes, value bits, offset bits) of a parse, or its error's type and text."""
    try:
        h = parse(text)
    except (FormatError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return h.n, h.codes.tolist(), h.values.tobytes(), h.identity_offset.hex()


@st.composite
def line_texts(draw):
    """Line-format texts: terms of one width with blank, comment, 1- and
    3-field lines, every line break str.splitlines knows and other
    whitespace between and inside lines, and any last line end or none."""
    width = draw(st.integers(1, 3))
    coeff = st.one_of(st.sampled_from(["1", "-0.5", "0", "-0.0", "2e-3", "1e308", "1_0", "nan",
                                       "-inf", "1e999", "abc", "0x1p0"]),
                      st.floats(allow_nan=False, allow_infinity=False).map(repr))
    label = st.one_of(*(st.text(st.sampled_from(chars), min_size=width, max_size=width)
                        for chars in ("0123", "IXYZ", "ixyzIXYZ", "0I")),
                      st.text(st.sampled_from("0123IXYZixyzW\u0131"), min_size=1, max_size=4))
    space = st.sampled_from([" ", "\t", "  ", "\x1f", "\xa0", "\u3000"])
    term = st.tuples(st.sampled_from(["", " "]), coeff, space, label,
                     st.sampled_from(["", " ", "\t", " # note", "#"])).map("".join)
    other = st.sampled_from(["", " ", "# comment", "  # "])
    line_break = st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                  "\x85", "\u2028", "\u2029"])
    lines = draw(st.lists(st.one_of(term, term, term, other), max_size=8))
    if draw(st.booleans()):  # one line of 1 or 3 fields
        lines.insert(draw(st.integers(0, len(lines))), draw(st.one_of(
            coeff, label, st.tuples(coeff, space, label, space, coeff).map("".join))))
    lines = [line + draw(line_break) for line in lines]
    return "".join(lines) + draw(st.one_of(st.just(""), term))


class TestParseTextByLines:
    @settings(max_examples=300)
    @given(line_texts())
    @example("1 X\r\n2 Z\r\n")
    @example("0.5\tXZ\f-1 zz\x852 II")
    @example("1 X\x1f2 Z\n")
    @example("1 # a line of one field\nX\n")
    def test_matches_line_by_line(self, text):
        assert parse_outcome(parse_hamiltonian_text, text) == parse_outcome(parse_by_lines, text)


class TestParseJson:
    def test_basic(self):
        doc = {"n": 2, "terms": [{"coeff": 0.5, "pauli": "XZ"},
                                 {"coeff": -1, "pauli": "II"}]}
        h = parse_hamiltonian_json(json.dumps(doc))
        assert h.n == 2
        assert coeff_dict(h) == {0b0111: 0.5}
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
            {"n": True, "terms": [{"coeff": 1, "pauli": "X"}]},
            {"n": 33, "terms": []},
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
        assert coeff_dict(load_hamiltonian(p)) == {3: 1.0}

    def test_sniffs_text(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("1 Z\n")
        assert coeff_dict(load_hamiltonian(p)) == {3: 1.0}

    def test_dict_round_trip(self):
        h = SparseHamiltonian(2, [6, 11], [-0.5, 1.25], identity_offset=0.75)
        doc = hamiltonian_to_dict(h, alphabet="letters")
        assert [t["pauli"] for t in doc["terms"]] == ["II", "XY", "YZ"]
        assert parse_hamiltonian_json(json.dumps(doc)) == h
        assert hamiltonian_to_dict(SparseHamiltonian(1, [], []))["terms"] == []

    def test_parse_hamiltonian_dispatch(self):
        assert parse_hamiltonian("1 Z\n").n == 1
        assert parse_hamiltonian('{"n": 1, "terms": []}').n == 1

    def test_format_round_trip(self):
        h = SparseHamiltonian(3, [27, 45], [0.25, -1.5], identity_offset=0.125)
        assert parse_hamiltonian_text(format_hamiltonian_text(h)) == h
        lettered = format_hamiltonian_text(h, alphabet="letters")
        assert parse_hamiltonian_text(lettered) == h


def gf2_rank(codes: list[int]) -> int:
    basis: list[int] = []
    for c in codes:
        for b in basis:
            c = min(c, c ^ b)
        if c:
            basis.append(c)
            basis.sort(reverse=True)
    return len(basis)


def is_closed(codes) -> bool:
    """Whether every product of two codes is the identity or again a code."""
    members = {0, *map(int, codes)}
    return all(int(a) ^ int(b) in members for a in codes for b in codes)


class TestClosure:
    def test_two_generators_golden(self):
        ts = close_codes(3, [int("123", 4), int("231", 4)])
        assert ts.dtype == np.uint64
        assert ts.tolist() == [27, 45, 54]

    def test_single_element(self):
        assert close_codes(2, [9]).tolist() == [9]

    def test_empty(self):
        ts = close_codes(4, [])
        assert ts.size == 0 and ts.dtype == np.uint64
        assert is_closed(ts)

    def test_of_hamiltonian(self):
        h = SparseHamiltonian(3, [27, 45], [1.0, 2.0])
        assert np.array_equal(close(h), close_codes(3, [27, 45]))

    def test_idempotent(self, rng):
        for s in (1, 2):
            h = random_closed_hamiltonian(rng, 6, s, 0)
            ts = close(h)
            assert np.array_equal(close_codes(6, ts), ts)
            assert is_closed(ts)

    def test_size_is_two_to_rank_minus_one(self, rng):
        for _ in range(40):
            n = int(rng.choice([1, 2, 3, 5, 8, 16, 31, 32]))
            drawn = rng.integers(1, 4**n, size=int(rng.integers(1, 11)), dtype=np.uint64)
            gens = [int(g) for g in drawn]
            gens.append(gens[0] ^ gens[-1])  # dependent on the draws (0 for one draw)
            ts = close_codes(n, gens)
            assert ts.size == 2 ** gf2_rank(gens) - 1
            assert is_closed(ts)
            if len(gens) <= 8:
                subsets = {reduce(xor, combo) for k in range(1, len(gens) + 1)
                           for combo in combinations(gens, k)}
                assert ts.tolist() == sorted(subsets - {0})

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
        assert close(h, cap=4096).size == 2047

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
        # s = n pairs span all 4**n - 1 non-identity strings; n = 1 is shape (1, 0)
        h = random_closed_hamiltonian(rng, n, n, 0)
        assert h.codes.size == close(h).size == 4**n - 1

    def test_one_qubit_central_string(self, rng):
        h = random_closed_hamiltonian(rng, 1, 0, 1)
        assert h.codes.size == close(h).size == 1

    @pytest.mark.parametrize("n,s,c", [(1, 1, 1), (2, 2, 1), (32, 32, 1), (4, -1, 2), (4, 2, -1),
                                       (0, 0, 0), (33, 1, 0)])
    def test_bad_shape_raises_before_drawing(self, rng, n, s, c):
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=rf"shape \(s, c\) = \({s}, {c}\) on n = {n} "):
            random_closed_hamiltonian(rng, n, s, c)
        assert rng.bit_generator.state == state


class TestClosedTermSet:
    """Closed sets as strictly increasing code arrays, and their checks where a
    structure matrix is built over a given one."""

    def test_index_round_trip(self):
        ts = close_codes(3, [27, 45])
        assert np.searchsorted(ts, ts).tolist() == list(range(ts.size))

    def test_index_of_missing(self):
        # a support string the given set does not hold is an error, not a dropped term
        h = SparseHamiltonian(3, [27, 28], [1.0, 0.5])
        with pytest.raises(ValueError, match="does not hold the support"):
            build_structure_matrix(h, close_codes(3, [27, 45]))

    def test_validation(self):
        h = SparseHamiltonian(1, [1], [1.0])
        with pytest.raises(ValueError, match="never contain the identity"):
            build_structure_matrix(h, np.array([0, 1], dtype=np.uint64))
        with pytest.raises(ValueError, match="strictly increasing"):
            build_structure_matrix(h, np.array([3, 2, 1], dtype=np.uint64))
        with pytest.raises(ValueError, match="out of range"):
            build_structure_matrix(h, np.array([1, 5], dtype=np.uint64))

    def test_is_closed_detects_holes(self):
        assert not is_closed([1, 2])
        assert is_closed([1, 2, 3])

    def test_eq_and_hash(self):
        # the closure depends on the span alone, not on the generators
        a = close_codes(3, [27, 45])
        assert np.array_equal(a, close_codes(3, [45, 54]))
        assert not np.array_equal(a, close_codes(3, [27]))


def dumb_decompose(m: np.ndarray) -> dict[int, complex]:
    """O(4**n) trace oracle for the coefficient tensor."""
    n = qubit_count(m)
    out = {}
    for code in range(4**n):
        p = pauli_matrix(n, code)
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
            got = coeff_dict(h)
            for code in range(1, 4**n):
                assert abs(got.get(code, 0.0) - oracle[code].real) < 1e-12

    def test_matches_trace_oracle_general(self, rng):
        for n in (1, 2):
            m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            e = pauli_decompose(m, zero_tol=0.0)
            assert isinstance(e, PauliExpansion)
            oracle = dumb_decompose(m)
            got = coeff_dict(e)
            for code in range(4**n):
                assert abs(got.get(code, 0j) - oracle[code]) < 1e-12

    def test_reconstruct_round_trip(self, rng):
        for s, c in ((0, 1), (1, 0), (1, 1)):
            h = random_closed_hamiltonian(rng, 4, s, c)
            back = pauli_decompose(reconstruct_dense(h))
            assert np.array_equal(back.codes, h.codes)
            assert back.values == pytest.approx(h.values, abs=1e-13)

    def test_identity_offset_extracted(self):
        h = pauli_decompose(2.5 * np.eye(4))
        assert h.identity_offset == pytest.approx(2.5)
        assert h.codes.size == 0

    def test_zero_tol_drops_small_terms(self):
        m = np.diag([1.0, 1.0]) + 1e-14 * np.diag([1.0, -1.0])
        h = pauli_decompose(m, zero_tol=1e-12)
        assert h.codes.size == 0
        h2 = pauli_decompose(m, zero_tol=0.0)
        assert h2.codes.tolist() == [3]

    def test_hermitian_tol_routes(self):
        m = np.array([[0.0, 1.0], [1.0 + 5e-11, 0.0]])
        assert isinstance(pauli_decompose(m), SparseHamiltonian)
        m2 = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
        assert isinstance(pauli_decompose(m2), PauliExpansion)
        # dense_exp classifies alike: it takes m and refuses m2
        assert dense_exp(m, 1.0).shape == (2, 2)
        with pytest.raises(ValueError, match="not Hermitian"):
            dense_exp(m2, 1.0)

    def test_qutrit_golden(self):
        hp = np.zeros((4, 4), dtype=complex)
        hp[0, 0] = 2.0
        hp[1, 2] = -4j
        hp[2, 1] = 4j
        hp[2, 2] = -2.0
        h = pauli_decompose(hp)
        want = {int("12", 4): -2.0, int("21", 4): 2.0,
                int("30", 4): 1.0, int("33", 4): 1.0}
        got = coeff_dict(h)
        assert set(got) == set(want)
        for code, val in want.items():
            assert abs(got[code] - val) < 1e-14
        assert abs(h.identity_offset) < 1e-14

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (1, 1), (8,)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError):
            pauli_decompose(np.zeros(shape))


class TestExpansionDict:
    def test_round_trip_with_beta(self):
        e = PauliExpansion(2, [0, 6], [1.5, -0.25j])
        doc = expansion_to_dict(e, beta=0.5 + 0.1j)
        e2, beta = read_expansion(doc)
        assert beta == 0.5 + 0.1j
        assert e2 == e

    def test_round_trip_without_beta(self):
        e = PauliExpansion(1, [3], [1j])
        e2, beta = read_expansion(expansion_to_dict(e))
        assert beta is None
        assert e2 == e

    def test_letters_alphabet(self):
        e = PauliExpansion(2, [6], [1.0])
        doc = expansion_to_dict(e, alphabet="letters")
        assert doc["coeffs"][0]["pauli"] == "XY"
        e2, _ = read_expansion(doc)
        assert e2 == e


EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-5, 1.0, -3.0, 1e300]
finite = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


class TestCoeffsJson:
    @given(st.integers(1, MAX_QUBITS).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, 4**n - 1), finite, finite), max_size=20,
                             unique_by=lambda item: item[0]))),
        st.sampled_from(["digits", "letters"]))
    @example((32, [(2**64 - 1, -0.0, 5e-324), (2**63, 1e16, 1e-5), (0, 2.0, -0.0)]), "letters")
    @example((1, []), "digits")
    def test_matches_json_dumps(self, n_items, alphabet):
        n, items = n_items
        items = sorted(items, key=lambda item: item[0])
        codes = np.array([code for code, _, _ in items], dtype=np.uint64)
        values = np.array([complex(re, im) for _, re, im in items], dtype=np.complex128)
        labels = format_codes(n, codes, alphabet)
        assert coeffs_json(labels, values) == json.dumps(coeff_entries(labels, values.tolist()))

    def test_real_array(self):
        values = np.array([0.5, -0.0, 3.0])
        labels = format_codes(2, [0, 1, 15], "letters")
        assert coeffs_json(labels, values) == json.dumps(coeff_entries(labels, values.tolist()))

    @pytest.mark.parametrize("shape", [(1, 5), (4, 7), (3, 0), (2, 1)])
    def test_rows(self, shape):
        rng = np.random.default_rng(sum(shape))
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        values[:, ::2] = values[:, ::2].real
        labels = format_codes(32, 2**63 + np.arange(shape[1], dtype=np.uint64), "letters")
        assert coeffs_json(labels, values) == [
            json.dumps(coeff_entries(labels, row.tolist())) for row in values]

    @pytest.mark.parametrize("imag", [
        [[0.0, 0.0, 0.0]],  # every imaginary part +0.0: the constant 0.0
        [[0.0, -0.0, 0.0]],  # one -0.0, which json writes as -0.0
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 5e-324, 0.0]],  # one complex row
        [[0.0, 0.0, 0.0], [-0.0, 0.0, 0.0]]])
    def test_zero_imaginary_parts(self, imag):
        values = np.zeros(np.shape(imag), dtype=complex)
        values.real, values.imag = np.arange(1.0, values.size + 1).reshape(values.shape), imag
        labels = format_codes(2, [0, 6, 15], "letters")
        texts = coeffs_json(labels, values if len(values) > 1 else values[0])
        assert texts == (json.dumps(coeff_entries(labels, values[0].tolist())) if len(values) == 1
                         else [json.dumps(coeff_entries(labels, row.tolist())) for row in values])

    @pytest.mark.parametrize("bad", [complex("nan"), complex(0, float("inf")), -np.inf])
    def test_refuses_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            coeffs_json(["0", "1"], np.array([1.0, bad]))
