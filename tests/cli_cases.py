"""The CLI's contract cases, one row per argv, which tests/test_cli.py
asserts and tools/output_sweep.py runs.

A row is `(argv, exit code, stderr)`. argv is one shell-quoted string, in
which `FIXTURES/name` is a file of fixtures/ and `TMP/name` one of FILES,
which write_files puts in a directory. stderr is the run's one line without
its `pauliexp: ` head and its newline, or a prefix of it that ends in `...`;
a row that exits 0 writes no stderr. CASES groups the rows by name, most by
the test of tests/test_cli.py that runs them: a dict group is keyed by the
test's ids, a list group runs in one test. This module imports nothing from
pauliexp, so that the inputs do not depend on the checkout under test.
"""

import json
import shlex
import struct
from pathlib import Path

import numpy as np

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

BIG_INT = "1" + "0" * 400
NOT_PAULI = "not a Pauli string (digits 0-3 or letters IXYZ): "
FINITE = "coeff must be a finite real number"
NOT_STRING = "pauli must be a string"
NOT_REAL = "coeff must be a real number"
# bad input files and the line each makes `closure` write, with exit code 1
BAD_HAMILTONIANS = {
    "bad_coeff.txt": ("1 X\nabc Y\n", "input error: line 2: bad coefficient 'abc'"),
    "bad_char.txt": ("1 X\n1 W\n", f"input error: line 2: {NOT_PAULI}'W'"),
    "mixed.txt": ("1 XY\n1 X1\n", f"input error: line 2: {NOT_PAULI}'X1'"),
    "33_qubits.txt": ("1 " + "X" * 33 + "\n",
                      "input error: line 1: qubit count must be in [1, 32], got 33"),
    "length.txt": ("1 X\n2 Y\n1 XX\n",
                   "input error: line 3: string length 2 != 1 from earlier lines"),
    "no_terms.txt": ("# nothing\n\n", "input error: no terms found"),
    "fields.txt": ("1 X\n1\n", "input error: line 2: expected `<coeff> <pauli>`, got '1'"),
    "nan.txt": ("1 X\nnan Y\n", "input error: line 2: non-finite coefficient 'nan'"),
    "inf.txt": ("inf X\n", "input error: line 1: non-finite coefficient 'inf'"),
    "1e999.txt": ("1 X\n1e999 Z\n", "input error: line 2: non-finite coefficient '1e999'"),
    # finite per line, infinite once summed
    "overflow.txt": ("1e308 X\n1e308 X\n", "config error: non-finite coefficient for code 1"),
    # the first bad line wins; within a line the coefficient comes first
    "first_bad_1.txt": ("1 X\n1 W\nabc Y\n", f"input error: line 2: {NOT_PAULI}'W'"),
    "first_bad_2.txt": ("1 X\nabc Y\n1 W\n", "input error: line 2: bad coefficient 'abc'"),
    "bad_both.txt": ("1 X\nabc W\n1 W\n", "input error: line 2: bad coefficient 'abc'"),
    "first_bad_3.txt": ("1 XX\n1 Y\n1 W\n",
                        "input error: line 2: string length 1 != 2 from earlier lines"),
    "bad_coeff.json": ('{"n": 1, "terms": [{"coeff": 1, "pauli": "X"},'
                       ' {"coeff": "x", "pauli": "Y"}]}', f"input error: terms[1]: {NOT_REAL}"),
    "bad_char.json": ('{"n": 1, "terms": [{"coeff": 1, "pauli": "W"}]}',
                      f"input error: terms[0]: {NOT_PAULI}'W'"),
    "mixed.json": ('{"n": 2, "terms": [{"coeff": 1, "pauli": "X1"}]}',
                   f"input error: terms[0]: {NOT_PAULI}'X1'"),
    "33_qubits.json": ('{"n": 33, "terms": []}', 'input error: "n" must be an integer in [1, 32]'),
    "33_chars.json": ('{"n": 32, "terms": [{"coeff": 1, "pauli": "' + "X" * 33 + '"}]}',
                      "input error: terms[0]: qubit count must be in [1, 32], got 33"),
    "length.json": ('{"n": 1, "terms": [{"coeff": 1, "pauli": "X"}, {"coeff": 1, "pauli": "XX"}]}',
                    "input error: terms[1]: string length 2 != n=1"),
    "length_first.json": ('{"n": 1, "terms": [{"coeff": 1, "pauli": "XX"},'
                          ' {"coeff": 1, "pauli": "W"}]}',
                          "input error: terms[0]: string length 2 != n=1"),
    "no_terms.json": ('{"n": 1}', 'input error: expected an object with "n" and "terms"'),
    "missing_key.json": ('{"n": 1, "terms": [{"pauli": "X"}]}',
                         'input error: terms[0]: expected {"coeff", "pauli"}'),
    "big_int.json": ('{"n": 1, "terms": [{"coeff": ' + BIG_INT + ', "pauli": "X"}]}',
                     f"input error: terms[0]: {FINITE}"),
    "nan.json": ('{"n": 1, "terms": [{"coeff": 1, "pauli": "X"}, {"coeff": NaN, "pauli": "Y"}]}',
                 f"input error: terms[1]: {FINITE}"),
    "inf.json": ('{"n": 1, "terms": [{"coeff": Infinity, "pauli": "X"}]}',
                 f"input error: terms[0]: {FINITE}"),
    "1e400.json": ('{"n": 1, "terms": [{"coeff": 1e400, "pauli": "X"}]}',
                   f"input error: terms[0]: {FINITE}"),
    "big_int_2.json": ('{"n": 1, "terms": [{"coeff": 1, "pauli": "X"}, {"coeff": ' + BIG_INT
                       + ', "pauli": "Z"}]}', f"input error: terms[1]: {FINITE}"),
    "overflow.json": ('{"n": 1, "terms": [{"coeff": 1e308, "pauli": "X"},'
                      ' {"coeff": 1e308, "pauli": "X"}]}',
                      "config error: non-finite coefficient for code 1"),
    "n_true.json": ('{"n": true, "terms": [{"coeff": 1, "pauli": "X"}]}',
                    'input error: "n" must be an integer in [1, 32]'),
    # a JSON label must be a string: 123 is not read as the digits 1, 2, 3
    "pauli_123.json": ('{"n": 3, "terms": [{"coeff": 1, "pauli": 123},'
                       ' {"coeff": 0.5, "pauli": "XXX"}]}', f"input error: terms[0]: {NOT_STRING}"),
    "pauli_null.json": ('{"n": 3, "terms": [{"coeff": 1, "pauli": null},'
                        ' {"coeff": 0.5, "pauli": "XXX"}]}',
                        f"input error: terms[0]: {NOT_STRING}"),
    "pauli_null_2.json": ('{"n": 1, "terms": [{"coeff": 1, "pauli": "X"},'
                          ' {"coeff": 1, "pauli": null}]}', f"input error: terms[1]: {NOT_STRING}"),
    "coeff_first.json": ('{"n": 1, "terms": [{"coeff": "x", "pauli": 3}]}',
                         f"input error: terms[0]: {NOT_REAL}"),
    "first_bad.json": ('{"n": 1, "terms": [{"coeff": 1, "pauli": "W"},'
                       ' {"coeff": 1, "pauli": ["X"]}]}', f"input error: terms[0]: {NOT_PAULI}'W'"),
}
# the 14 Jordan-Wigner Majorana strings on 7 qubits: rank 14, tau 16383
MAJORANA_7 = "".join(f"{(k + 1) / 10} {'Z' * q}{p}{'I' * (6 - q)}\n"
                     for k, (q, p) in enumerate((q, p) for q in range(7) for p in "XY"))
READER_EDGES = {
    "crlf.txt": "0.5 XZ\r\n-1 ZZ\r\n0.25 II\r\n",
    "tabs.txt": "0.5\tXZ\n-1\t\tZZ\t\n0.25 \tII\n",
    "form_feed.txt": "0.5 XZ\f-1 ZZ\f0.25 II\n",
    "comment_line.txt": "# a comment-only line\n0.5 XZ\n  # another\n-1 ZZ\n0.25 II\n",
    "no_final_newline.txt": "0.5 XZ\n-1 ZZ\n0.25 II",
}
HAMILTONIANS = {
    "lower.txt": "0.5 xyz\n-1 zzi\n0.25 iii\n",
    "repeats.txt": "0.1 XX\n0.2 11\n0.3 XX\n1e-3 II\n2e-3 00\n-0.7 ZY\n",
    "unsorted.txt": "0.3 ZZX\n-0.2 XII\n0.9 IYI\n0.4 XII\n",
    "good.json": '{"n": 2, "terms": [{"coeff": 0.5, "pauli": "xz"}, {"coeff": -1, "pauli": "II"},'
                 ' {"coeff": 0.25, "pauli": "13"}, {"coeff": 3, "pauli": "yy"}]}',
    "empty_terms.json": '{"n": 1, "terms": []}',
    **{name: text for name, (text, _) in BAD_HAMILTONIANS.items()},
    "no_pauli.txt": "not a hamiltonian\n",
    "skewed.txt": "0.9 0123\n-0.81 0213\n",
    "shifted_1000.txt": "1000 0\n1 3\n",
    "minus_inf.json": '{"n": 1, "terms": [{"coeff": -Infinity, "pauli": "X"}]}',
    # anticommuting supports whose sum of squares underflows to 0
    "tiny_2.txt": "1e-170 XI\n1e-170 ZI\n",
    "tiny_3.txt": "1e-170 XII\n1e-170 ZII\n1e-170 YII\n",
    "majorana_7.txt": MAJORANA_7,
    # one Hamiltonian under each line end, separator and comment the reader meets
    **READER_EDGES,
    # coefficient sums past float64, and a coefficient that underflows under 2^-k
    "huge_3.txt": "1e308 XI\n1e308 ZI\n1e308 IZ\n",
    "huge_pairs.txt": "1e308 XXI\n1e308 ZZI\n1e308 YYI\n",
    "mixed_scale.txt": "1e308 XI\n1e-300 ZI\n1e308 IZ\n",
}


def dense_json(m) -> str:
    """A matrix in the dense JSON format: {"n": n, "matrix": rows of [re, im] pairs}."""
    m = np.asarray(m, dtype=complex)
    return json.dumps({"n": m.shape[0].bit_length() - 1,
                       "matrix": [[[z.real, z.imag] for z in row] for row in m.tolist()]})


def dense_pexp(m) -> bytes:
    """A matrix in the PEXP format: magic, u32 qubit count, row-major complex128."""
    m = np.asarray(m, dtype="<c16")
    return b"PEXP" + struct.pack("<I", m.shape[0].bit_length() - 1) + m.tobytes()


_DENSE = '{"n": %s, "matrix": [[[1, 0], %s], [[0, 0], [1, 0]]]}'  # "n", then entry (0, 1)
_NEAR_LIMIT = np.zeros((8, 8))
_NEAR_LIMIT[0, 0] = _NEAR_LIMIT[1, 1] = 1.5e308
_A = 1.7e308
MATRICES = {  # inputs for decompose, each but the last four with one fault
    "dense_null.json": _DENSE % ("1", "[null, 0]"),
    "dense_true.json": '{"n": 1, "matrix": [[[1, 0], [0, 0]], [[0, true], [1, 0]]]}',
    "dense_1e999.json": '{"n": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], ["1e999", 0]]]}',
    "dense_nan.json": '{"n": 1, "matrix": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    "dense_n_true.json": _DENSE % ("true", "[0, 0]"),
    "dense_n_20000.json": '{"n": 20000, "matrix": []}',
    "dense_nan.pexp": dense_pexp([[1, 0], [complex(0, np.nan), 1]]),
    "dense_01_true.json": _DENSE % ("1", "[0, true]"),
    "dense_01_1e999.json": _DENSE % ("1", '["1e999", 0]'),
    "dense_01_nan.json": _DENSE % ("1", "[NaN, 0]"),
    "dense_01_inf.json": _DENSE % ("1", "[0, Infinity]"),
    "dense_n_0.json": '{"n": 0, "matrix": []}',
    "dense_nan_re.pexp": dense_pexp([[1, 0], [np.nan, 1]]),
    # each coefficient 3e308 / 8 fits, as does every partial sum when each qubit's step halves
    "near_limit.json": dense_json(_NEAR_LIMIT),
    # anti-Hermitian, so m - m^dagger overflows though every coefficient fits
    "anti_y.json": dense_json([[0, _A], [-_A, 0]]),
    "anti_xy.json": dense_json([[0, _A + _A * 1j], [-_A + _A * 1j, 0]]),
    "non_hermitian.json": dense_json([[0, 1], [0, 0]]),
}
FILES = {**HAMILTONIANS, **MATRICES}


def write_files(tmp: Path) -> None:
    """Write every file of FILES into the directory `tmp`."""
    for name, data in FILES.items():
        (tmp / name).write_bytes(data if isinstance(data, bytes) else data.encode())


def resolve(argv: str, tmp: Path) -> list[str]:
    """The argument list of a row's argv, its placeholders replaced by paths."""
    return [str(FIXTURES / a[9:]) if a.startswith("FIXTURES/") else
            str(tmp / a[4:]) if a.startswith("TMP/") else a for a in shlex.split(argv)]


H1, H2, XY6 = "FIXTURES/h1.txt", "FIXTURES/h2.txt", "FIXTURES/xy_n6.txt"
CAP_512 = "closure error: closure has 2047 non-identity strings, more than the cap 512"
CASES = {}

# a test id is the text, the code and the message
for _test, _suffix in (("test_text", ".txt"), ("test_json", ".json")):
    CASES[f"TestInputErrors::{_test}"] = {
        "int-1e400" if name == "big_int_2.json" else f"{text}-1-{err}":
        (f"closure -i TMP/{name}", 1, err)
        for name, (text, err) in BAD_HAMILTONIANS.items() if name.endswith(_suffix)}
CASES["TestInputErrors::test_dense"] = {
    key: (f"decompose -i TMP/{name}", 1, f"input error: {err}") for key, name, err in [
        ("null", "dense_null.json", "entry (0, 1): re must be a real number"),
        ("true", "dense_01_true.json", "entry (0, 1): im must be a real number"),
        ("string", "dense_01_1e999.json", "entry (0, 1): re must be a real number"),
        ("NaN", "dense_01_nan.json", "entry (0, 1): re must be a finite real number"),
        ("Infinity", "dense_01_inf.json", "entry (0, 1): im must be a finite real number"),
        ("bool-n", "dense_n_true.json", '"n" must be an integer in [1, 32]'),
        ("pexp-NaN", "dense_nan_re.pexp", "entry (1, 0): not a finite complex number"),
        ("n-20000", "dense_n_20000.json", '"n" must be an integer in [1, 32]'),
        ("n-0", "dense_n_0.json", '"n" must be an integer in [1, 32]')]}
CASES["TestInputErrors::test_tolerance_flags"] = {
    f"argv{i}-{err}": (argv, 1, f"input error: {err}") for i, (argv, err) in enumerate([
        (f"exp -i {H2} --beta 1 --method dense --zero-tol nan",
         "--zero-tol must be finite, got nan"),
        (f"exp -i {H2} --beta 1 --zero-tol=-1e-9", "--zero-tol must be at least 0, got -1e-09"),
        ("decompose -i FIXTURES/qutrit_embedded.json --zero-tol nan",
         "--zero-tol must be finite, got nan"),
        ("decompose -i FIXTURES/qutrit_embedded.json --zero-tol=-inf",
         "--zero-tol must be finite, got -inf"),
        ("decompose -i FIXTURES/qutrit_embedded.json --zero-tol=-1",
         "--zero-tol must be at least 0, got -1.0"),
        (f"verify -i {H1} --beta 1 --tolerance nan", "--tolerance must be finite, got nan"),
        (f"verify -i {H1} --beta 1 --tolerance inf", "--tolerance must be finite, got inf"),
        (f"verify -i {H1} --beta 1 --tolerance=-1e-10",
         "--tolerance must be at least 0, got -1e-10"),
        (f"exp -i {H1} --beta 1 --closure-cap -1", "--closure-cap must be at least 0, got -1"),
        (f"partition -i {H2} --betas 1 --closure-cap -1",
         "--closure-cap must be at least 0, got -1"),
        (f"closure -i {H2} --closure-cap -1", "--closure-cap must be at least 0, got -1"),
        (f"exp -i {H1} --beta 1 --method contour --center nan --radius 3",
         "--center must be finite, got 'nan'"),
        (f"exp -i {H1} --beta 1 --method contour --center abc --radius 3",
         "cannot parse --center 'abc'")])}
CASES["TestInputErrors::test_huge_coefficient_is_an_input_error"] = {
    "int-1e400": ("exp -i TMP/big_int.json --beta 1", 1, f"input error: terms[0]: {FINITE}"),
    f"{HAMILTONIANS['minus_inf.json']}-terms[0]: {FINITE}":
        ("exp -i TMP/minus_inf.json --beta 1", 1, f"input error: terms[0]: {FINITE}")}

# argparse's rejections leave through EXIT_TABLE, as one input error line
CASES["test_usage_error_is_one_line"] = {
    key: (argv, 1, f"input error: {err}") for key, argv, err in [
        ("method", f"exp -i {H1} --beta 1 --method magic", "argument --method: invalid choice: "
         "'magic' (choose from 'auto', 'sector', 'spectral', 'contour', 'anticommute', 'dense')"),
        ("no-beta", f"exp -i {H1}", "one of the arguments --beta --time is required"),
        ("beta-and-time", f"exp -i {H1} --beta 1 --time 1",
         "argument --time: not allowed with argument --beta"),
        ("unknown-flag", f"exp -i {H1} --beta 1 --wat", "unrecognized arguments: --wat"),
        ("no-subcommand", "", "the following arguments are required: command"),
        ("unknown-subcommand", f"bogus -i {H1}", "argument command: invalid choice: 'bogus' "
         "(choose from 'exp', 'partition', 'gibbs', 'verify', 'decompose', 'closure')"),
        ("nodes-x", f"exp -i {H1} --beta 1 --method contour --nodes x",
         "argument --nodes: invalid int value: 'x'"),
        ("negative-betas", f"partition -i {H1} --betas -0.5,1",
         "argument --betas: expected one argument"),
        # a value that starts with - and is not a plain decimal needs the = form
        ("negative-beta", f"gibbs -i {H1} --beta -1e308", "argument --beta: expected one argument"),
        # verify prints no Pauli label, so it takes no --alphabet
        ("verify-alphabet", f"verify -i {H1} --beta 1 --alphabet letters",
         "unrecognized arguments: --alphabet letters")]}
CASES["test_non_finite_beta_exit_1"] = {
    f"argv{i}-{needle}": (argv, 1, err) for i, (argv, needle, err) in enumerate([
        (f"exp -i {H1} --time nan", "--time", "input error: --time must be finite, got nan"),
        (f"exp -i {H1} --time inf", "--time", "input error: --time must be finite, got inf"),
        (f"gibbs -i {H1} --beta nan", "--beta", "input error: --beta must be finite, got nan"),
        (f"gibbs -i {H1} --beta inf", "--beta", "input error: --beta must be finite, got inf"),
        (f"partition -i {H1} --betas nan", "--betas",
         "input error: --betas entry must be finite, got nan"),
        (f"partition -i {H1} --betas 0.5,inf", "--betas",
         "input error: --betas entry must be finite, got inf"),
        (f"exp -i {H1} --beta 1 --method contour --center 0 --radius nan", "radius",
         "config error: radius must be positive and finite, got nan"),
        (f"exp -i {H1} --beta 1 --method contour --center 0 --radius inf", "radius",
         "config error: radius must be positive and finite, got inf"),
        (f"verify -i {H1} --time=-inf", "--time",
         "input error: --time must be finite, got -inf")])}
CASES["test_dense_cap_out_of_range"] = {
    key: (f"{argv} --dense-cap {cap}", 1, f"config error: dense cap must be in [1, 12], got {cap}")
    for key, argv, cap in [("exp-minus-1", f"exp -i {H1} --beta 1 --method dense", -1),
                           ("exp-0", f"exp -i {H1} --beta 1 --method dense", 0),
                           ("exp-13", f"exp -i {H1} --beta 1 --method dense", 13),
                           ("verify-minus-5", f"verify -i {H1} --beta 1", -5)]}

CASES["TestExp::test_too_few_nodes_exit_1"] = {
    f"circle{j}-{nodes}": (f"exp -i {H2} --beta 1 --method contour --nodes {nodes}{circle}", 1,
                           f"config error: need at least 4 nodes, got {nodes}" if int(nodes) < 4
                           # 10**18 nodes need 6.94 EiB, past any address space, so refused at once
                           else "config error: Unable to allocate 6.94 EiB...")
    for j, circle in enumerate(["", " --center 0 --radius 4"])
    for nodes in ["0", "2", "-3", "1000000000000000000"]}
CONTOUR_ONLY = "input error: --nodes, --center and --radius apply only to --method contour"
CASES["TestExp::test_contour_flags_need_contour"] = {
    f"flags{j}-{method}": (f"exp -i {H1} --beta 1 --method {method} {flags}", 1, CONTOUR_ONLY)
    for j, flags in enumerate(["--nodes 8", "--nodes 0", "--center 40 --radius 0.5",
                               "--center 0 --radius 1 --nodes 64"])
    for method in ("auto", "sector", "spectral", "anticommute", "dense")}
CASES["TestExp::test_dense_flags_need_dense"] = {
    **{f"zero-tol-{method}": (f"exp -i {H2} --beta 1 --zero-tol 0.5 --method {method}", 1,
                              "input error: --zero-tol applies only to --method dense")
       for method in ("auto", "sector", "spectral", "anticommute", "contour")},
    "dense-cap-auto": (f"exp -i {H2} --beta 1 --dense-cap 1 --format pauli-text", 1, "input error: "
                       "--dense-cap applies only to --method dense and the dense formats")}
CASES["TestExp::test_dense_flags_where_read"] = [
    (f"exp -i {H2} --beta 1 --zero-tol 0.5 --method dense", 0, ""),
    (f"exp -i {H2} --beta 1 --dense-cap 4 --format dense-json", 0, "")]
CASES["TestExp::test_output_file_holds_stdout_bytes"] = {
    fmt: (f"exp -i {H2} --beta 0.3+0.2i --format {fmt}", 0, "")
    for fmt in ["pauli-text", "pauli-json", "dense-json", "dense-bin"]}
CASES["TestExp::test_unwritable_output_file"] = [
    (f"exp -i {H1} --beta 1 -o TMP/no/such/dir", 1,
     "io error: [Errno 2] No such file or directory: 'TMP/no/such/dir'")]
CASES["TestExp::test_anticommute_hard_error"] = [
    (f"exp -i {H2} --beta 1 --method anticommute", 1,
     "config error: support does not pairwise anticommute")]
CASES["TestExp::test_closure_explosion_exit_2"] = [
    (f"{argv} --closure-cap 512", 2, CAP_512)
    for argv in (f"exp -i {XY6} --beta 1", f"exp -i {XY6} --beta 1 --method sector",
                 f"gibbs -i {XY6} --beta 1", f"partition -i {XY6} --betas 1")]
CASES["TestExp::test_bad_contour_exit_3"] = [
    # a circle that misses the spectrum, and one used as given whose angle-0
    # node sits on the eigenvalue sqrt(3) of h1 (center sqrt(3) - 4, radius 4)
    (f"exp -i {H1} --beta 1 --method contour --center 40 --radius 0.5", 3,
     "numerical error: circle (center (40+0j), radius 0.5) does not enclose the spectrum "
     "(furthest eigenvalue at distance 41.732050807568875)"),
    (f"exp -i {H1} --beta 0.5 --method contour --nodes 16 --center -2.267949192431023 --radius 4",
     3, "numerical error: singular or ill-conditioned system at z = (1.7320508075689771+0j)...")]
CASES["TestExp::test_center_without_radius"] = [
    (f"exp -i {H1} --beta 1 --center 0", 1,
     "input error: --center and --radius must be given together")]
CASES["TestExp::test_missing_file"] = [
    # the input file is read ahead of the subcommand's own checks
    (f"exp -i /no/such/file --beta {beta}", 1,
     "io error: [Errno 2] No such file or directory: '/no/such/file'") for beta in ("1", "abc")]
CASES["TestExp::test_malformed_input"] = [
    ("exp -i TMP/no_pauli.txt --beta 1", 1,
     "input error: line 1: expected `<coeff> <pauli>`, got 'not a hamiltonian'")]
CASES["TestExp::test_bad_beta"] = [
    (f"exp -i {H1} --beta wat", 1, "input error: cannot parse beta 'wat'")]
_USAGE = CASES["test_usage_error_is_one_line"]
CASES["TestExp::test_beta_and_time_conflict"] = [_USAGE["beta-and-time"]]
CASES["TestExp::test_no_arguments"] = [_USAGE["no-subcommand"]]

CASES["TestPartition::test_bad_betas"] = [
    # an empty entry is refused, not dropped
    (f"partition -i {H1} --betas {shlex.quote(betas)}", 1,
     f"input error: cannot parse --betas {betas!r}")
    for betas in ("1,x", ",", "1,,2", "1,2,", "")]

_NOT_FIT = "numerical error: exp(-beta H) at beta {} does not fit in float64"
_CONTOUR_NOT_FIT = ("numerical error: contour integrand exp(-beta z) at beta {} does not fit in "
                    "float64")
CASES["TestLargeBeta::test_exp_that_does_not_fit_exits_3"] = {
    "auto": (f"exp -i {H1} --beta 1000", 3, _NOT_FIT.format("1000+0j")),
    "spectral": (f"exp -i {H1} --beta 1000 --method spectral", 3, _NOT_FIT.format("1000+0j")),
    "dense": (f"exp -i {H1} --beta 1000 --method dense", 3, _NOT_FIT.format("1000+0j")),
    # a phase -Im(beta) E past float64, on every path; the spectral path
    # exits 3 here too, which the contour's message must not deny
    **{f"h2.txt---time=1e308-{method}": (f"exp -i {H2} --time 1e308 --method {method}", 3, err)
       for method, err in [("auto", _NOT_FIT.format("0+1e+308j")),
                           ("spectral", _NOT_FIT.format("0+1e+308j")),
                           ("dense", _NOT_FIT.format("0+1e+308j")),
                           ("contour", _CONTOUR_NOT_FIT.format("0+1e+308j"))]},
    **{f"h2.txt---beta=1e308+1e308i-{method}": (
        f"exp -i {H2} --beta 1e308+1e308i --method {method}", 3, _NOT_FIT.format("1e+308+1e+308j"))
       for method in ("auto", "spectral")},
    "h1.txt---time=1.7e308-anticommute": (f"exp -i {H1} --time 1.7e308 --method anticommute", 3,
                                          _NOT_FIT.format("0+1.7e+308j"))}
CASES["TestLargeBeta::test_partition_that_does_not_fit_names_beta"] = [
    (f"partition -i {H1} --betas 1,10,100,1000", 3,
     "numerical error: z_trace at beta 1000 does not fit in float64"),
    # grid order: the free energy at 1e-320 fails before the z_trace at 1000
    (f"partition -i {H1} --betas=1e-320,1000", 3, "numerical error: free energy -log z_trace / "
     "beta at beta 9.99989e-321 does not fit in float64")]
CASES["TestLargeBeta::test_exp_at_largest_beta"] = {
    f"{name}-{method}-{beta}": (f"exp -i FIXTURES/{name} --beta {beta} --method {method}", 3,
                                _NOT_FIT.format(shown))
    for name, method, beta, shown in [("h2.txt", "spectral", "1e308", "1e+308+0j"),
                                      ("h2.txt", "sector", "1e308", "1e+308+0j"),
                                      ("h1.txt", "anticommute", "1.7976931348623157e308",
                                       "1.79769e+308+0j")]}
# sums of coefficients past float64: every path runs on 2^-k H at 2^k beta, so
# exp(-beta H) near I is computed, and one that does not fit names beta
CASES["TestLargeBeta::test_sums_past_float64"] = {
    **{f"huge_3-{command}": (f"{command} -i TMP/huge_3.txt --beta 1e-318", 0, "")
       for command in ("gibbs", *(f"exp --method {m}" for m in
                                  ("auto", "sector", "spectral", "contour", "dense")))},
    # -log(4) / beta, the free energy, does not fit
    "huge_3-partition": ("partition -i TMP/huge_3.txt --betas 1e-318", 3, "numerical error: "
                         "free energy -log z_trace / beta at beta 9.99999e-319 does not fit in "
                         "float64"),
    # eigenvalue -3e308, so exp(-beta H) is about e^(3e8)
    "huge_pairs-auto": ("exp -i TMP/huge_pairs.txt --beta 1e-300 --method auto", 3,
                        _NOT_FIT.format("1e-300+0j")),
    "huge_pairs-contour": ("exp -i TMP/huge_pairs.txt --beta 1e-300 --method contour", 3,
                           _CONTOUR_NOT_FIT.format("1e-300+0j")),
    # 1e-300 ZI is 0 in 2^-k H, and its code stays
    **{f"mixed_scale-{m}": (f"exp -i TMP/mixed_scale.txt --beta 1e-310 --method {m}", 0, "")
       for m in ("auto", "sector", "spectral", "dense")}}
# exp(409.6 sqrt 3) / 2 is about 6.4e307 and fits; the decomposition
# halves at every qubit, so no partial sum of it leaves float64
CASES["TestLargeBeta::test_dense_exp_near_float64_limit"] = {
    fmt: (f"exp -i {H1} --beta=-409.6 --method dense --format {fmt}", 0, "")
    for fmt in ["pauli-text", "dense-json"]}

CASES["TestClosure::test_explosion_exit_2"] = [(f"closure -i {XY6} --closure-cap 512", 2, CAP_512)]
CASES["TestVerify::test_methods_keep_their_cap"] = {
    method: (f"verify -i {XY6} --beta 1 --method {method} --closure-cap 512", 2, CAP_512)
    for method in ("spectral", "sector")}
# the closed form never enumerates the closure, 16383 > 4096
CASES["TestVerify::test_anticommuting_past_the_cap"] = {
    method: (f"verify -i TMP/majorana_7.txt --method {method} --beta 0.7", 0, "")
    for method in ("auto", "anticommute")}
CASES["TestDecompose::test_near_float64_limit"] = [
    ("decompose -i TMP/near_limit.json", 0, ""),
    *((f"decompose -i TMP/{name} --format {fmt}", 0, "")
      for name in ("anti_y.json", "anti_xy.json") for fmt in ("text", "json"))]
CASES["decompose qutrit_embedded"] = {
    f"{alphabet}-{fmt}": (f"decompose -i FIXTURES/qutrit_embedded.json --format {fmt} "
                          f"--alphabet {alphabet}", 0, "")
    for fmt in ("text", "json") for alphabet in ("digits", "letters")}
CASES["TestJsonWriters::test_partition_documents"] = {
    f"{alphabet}-extra{k}": (f"partition -i {H2} --betas 0.1,1,5 --gibbs{extra} --format json "
                             f"--alphabet {alphabet}", 0, "")
    for k, extra in enumerate(["", " --symmetry-check FIXTURES/h2_mirror.txt"])
    for alphabet in ("digits", "letters")}
# run under `python -W error`: one stderr line naming beta (and the dense or
# contour path), no traceback and no RuntimeWarning
_FIT = CASES["TestLargeBeta::test_exp_that_does_not_fit_exits_3"]
CASES["TestSubprocess::test_overflow_without_warnings"] = [
    _FIT["auto"], (f"exp -i {H1} --beta 500 --method spectral", 3, _NOT_FIT.format("500+0j")),
    _FIT["dense"],
    (f"exp -i {H1} --beta 1000 --method contour", 3, _CONTOUR_NOT_FIT.format("1000+0j")),
    # exp(-300 H) fits (about e^520); the contour integrand does not
    (f"exp -i {H1} --beta 300 --method contour", 3, _CONTOUR_NOT_FIT.format("300+0j")),
    (f"gibbs -i {H1} --beta 1000", 0, "")]

# rows run by test_contract alone, under their argv
CASES["test_contract"] = {row[0]: row for row in [
    # sum h_K^2 underflows; the closed form keeps its norm scaled
    *((f"exp -i TMP/{name} --beta 1 --method {method}", 0, "")
      for name in ("tiny_2.txt", "tiny_3.txt") for method in ("auto", "anticommute")),
    *((f"verify -i TMP/{name} --beta 1 --method auto", 0, "")
      for name in ("tiny_2.txt", "tiny_3.txt")),
    *((f"verify -i FIXTURES/{name} --method {method} --beta 0.7", 0, "")
      for name in ("h1.txt", "h2.txt", "rho_s_n3.txt", "qutrit_pauli.txt")
      for method in ("auto", "sector", "spectral", "contour")),
    *((f"partition -i {H2} --betas 0.1,1,5 --symmetry-check FIXTURES/h2_mirror.txt --format {fmt}",
       0, "") for fmt in ("text", "json")),
    (f"exp -i {H1} --beta nan", 1, "input error: beta must be finite, got 'nan'"),
    (f"exp -i {H1} --beta 1 --method contour --nodes 0", 1,
     "config error: need at least 4 nodes, got 0"),
    (f"exp -i {H1} --beta 1 --nodes 8", 1, CONTOUR_ONLY),
    (f"exp -i {H1} --beta 1 --method dense --center 0 --radius 1", 1, CONTOUR_ONLY),
    (f"gibbs -i {H1} --beta 1e308", 0, ""),
    (f"gibbs -i {H1} --beta=-1e308", 0, ""),
    (f"partition -i {H1} --betas 1e308 --gibbs", 3,
     "numerical error: z_trace at beta 1e+308 does not fit in float64"),
    (f"verify -i {H2} --beta 1e308+1e308i --method sector", 3, _NOT_FIT.format("1e+308+1e+308j")),
    *((f"decompose -i TMP/{name}", 1, f"input error: {err}") for name, err in [
        ("dense_true.json", "entry (1, 0): im must be a real number"),
        ("dense_1e999.json", "entry (1, 1): re must be a real number"),
        ("dense_nan.json", "entry (0, 0): re must be a finite real number"),
        ("dense_nan.pexp", "entry (1, 0): not a finite complex number")]),
    *((f"exp -i TMP/{name} --beta 1", 1, BAD_HAMILTONIANS[name][1])
      for name in ("pauli_123.json", "pauli_null.json")),
    *((f"{command} -i TMP/{name} {flags}", 0, "") for name in READER_EDGES
      for command, flags in (("exp", "--beta 0.5"), ("closure", "--alphabet letters")))]}


def rows() -> list:
    """Every row of CASES, in order; a row that two groups share comes twice."""
    return [row for group in CASES.values()
            for row in (group.values() if isinstance(group, dict) else group)]
