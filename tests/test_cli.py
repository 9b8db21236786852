import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pauliexp import (
    PauliExpansion,
    dense_exp,
    exp_pauli,
    gibbs_state,
    load_hamiltonian,
    partition_function,
    reconstruct_dense,
)
from pauliexp.cli import EXIT_TABLE, main, parse_beta
from pauliexp.dense import dense_from_bytes, dense_from_json, dense_to_bytes
from pauliexp.engine import Reduced, exp_with_method
from pauliexp.errors import ClosureExplosion, ContourError, FormatError, SingularSystem
from pauliexp.hamiltonian import (
    expansion_to_dict,
    format_hamiltonian,
    random_closed_hamiltonian,
)
from pauliexp.pauli import parse_codes
import pauliexp.cli

from cli_cases import CASES, resolve, rows, write_files
from conftest import coeff_dict, read_expansion


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SUBCOMMANDS = "{exp,partition,gibbs,verify,decompose,closure}"
FIXTURE_FILES = ("h1.txt", "h2.txt", "h2_mirror.txt", "qutrit_pauli.txt", "rho_s_n3.txt",
                 "xy_n6.txt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="session")
def case_dir(tmp_path_factory) -> Path:
    """The case table's `TMP/`: a directory holding every file of cli_cases.FILES."""
    path = tmp_path_factory.mktemp("cases")
    write_files(path)
    return path


def assert_row(row, code, out, err):
    """A run kept the row's contract: its exit code; at exit 0 no stderr,
    otherwise no stdout and exactly the row's stderr line (or its prefix)."""
    argv, want_code, want_err = row
    assert code == want_code, (argv, err)
    if code:
        want = f"pauliexp: {want_err}\n"
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert err.startswith(want[:-4]) if want.endswith("...\n") else err == want, (argv, err)
    else:
        assert err == "", argv


def check_row(capsys, case_dir, row) -> str:
    """Run one row of the case table in-process, assert its contract and return its stdout."""
    code, out, err = run(capsys, *resolve(row[0], case_dir))
    assert_row(row, code, out, err.replace(str(case_dir), "TMP"))
    return out


def over_rows(name: str):
    """Parametrize a test by `row` over a dict group of the case table, under its ids."""
    return pytest.mark.parametrize("row", list(CASES[name].values()), ids=list(CASES[name]))


def contract(name: str):
    """The test that runs the case table's group `name` through check_row: one
    test per row of a dict group, under its id; one test for a list group."""
    group = CASES[name]
    if isinstance(group, list):
        def test(capsys, case_dir):
            for row in group:
                check_row(capsys, case_dir, row)
    else:
        @over_rows(name)
        def test(capsys, case_dir, row):
            check_row(capsys, case_dir, row)
    return staticmethod(test) if "::" in name else test


@pytest.fixture
def eigh_shapes(monkeypatch) -> list:
    """The shape of each matrix that np.linalg.eigh is called on, in order."""
    shapes, real_eigh = [], np.linalg.eigh

    def counting_eigh(m, *args, **kwargs):
        shapes.append(m.shape)
        return real_eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return shapes


@pytest.fixture
def shared_eigh(monkeypatch) -> None:
    """np.linalg.eigh decomposing each distinct matrix once, so that the spectral
    path's runs on one Hamiltonian, at any beta, share one eigh of its structure
    matrix (seconds at tau 2047); each call gets its own copies."""
    cache, real_eigh = {}, np.linalg.eigh

    def cached_eigh(m, *args, **kwargs):
        key = (m.shape, m.dtype.str, m.tobytes(), args, tuple(kwargs.items()))
        if key not in cache:
            cache[key] = real_eigh(m, *args, **kwargs)
        return tuple(a.copy() for a in cache[key])

    monkeypatch.setattr(np.linalg, "eigh", cached_eigh)


def run_module(*argv) -> subprocess.CompletedProcess:
    """`python -W error -m pauliexp *argv` in a fresh interpreter, output as text."""
    return subprocess.run([sys.executable, "-W", "error", "-m", "pauliexp", *argv],
                          capture_output=True, text=True, timeout=60)


def parse_text_expansion(out: str) -> dict[int, complex]:
    coeffs = {}
    for line in out.splitlines():
        if not line or line.startswith("#"):
            continue
        pauli, re, im = line.split()
        coeffs[int(parse_codes([pauli])[0])] = complex(float(re), float(im))
    return coeffs


class TestParseBeta:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1.5", 1.5),
            ("1.5+0.3i", 1.5 + 0.3j),
            ("i", 1j),
            ("-2i", -2j),
            ("0.25j", 0.25j),
            (" 2 ", 2.0),
        ],
    )
    def test_accepts(self, text, value):
        assert parse_beta(text) == value

    @pytest.mark.parametrize("text", ["", "abc", "1.5 + 0.3", "inf", "nan"])
    def test_rejects(self, text):
        from pauliexp import FormatError

        with pytest.raises(FormatError):
            parse_beta(text)


class TestExp:
    def test_time_closed_form(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "exp", "-i", str(fixtures_dir / "h1.txt"),
                           "--time", "0.7")
        assert code == 0
        assert "# method anticommute" in out
        coeffs = parse_text_expansion(out)
        assert coeffs[0].real == pytest.approx(math.cos(0.7 * math.sqrt(3)), abs=1e-12)

    def test_beta_zero_identity(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"),
                           "--beta", "0")
        assert code == 0
        coeffs = parse_text_expansion(out)
        assert coeffs[0] == pytest.approx(1.0, abs=1e-14)
        assert all(abs(c) < 1e-14 for k, c in coeffs.items() if k)

    def test_json_round_trip(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"),
                           "--beta", "0.5+0.25i", "--format", "pauli-json")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "sector"
        e, beta = read_expansion(doc)
        assert beta == 0.5 + 0.25j
        assert e.n == 4

    def test_methods_agree(self, capsys, fixtures_dir):
        # on xy_n6 (contour at tau 2047) the bound is relative to the largest
        # coefficient, about 56
        for name, relative in (("h2.txt", False), ("xy_n6.txt", True)):
            outs = {}
            for method in ("spectral", "sector", "contour", "dense"):
                code, out, _ = run(capsys, "exp", "-i", str(fixtures_dir / name),
                                   "--beta", "1", "--method", method,
                                   "--format", "pauli-json")
                assert code == 0
                doc = json.loads(out)
                assert doc["method"] == method
                e, _ = read_expansion(doc)
                outs[method] = coeff_dict(e)
            keys = set().union(*outs.values())
            tol = 1e-10 * (max(map(abs, outs["spectral"].values())) if relative else 1.0)
            for method in ("sector", "contour", "dense"):
                worst = max(
                    abs(outs[method].get(k, 0) - outs["spectral"].get(k, 0))
                    for k in keys
                )
                assert worst < tol, (name, method)

    def test_contour_nodes_flag(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"),
                           "--beta", "1", "--method", "contour", "--nodes", "128",
                           "--format", "pauli-json")
        assert code == 0
        _, out2, _ = run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"),
                         "--beta", "1", "--format", "pauli-json")
        e1, e2 = (coeff_dict(read_expansion(json.loads(o))[0]) for o in (out, out2))
        assert max(abs(e1.get(k, 0) - e2.get(k, 0)) for k in e1.keys() | e2.keys()) < 1e-8
        # without --nodes the library's default, 64, is used
        default, at_64 = (run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"), "--beta", "1",
                              "--method", "contour", *nodes) for nodes in ([], ["--nodes", "64"]))
        assert default[0] == 0
        assert default == at_64

    test_too_few_nodes_exit_1 = contract("TestExp::test_too_few_nodes_exit_1")

    def test_dense_json_output(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "exp", "-i", str(fixtures_dir / "h1.txt"),
                           "--beta", "1", "--format", "dense-json")
        assert code == 0
        m = dense_from_json(out)
        h = load_hamiltonian(fixtures_dir / "h1.txt")
        assert np.abs(m - dense_exp(reconstruct_dense(h), 1.0)).max() < 1e-12

    def test_dense_bin_output(self, fixtures_dir, capsysbinary):
        code = main(["exp", "-i", str(fixtures_dir / "h1.txt"), "--beta", "1",
                     "--format", "dense-bin"])
        out = capsysbinary.readouterr().out
        assert code == 0
        assert out[:4] == b"PEXP"
        dense_from_bytes(out)

    def test_output_file(self, capsys, fixtures_dir, tmp_path):
        dest = tmp_path / "out.txt"
        code, out, _ = run(capsys, "exp", "-i", str(fixtures_dir / "h1.txt"),
                           "--beta", "1", "-o", str(dest))
        assert code == 0
        assert out == ""
        assert "# method" in dest.read_text()

    @over_rows("TestExp::test_output_file_holds_stdout_bytes")
    def test_output_file_holds_stdout_bytes(self, capsysbinary, case_dir, tmp_path, row):
        argv = resolve(row[0], case_dir)
        assert main(argv) == 0
        stdout = capsysbinary.readouterr().out
        dest = tmp_path / "out"
        assert main([*argv, "-o", str(dest)]) == 0
        assert capsysbinary.readouterr() == (b"", b"")
        assert stdout and dest.read_bytes() == stdout

    test_unwritable_output_file = contract("TestExp::test_unwritable_output_file")

    def test_letters_alphabet(self, capsys, fixtures_dir):
        _, out, _ = run(capsys, "exp", "-i", str(fixtures_dir / "h1.txt"),
                        "--beta", "1", "--alphabet", "letters")
        assert "XYZ" in out

    test_anticommute_hard_error = contract("TestExp::test_anticommute_hard_error")
    test_closure_explosion_exit_2 = contract("TestExp::test_closure_explosion_exit_2")
    test_bad_contour_exit_3 = contract("TestExp::test_bad_contour_exit_3")

    def test_failed_factorization_exit_3(self, capsys, fixtures_dir, monkeypatch):
        def failing_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        code, _, err = run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"),
                           "--beta", "1", "--method", "spectral")
        assert code == 3
        assert err.startswith("pauliexp: numerical error:")
        assert err.count("\n") == 1

    test_contour_flags_need_contour = contract("TestExp::test_contour_flags_need_contour")
    test_dense_flags_need_dense = contract("TestExp::test_dense_flags_need_dense")

    def test_dense_flags_where_read(self, capsys, case_dir):
        zero_tol, dense_cap = CASES["TestExp::test_dense_flags_where_read"]
        out = check_row(capsys, case_dir, zero_tol)
        assert len(parse_text_expansion(out)) == 7  # of the 8 kept at the default 1e-12
        assert dense_from_json(check_row(capsys, case_dir, dense_cap)).shape == (16, 16)

    def test_dense_at_imaginary_beta(self, capsys, fixtures_dir):
        # the complex branch of _as_expansion; a coefficient that --zero-tol
        # drops from either output reads as 0
        outs = {}
        for method in ("dense", "sector"):
            code, out, _ = run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"), "--time", "0.7",
                               "--method", method, "--format", "pauli-json")
            assert code == 0
            e, beta = read_expansion(json.loads(out))
            outs[method] = coeff_dict(e)
            assert beta == 0.7j
        keys = outs["dense"].keys() | outs["sector"].keys()
        assert max(abs(outs["dense"].get(k, 0) - outs["sector"].get(k, 0))
                   for k in keys) < 1e-10

    test_center_without_radius = contract("TestExp::test_center_without_radius")
    test_missing_file = contract("TestExp::test_missing_file")
    test_malformed_input = contract("TestExp::test_malformed_input")
    test_bad_beta = contract("TestExp::test_bad_beta")
    test_beta_and_time_conflict = contract("TestExp::test_beta_and_time_conflict")
    test_no_arguments = contract("TestExp::test_no_arguments")

    def test_help_exits_zero(self, capsys):
        for argv, usage in ((["--help"], "usage: pauliexp "),
                            (["exp", "--help"], "usage: pauliexp exp ")):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert out.startswith(usage)


class TestInputErrors:
    """Exit code and the exact stderr line of each class of bad input file or flag."""

    test_text = contract("TestInputErrors::test_text")
    test_json = contract("TestInputErrors::test_json")
    test_dense = contract("TestInputErrors::test_dense")
    test_tolerance_flags = contract("TestInputErrors::test_tolerance_flags")

    @pytest.mark.parametrize("name,text", [
        ("h.txt", "0.5 xyz\n-1 iZy\n"),
        ("h.json", '{"n": 3, "terms": [{"coeff": 0.5, "pauli": "xyz"}, {"coeff": -1, "pauli": "iZy"}]}'),
    ])
    def test_lowercase_accepted(self, capsys, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        assert run(capsys, "closure", "-i", str(p), "--alphabet", "letters") == (
            0, "n 3\ntau 3\nIZY\nXXX\nXYZ\n", "")

    @over_rows("TestInputErrors::test_huge_coefficient_is_an_input_error")
    def test_huge_coefficient_is_an_input_error(self, case_dir, row):
        proc = run_module(*resolve(row[0], case_dir))
        assert_row(row, proc.returncode, proc.stdout, proc.stderr)


class TestPartition:
    def test_table(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "partition", "-i", str(fixtures_dir / "h2.txt"),
                           "--betas", "0,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["beta", "z_normalized", "z_trace", "free_energy"]
        row0 = lines[1].split()
        assert float(row0[1]) == pytest.approx(1.0)
        assert float(row0[2]) == pytest.approx(16.0)
        assert row0[3] == "n/a"
        row1 = lines[2].split()
        z_norm, z_trace = partition_function(
            load_hamiltonian(fixtures_dir / "h2.txt"), 1.0
        )
        assert float(row1[1]) == pytest.approx(z_norm.real, rel=1e-12)
        assert float(row1[3]) == pytest.approx(-math.log(z_trace.real), rel=1e-12)

    def test_json_format(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "partition", "-i", str(fixtures_dir / "h2.txt"),
                           "--betas", "0.5", "--format", "json", "--gibbs")
        assert code == 0
        doc = json.loads(out)
        row = doc["rows"][0]
        assert row["beta"] == 0.5
        assert "gibbs" in row
        e, _ = read_expansion(row["gibbs"])
        assert (e.codes[0], e.values[0]) == (0, 1.0 / 16.0)

    def test_gibbs_lines_in_text(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "partition", "-i", str(fixtures_dir / "h1.txt"),
                           "--betas", "1", "--gibbs")
        assert code == 0
        assert any(line.startswith("gibbs 1 ") for line in out.splitlines())

    def test_symmetry_ok(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "partition", "-i", str(fixtures_dir / "h2.txt"),
                           "--betas", "0.1,1,5",
                           "--symmetry-check", str(fixtures_dir / "h2_mirror.txt"))
        assert code == 0
        assert "symmetry OK" in out

    def test_symmetry_violated(self, capsys, fixtures_dir, case_dir):
        code, out, _ = run(capsys, "partition", "-i", str(fixtures_dir / "h2.txt"),
                           "--betas", "1", "--symmetry-check", str(case_dir / "skewed.txt"))
        assert code == 0
        assert "symmetry VIOLATED" in out

    def test_negative_beta_needs_equals_form(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "partition", "-i", str(fixtures_dir / "h2.txt"),
                           "--betas=-0.5,1", "--format", "json")
        assert code == 0
        assert [row["beta"] for row in json.loads(out)["rows"]] == [-0.5, 1.0]
        code, _, _ = run(capsys, "partition", "-i", str(fixtures_dir / "h2.txt"),
                         "--betas", "-0.5,1")
        assert code == 1

    test_bad_betas = contract("TestPartition::test_bad_betas")

    def test_gibbs_rows_match_gibbs_state(self, capsys, fixtures_dir):
        betas = [-0.5, 0.0, 0.25, 1.0, 3.0]
        code, out, _ = run(capsys, "partition", "-i", str(fixtures_dir / "h2.txt"),
                           "--betas=" + ",".join(map(str, betas)), "--gibbs",
                           "--format", "json", "--alphabet", "letters")
        assert code == 0
        rows = json.loads(out)["rows"]
        h = load_hamiltonian(fixtures_dir / "h2.txt")
        for beta, row in zip(betas, rows):
            assert list(row) == ["beta", "z_normalized", "z_trace", "free_energy", "gibbs"]
            assert row["z_trace"] == 16 * row["z_normalized"]
            want = expansion_to_dict(gibbs_state(h, beta), alphabet="letters")
            assert list(row["gibbs"]) == list(want) == ["n", "coeffs"]
            assert row["gibbs"] == want

    @pytest.mark.parametrize("name", FIXTURE_FILES)
    def test_partition_function_is_what_partition_prints(self, capsys, fixtures_dir, name):
        """partition_function gives the very z_trace and z_normalized of
        `partition --format json`, with an imaginary part of 0.0."""
        betas = [-1.3, 0.0, 0.5, 2.0]
        code, out, err = run(capsys, "partition", "-i", str(fixtures_dir / name),
                             "--betas=-1.3,0,0.5,2", "--format", "json")
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        h = load_hamiltonian(fixtures_dir / name)
        assert [row["beta"] for row in rows] == betas
        for beta, row in zip(betas, rows):
            z_normalized, z_trace = partition_function(h, beta)
            assert (z_trace.real, z_normalized.real) == (row["z_trace"], row["z_normalized"])
            assert (z_trace.imag, z_normalized.imag) == (0.0, 0.0)

    def test_partition_function_refuses_as_partition(self, fixtures_dir):
        with pytest.raises(OverflowError) as info:
            partition_function(load_hamiltonian(fixtures_dir / "h1.txt"), 1000)
        assert str(info.value) == "z_trace at beta 1000 does not fit in float64"

    def test_one_eigh_per_file(self, capsys, fixtures_dir, eigh_shapes):
        betas = ",".join(str(0.25 * k) for k in range(1, 17))
        code, out, _ = run(capsys, "partition", "-i", str(fixtures_dir / "h2.txt"),
                           "--betas", betas, "--gibbs",
                           "--symmetry-check", str(fixtures_dir / "h2_mirror.txt"))
        assert code == 0
        assert "symmetry OK" in out
        # h2 and h2_mirror split into s = 1 pair and c = 1 central code
        assert eigh_shapes == [(2, 2, 2), (2, 2, 2)]
        for argv, shape in ((["exp", "--beta", "0.5"], (2, 2, 2)),
                            (["exp", "--time", "2", "--method", "spectral"], (8, 8)),
                            (["gibbs", "--beta", "0.5"], (2, 2, 2)),
                            (["partition", "--betas", betas], (2, 2, 2))):
            eigh_shapes.clear()
            code, _, _ = run(capsys, *argv, "-i", str(fixtures_dir / "h2.txt"))
            assert code == 0
            assert eigh_shapes == [shape], argv


@pytest.mark.filterwarnings("error")
class TestLargeBeta:
    """XYZ + YZX + ZXY has eigenvalues -sqrt(3) and sqrt(3), four of each."""

    GIBBS_OFF_IDENTITY = -1.0 / (8.0 * math.sqrt(3.0))  # ground projector / 4

    test_exp_that_does_not_fit_exits_3 = contract(
        "TestLargeBeta::test_exp_that_does_not_fit_exits_3")

    @pytest.mark.parametrize("fmt", CASES["TestLargeBeta::test_dense_exp_near_float64_limit"])
    def test_dense_exp_near_float64_limit(self, capsys, case_dir, fixtures_dir, fmt):
        h = load_hamiltonian(fixtures_dir / "h1.txt")
        row = CASES["TestLargeBeta::test_dense_exp_near_float64_limit"][fmt]
        out = check_row(capsys, case_dir, row)
        if fmt == "dense-json":
            want = dense_exp(reconstruct_dense(h), -409.6)
            assert np.abs(dense_from_json(out) - want).max() <= 1e-12 * np.abs(want).max()
            return
        got = parse_text_expansion(out)
        want = coeff_dict(exp_with_method(h, -409.6, "spectral")[0])
        assert max(abs(got.get(k, 0) - want.get(k, 0)) for k in got.keys() | want.keys()) \
            <= 1e-12 * abs(want[0])

    @pytest.mark.parametrize("beta", ["1000", "1e6", "-1000", "1e308", "-1e308",
                                      "1.7976931348623157e308"])
    def test_gibbs_large_beta(self, capsys, fixtures_dir, beta):
        code, out, err = run(capsys, "gibbs", "-i", str(fixtures_dir / "h1.txt"),
                             f"--beta={beta}")
        assert code == 0, err
        coeffs = parse_text_expansion(out)
        assert coeffs[0] == 0.125
        sign = 1.0 if float(beta) > 0 else -1.0
        for code_ in (int("123", 4), int("231", 4), int("312", 4)):
            assert coeffs[code_].real == pytest.approx(sign * self.GIBBS_OFF_IDENTITY,
                                                       rel=1e-9)

    test_partition_that_does_not_fit_names_beta = contract(
        "TestLargeBeta::test_partition_that_does_not_fit_names_beta")

    def test_partition_free_energy_at_large_beta(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "partition", "-i", str(fixtures_dir / "h1.txt"),
                           "--betas", "1,100,400", "--gibbs", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        for row in rows:
            beta = row["beta"]
            want = -math.sqrt(3.0) - math.log(4.0 + 4.0 * math.exp(-2 * math.sqrt(3) * beta)) / beta
            assert row["free_energy"] == pytest.approx(want, rel=1e-13)
            assert row["gibbs"]["coeffs"][0]["re"] == 0.125
        assert rows[-1]["z_trace"] == pytest.approx(4.0 * math.exp(400 * math.sqrt(3.0)),
                                                    rel=1e-12)

    @pytest.mark.parametrize("text,beta,message", [
        (None, "1e308", "z_trace at beta 1e+308 does not fit in float64"),
        ("-5 0\n1 1\n", "1e308", "z_trace at beta 1e+308 does not fit in float64"),
        ("5 0\n1 1\n", "1e308", "free energy -log z_trace / beta at beta 1e+308 does not "
                                  "fit in float64"),
        # 1e-320 is subnormal: the float read is 9.99989e-321
        (None, "1e-320", "free energy -log z_trace / beta at beta 9.99989e-321 does not fit in "
                         "float64"),
    ])
    def test_partition_at_extreme_beta_names_beta(self, capsys, fixtures_dir, tmp_path, text,
                                                  beta, message):
        path = fixtures_dir / "h1.txt"
        if text is not None:
            path = tmp_path / "h.txt"
            path.write_text(text)
        for fmt in ("text", "json"):
            assert run(capsys, "partition", "-i", str(path), "--betas", beta, "--gibbs",
                       "--format", fmt) == (3, "", f"pauliexp: numerical error: {message}\n")

    @over_rows("TestLargeBeta::test_exp_at_largest_beta")
    def test_exp_at_largest_beta(self, capsys, case_dir, tmp_path, row):
        check_row(capsys, case_dir, row)
        # H = 5 + X >= 4: every coefficient underflows to 0
        argv = resolve(row[0], case_dir)
        argv[2] = str(tmp_path / "h.txt")
        Path(argv[2]).write_text("5 0\n1 1\n")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == ["0 0 0", "1 0 0"]

    @over_rows("TestLargeBeta::test_sums_past_float64")
    def test_sums_past_float64(self, capsys, case_dir, row):
        out = check_row(capsys, case_dir, row)
        if row[1] == 0:  # exp(-beta H) near I, or a Gibbs state near I / 4
            identity = parse_text_expansion(out)[0]
            b = 1e-310 * 1e308  # mixed_scale: exp(-b XI) exp(-b IZ), up to 1e-300 ZI
            want = 0.25 if "gibbs" in row[0] else math.cosh(b)**2 if "mixed" in row[0] else 1.0
            assert abs(identity - want) <= 1e-15, (row[0], identity)

    def test_underflowing_trace_keeps_free_energy(self, capsys, case_dir):
        # H = 1000 + Z: tr exp(-beta H) underflows to 0, the free energy does not
        code, out, _ = run(capsys, "partition", "-i", str(case_dir / "shifted_1000.txt"),
                           "--betas", "2", "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["z_trace"] == 0.0
        want = 1000 - math.log(math.exp(2.0) + math.exp(-2.0)) / 2
        assert row["free_energy"] == pytest.approx(want, rel=1e-15)


test_non_finite_beta_exit_1 = pytest.mark.filterwarnings("error")(
    contract("test_non_finite_beta_exit_1"))
test_usage_error_is_one_line = contract("test_usage_error_is_one_line")
test_dense_cap_out_of_range = contract("test_dense_cap_out_of_range")
test_contract = contract("test_contract")


def test_rows_reach_every_exit_table_stage():
    """Each failing row names the stage of EXIT_TABLE whose exit code it has,
    and each stage has a row: the table, EXIT_TABLE and README's codes agree."""
    codes = {stage: code for _, stage, code in EXIT_TABLE}
    reached = set()
    for argv, code, err in rows():
        if code:
            stage = err.partition(" error: ")[0]
            assert codes.get(stage) == code and err.startswith(f"{stage} error: "), argv
            reached.add(stage)
    assert reached == set(codes)


_RAISED = [
    (FormatError("bad"), "input", 1),
    (ClosureExplosion(7, 3), "closure", 2),
    (SingularSystem(1j), "numerical", 3),
    (ContourError("bad"), "numerical", 3),
    (OverflowError("bad"), "numerical", 3),
    (FloatingPointError("bad"), "numerical", 3),
    (np.linalg.LinAlgError("bad"), "numerical", 3),
    (ValueError("bad"), "config", 1),
    (MemoryError("bad"), "config", 1),
    (OSError("bad"), "io", 1),
]


@pytest.mark.parametrize("exc,stage,code", _RAISED)
def test_exit_table(capsys, monkeypatch, exc, stage, code):
    """Each exception type of EXIT_TABLE exits by its row, with one stderr line."""
    rows = [(t, s, c) for types, s, c in EXIT_TABLE for t in types]
    assert (type(exc), stage, code) in rows
    assert {t for t, _, _ in rows} == {type(e) for e, _, _ in _RAISED}

    def failing_load(path):
        raise exc

    monkeypatch.setattr(pauliexp.cli, "load_hamiltonian", failing_load)
    code_, out, err = run(capsys, "closure", "-i", "h.txt")
    assert (code_, out) == (code, "")
    assert err.startswith(f"pauliexp: {stage} error: ") and err.count("\n") == 1, err


def test_exit_table_leaves_other_errors(monkeypatch):
    def failing_load(path):
        raise KeyError("bad")

    monkeypatch.setattr(pauliexp.cli, "load_hamiltonian", failing_load)
    with pytest.raises(KeyError):
        main(["closure", "-i", "h.txt"])


class TestGibbs:
    def test_text(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "gibbs", "-i", str(fixtures_dir / "h1.txt"),
                           "--beta", "2")
        assert code == 0
        coeffs = parse_text_expansion(out)
        assert coeffs[0].real == 0.125

    def test_json(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "gibbs", "-i", str(fixtures_dir / "h1.txt"),
                           "--beta", "2", "--format", "pauli-json")
        assert code == 0
        doc = json.loads(out)
        assert doc["beta"] == {"re": 2.0, "im": 0.0}


def _json_coeff_lists(doc: dict) -> list[list[dict]]:
    """Every coefficient list of an exp, gibbs or partition JSON document."""
    if "rows" in doc:
        return [row["gibbs"]["coeffs"] for row in doc["rows"]]
    return [doc["coeffs"]]


class TestJsonWriters:
    """The JSON writers keep json.dumps's layout of today's documents: key
    order, `, ` and `: ` separators, float.__repr__ numbers."""

    @pytest.mark.parametrize("command,beta,method,alphabet", [
        ("exp", 0.5, "auto", "digits"),
        ("exp", 0.3 + 0.2j, "sector", "letters"),
        ("exp", 0.7j, "auto", "digits"),
        ("gibbs", 0.5, None, "digits"),
        ("gibbs", -3.0, None, "letters"),
    ])
    @pytest.mark.parametrize("name", ["h2.txt", "xy_n6.txt"])
    def test_expansion_documents(self, capsys, fixtures_dir, command, beta, method, alphabet,
                                 name):
        path = fixtures_dir / name
        h = load_hamiltonian(path)
        if command == "exp":
            beta = complex(beta)
            flags = [f"--beta={beta.real}{beta.imag:+}i", "--method", method]
            e, method = exp_with_method(h, beta, method)
            want = {**expansion_to_dict(e, beta, alphabet), "method": method}
        else:
            flags = [f"--beta={beta}"]
            want = {**expansion_to_dict(Reduced(h).gibbs(beta), alphabet=alphabet),
                    "beta": {"re": beta, "im": 0.0}}
        code, out, err = run(capsys, command, "-i", str(path), *flags, "--alphabet", alphabet,
                             "--format", "pauli-json")
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out)) + "\n"
        assert out == json.dumps(want) + "\n"

    @pytest.mark.parametrize("method", ["auto", "sector", "spectral"])
    @pytest.mark.parametrize("name", FIXTURE_FILES)
    def test_expansion_to_dict_is_the_exp_document(self, capsys, fixtures_dir, shared_eigh, name,
                                                   method):
        """expansion_to_dict(exp_pauli(...)) is the parsed `exp --format pauli-json`
        document without its "method", down to key order and signed zeros."""
        path = str(fixtures_dir / name)
        h = load_hamiltonian(path)
        for flag, beta in (("--beta=0.5", complex(0.5)), ("--time=0.7", 1j * 0.7)):
            e = exp_pauli(h, beta, method)
            for alphabet in ("digits", "letters"):
                code, out, err = run(capsys, "exp", "-i", path, flag, "--method", method,
                                     "--format", "pauli-json", "--alphabet", alphabet)
                assert (code, err) == (0, "")
                doc = json.loads(out)
                del doc["method"]
                got = expansion_to_dict(e, beta, alphabet)
                assert got == doc
                assert json.dumps(got) == json.dumps(doc)

    @pytest.mark.parametrize("key", CASES["TestJsonWriters::test_partition_documents"])
    def test_partition_documents(self, capsys, case_dir, fixtures_dir, key):
        case = CASES["TestJsonWriters::test_partition_documents"][key]
        alphabet = key.split("-")[0]
        out = check_row(capsys, case_dir, case)
        assert out == json.dumps(json.loads(out)) + "\n"
        doc = json.loads(out)
        extra = "--symmetry-check" in case[0]
        assert list(doc) == (["rows", "symmetry_max_rel_diff"] if extra else ["rows"])
        red = Reduced(load_hamiltonian(fixtures_dir / "h2.txt"))
        betas = [0.1, 1.0, 5.0]
        for beta, row, gibbs in zip(betas, doc["rows"], red.gibbs_many(betas)):
            assert list(row) == ["beta", "z_normalized", "z_trace", "free_energy", "gibbs"]
            want = expansion_to_dict(PauliExpansion(4, red.codes, gibbs), alphabet=alphabet)
            assert json.dumps(row["gibbs"]) == json.dumps(want)

    def test_partition_without_gibbs(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "partition", "-i", str(fixtures_dir / "h2.txt"),
                             "--betas", "0,1", "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out)) + "\n"
        assert "gibbs" not in out

    @pytest.mark.parametrize("name", FIXTURE_FILES + ("closed_n32",))
    def test_real_beta_is_exactly_real(self, capsys, fixtures_dir, tmp_path, name):
        path = str(fixtures_dir / name)
        if name == "closed_n32":  # a closed set of shape (3, 0) with codes up to 4**32
            path = str(tmp_path / name)
            h = random_closed_hamiltonian(np.random.default_rng(32), 32, 3, 0)
            Path(path).write_text(format_hamiltonian(h))
        calls = [["exp", "-i", path, "--method", method, "--format", "pauli-json", beta]
                 for method in ("auto", "sector") for beta in ("--beta=0.5", "--beta=-2",
                                                               "--beta=30")]
        calls += [["gibbs", "-i", path, "--format", "pauli-json", f"--beta={beta}"]
                  for beta in ("0.5", "-2", "1000", "-1e6")]
        calls.append(["partition", "-i", path, "--gibbs", "--format", "json",
                      "--betas=-2,0,0.5,5,40"])
        for argv in calls:
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            for coeffs in _json_coeff_lists(json.loads(out)):
                assert all(c["im"] == 0.0 and math.copysign(1.0, c["im"]) == 1.0
                           for c in coeffs), argv


class TestVerify:
    def test_pass(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "verify", "-i", str(fixtures_dir / "h2.txt"),
                           "--beta", "1")
        assert code == 0
        assert out.startswith("PASS")
        assert "tau=7" in out

    def test_pass_unitary(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "verify", "-i", str(fixtures_dir / "h1.txt"),
                           "--time", "0.9", "--method", "contour")
        assert code == 0
        assert out.startswith("PASS")

    @pytest.mark.parametrize("method", CASES["TestVerify::test_anticommuting_past_the_cap"])
    def test_anticommuting_past_the_cap(self, capsys, case_dir, method):
        row = CASES["TestVerify::test_anticommuting_past_the_cap"][method]
        out = check_row(capsys, case_dir, row)
        assert out.startswith(f"PASS n=7 tau=16383 method={method} ")

    test_methods_keep_their_cap = contract("TestVerify::test_methods_keep_their_cap")

    def test_corrupted_expansion_fails(self, capsys, fixtures_dir, monkeypatch):
        # flip one coefficient's sign on the sparse side: the oracle must
        # notice with an O(1) error
        real_exp = pauliexp.cli.exp_pauli

        def corrupted(h, beta, **kwargs):
            e = real_exp(h, beta, **kwargs)
            flipped = e.values.copy()
            flipped[-1] = -flipped[-1]
            return type(e)(e.n, e.codes, flipped)

        monkeypatch.setattr(pauliexp.cli, "exp_pauli", corrupted)
        code, out, _ = run(capsys, "verify", "-i", str(fixtures_dir / "h1.txt"),
                           "--beta", "1")
        assert code == 3
        assert out.startswith("FAIL")
        assert float(out.split("max_abs=")[1].split()[0]) > 0.1


    @pytest.mark.parametrize("method,shapes", [
        ("anticommute", [(8, 8)]),
        ("spectral", [(4, 4), (8, 8)]),
        ("sector", [(1, 2, 2), (8, 8)]),
    ])
    def test_eigh_counts(self, capsys, fixtures_dir, eigh_shapes, method, shapes):
        # tau comes from the closure; only the chosen path and the dense
        # oracle run eigh
        code, out, _ = run(capsys, "verify", "-i", str(fixtures_dir / "h1.txt"),
                           "--beta", "1", "--method", method)
        assert code == 0
        assert out.startswith("PASS n=3 tau=3 ")
        assert eigh_shapes == shapes


class TestDecompose:
    def test_qutrit_golden(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "decompose", "-i",
                           str(fixtures_dir / "qutrit_embedded.json"))
        assert code == 0
        rows = sorted(line.split() for line in out.strip().splitlines())
        assert rows == sorted(
            [["-2", "12"], ["2", "21"], ["1", "30"], ["1", "33"]]
        )

    def test_round_trips_as_input(self, capsys, fixtures_dir, tmp_path):
        dest = tmp_path / "decomposed.txt"
        code, _, _ = run(capsys, "decompose", "-i",
                         str(fixtures_dir / "qutrit_embedded.json"), "-o", str(dest))
        assert code == 0
        h = load_hamiltonian(dest)
        want = load_hamiltonian(fixtures_dir / "qutrit_pauli.txt")
        assert np.array_equal(h.codes, want.codes)
        assert h.values == pytest.approx(want.values)

    def test_json_format(self, capsys, case_dir):
        row = CASES["decompose qutrit_embedded"]["letters-json"]
        doc = json.loads(check_row(capsys, case_dir, row))
        assert doc["n"] == 2
        assert {t["pauli"] for t in doc["terms"]} == {"XY", "YX", "ZI", "ZZ"}

    def test_binary_input(self, capsys, fixtures_dir, tmp_path):
        from pauliexp import read_dense

        m = read_dense(fixtures_dir / "qutrit_embedded.json")
        bpath = tmp_path / "m.pexp"
        bpath.write_bytes(dense_to_bytes(m))
        code, out, _ = run(capsys, "decompose", "-i", str(bpath))
        assert code == 0
        assert "30" in out

    def test_non_hermitian_input(self, capsys, case_dir):
        code, out, _ = run(capsys, "decompose", "-i", str(case_dir / "non_hermitian.json"))
        assert code == 0
        assert "# method decompose" in out
        coeffs = parse_text_expansion(out)
        assert coeffs[1] == 0.5
        assert coeffs[2] == 0.5j

    def test_near_float64_limit(self, capsys, case_dir):
        near, *anti = CASES["TestDecompose::test_near_float64_limit"]
        assert check_row(capsys, case_dir, near) == (
            "3.75e+307 000\n3.75e+307 030\n3.75e+307 300\n3.75e+307 330\n")
        # the coefficients, Y and then X and Y at 1.7e308 i, fit
        head = "# n 1\n# method decompose\n"
        for labels, text, as_json in (("2", *anti[:2]), ("12", *anti[2:])):
            assert check_row(capsys, case_dir, text) == (
                head + "".join(f"{p} 0 1.6999999999999999e+308\n" for p in labels))
            coeffs = [{"pauli": p, "re": 0.0, "im": 1.7e308} for p in labels]
            assert check_row(capsys, case_dir, as_json) == (
                json.dumps({"n": 1, "coeffs": coeffs}) + "\n")


class TestClosure:
    def test_text(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "closure", "-i", str(fixtures_dir / "h1.txt"),
                           "--alphabet", "letters")
        assert code == 0
        assert out.splitlines() == ["n 3", "tau 3", "XYZ", "YZX", "ZXY"]

    def test_json(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "closure", "-i", str(fixtures_dir / "h2.txt"),
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["tau"] == 7
        assert doc["codes"][0] == "0123"

    test_explosion_exit_2 = contract("TestClosure::test_explosion_exit_2")


class TestGoldenBytes:
    """Exact output of each writer, byte for byte, on cases whose numbers are exact."""

    EXP_H1_TEXT = (
        "# n 3\n"
        "# beta 0+0.69999999999999996i\n"
        "# method anticommute\n"
        "{} 0.3507396025552123 0\n"
        "{} 0 -0.54067295450497366\n"
        "{} 0 -0.54067295450497366\n"
        "{} 0 -0.54067295450497366\n"
    )
    EXP_H1_JSON = (
        '{{"n": 3, "beta": {{"re": 0.0, "im": 0.7}}, "coeffs": ['
        '{{"pauli": "{}", "re": 0.3507396025552123, "im": 0.0}}, '
        '{{"pauli": "{}", "re": 0.0, "im": -0.5406729545049737}}, '
        '{{"pauli": "{}", "re": 0.0, "im": -0.5406729545049737}}, '
        '{{"pauli": "{}", "re": 0.0, "im": -0.5406729545049737}}], '
        '"method": "anticommute"}}\n'
    )
    H1_LABELS = {"digits": ("000", "123", "231", "312"),
                 "letters": ("III", "XYZ", "YZX", "ZXY")}

    @pytest.mark.parametrize("alphabet", ["digits", "letters"])
    @pytest.mark.parametrize("fmt", ["pauli-text", "pauli-json"])
    def test_exp(self, capsys, fixtures_dir, alphabet, fmt):
        code, out, err = run(capsys, "exp", "-i", str(fixtures_dir / "h1.txt"),
                             "--time", "0.7", "--format", fmt, "--alphabet", alphabet)
        want = self.EXP_H1_TEXT if fmt == "pauli-text" else self.EXP_H1_JSON
        assert (code, err) == (0, "")
        assert out == want.format(*self.H1_LABELS[alphabet])

    @pytest.mark.parametrize("fmt,want", [
        ("text", "n 3\ntau 3\n123\n231\n312\n"),
        ("json", '{"n": 3, "tau": 3, "codes": ["123", "231", "312"]}\n'),
    ])
    def test_closure(self, capsys, fixtures_dir, fmt, want):
        code, out, err = run(capsys, "closure", "-i", str(fixtures_dir / "h1.txt"),
                             "--format", fmt)
        assert (code, out, err) == (0, want, "")

    @pytest.mark.parametrize("alphabet,fmt,want", [
        ("digits", "text", "-2 12\n2 21\n1 30\n1 33\n"),
        ("letters", "text", "-2 XY\n2 YX\n1 ZI\n1 ZZ\n"),
        ("digits", "json", '{"n": 2, "terms": [{"coeff": -2.0, "pauli": "12"}, '
                           '{"coeff": 2.0, "pauli": "21"}, {"coeff": 1.0, "pauli": "30"}, '
                           '{"coeff": 1.0, "pauli": "33"}]}\n'),
    ])
    def test_decompose_hermitian(self, capsys, case_dir, alphabet, fmt, want):
        row = CASES["decompose qutrit_embedded"][f"{alphabet}-{fmt}"]
        assert check_row(capsys, case_dir, row) == want

    @pytest.mark.parametrize("alphabet,fmt,want", [
        ("digits", "text", "# n 1\n# method decompose\n1 0.5 0\n2 0 0.5\n"),
        ("letters", "json", '{"n": 1, "coeffs": [{"pauli": "X", "re": 0.5, "im": 0.0}, '
                            '{"pauli": "Y", "re": 0.0, "im": 0.5}]}\n'),
    ])
    def test_decompose_non_hermitian(self, capsys, case_dir, alphabet, fmt, want):
        code, out, err = run(capsys, "decompose", "-i", str(case_dir / "non_hermitian.json"),
                             "--format", fmt, "--alphabet", alphabet)
        assert (code, out, err) == (0, want, "")


class TestSubprocess:
    def test_module_entry(self, fixtures_dir):
        proc = run_module("exp", "-i", str(fixtures_dir / "h1.txt"), "--time", "0.7")
        assert proc.returncode == 0
        assert "# method anticommute" in proc.stdout

    def test_verify_cli(self, fixtures_dir):
        proc = run_module("verify", "-i", str(fixtures_dir / "h2.txt"), "--beta", "1")
        assert proc.returncode == 0
        assert proc.stdout.startswith("PASS")

    def test_environment_knobs_ignored(self, fixtures_dir):
        # no environment variable selects a kernel or a thread count
        argv = [sys.executable, "-m", "pauliexp", "exp", "-i",
                str(fixtures_dir / "h2.txt"), "--beta", "1", "--method", "contour"]
        plain = subprocess.run(argv, capture_output=True)
        env = dict(os.environ, PAULIEXP_BACKEND="cuda", PAULIEXP_THREADS="zero")
        knobs = subprocess.run(argv, capture_output=True, env=env)
        assert plain.returncode == knobs.returncode == 0, knobs.stderr
        assert plain.stdout.startswith(b"# n 4")
        assert knobs.stdout == plain.stdout

    def test_overflow_without_warnings(self, case_dir):
        for row in CASES["TestSubprocess::test_overflow_without_warnings"]:
            proc = run_module(*resolve(row[0], case_dir))
            assert_row(row, proc.returncode, proc.stdout, proc.stderr)

    def test_console_script(self):
        # The script pyproject.toml declares, started the way the installed
        # wrapper starts it; the installed script itself too when on PATH.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with open(PYPROJECT, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["pauliexp"]
        assert target == "pauliexp.cli:entrypoint"
        module, func = target.split(":")
        wrapper = (f"import sys; from {module} import {func}; "
                   f"sys.argv[0] = 'pauliexp'; sys.exit({func}())")
        commands = [[sys.executable, "-c", wrapper, "--help"]]
        installed = shutil.which("pauliexp")
        if installed:
            commands.append([installed, "--help"])
        for command in commands:
            proc = subprocess.run(command, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.startswith("usage: pauliexp ")
            assert SUBCOMMANDS in proc.stdout
