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
    gibbs_state,
    load_hamiltonian,
    reconstruct_dense,
)
from pauliexp.cli import EXIT_TABLE, main, parse_beta
from pauliexp.dense import dense_from_bytes, dense_from_json, dense_to_bytes, dense_to_json
from pauliexp.engine import Reduced, exp_with_method
from pauliexp.errors import ClosureExplosion, ContourError, FormatError, SingularSystem
from pauliexp.hamiltonian import (
    expansion_to_dict,
    format_hamiltonian_text,
    random_closed_hamiltonian,
)
from pauliexp.pauli import parse_codes
import pauliexp.cli

from conftest import coeff_dict, read_expansion


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SUBCOMMANDS = "{exp,partition,gibbs,verify,decompose,closure}"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("nodes", ["0", "2", "-3", "1000000000000000000"])
    @pytest.mark.parametrize("circle", [[], ["--center", "0", "--radius", "4"]])
    def test_too_few_nodes_exit_1(self, capsys, fixtures_dir, nodes, circle):
        code, out, err = run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"), "--beta", "1",
                             "--method", "contour", "--nodes", nodes, *circle)
        assert (code, out) == (1, "")
        if int(nodes) < 4:
            assert err == f"pauliexp: config error: need at least 4 nodes, got {nodes}\n"
        else:  # 10**18 nodes need 6.94 EiB, past any address space, so refused at once
            assert err.startswith("pauliexp: config error: Unable to allocate 6.94 EiB")
            assert err.count("\n") == 1

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

    @pytest.mark.parametrize("fmt", ["pauli-text", "pauli-json", "dense-json", "dense-bin"])
    def test_output_file_holds_stdout_bytes(self, capsysbinary, fixtures_dir, tmp_path, fmt):
        argv = ["exp", "-i", str(fixtures_dir / "h2.txt"), "--beta", "0.3+0.2i", "--format", fmt]
        assert main(argv) == 0
        stdout = capsysbinary.readouterr().out
        dest = tmp_path / "out"
        assert main([*argv, "-o", str(dest)]) == 0
        assert capsysbinary.readouterr() == (b"", b"")
        assert stdout and dest.read_bytes() == stdout

    def test_unwritable_output_file(self, capsys, fixtures_dir, tmp_path):
        code, out, err = run(capsys, "exp", "-i", str(fixtures_dir / "h1.txt"), "--beta", "1",
                             "-o", str(tmp_path / "no" / "such" / "dir"))
        assert (code, out) == (1, "")
        assert err.startswith("pauliexp: io error: ") and err.count("\n") == 1

    def test_letters_alphabet(self, capsys, fixtures_dir):
        _, out, _ = run(capsys, "exp", "-i", str(fixtures_dir / "h1.txt"),
                        "--beta", "1", "--alphabet", "letters")
        assert "XYZ" in out

    def test_anticommute_hard_error(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"),
                           "--beta", "1", "--method", "anticommute")
        assert code == 1
        assert "config error" in err

    def test_closure_explosion_exit_2(self, capsys, fixtures_dir):
        for argv in (["exp", "--beta", "1"], ["exp", "--beta", "1", "--method", "sector"],
                     ["gibbs", "--beta", "1"], ["partition", "--betas", "1"]):
            code, _, err = run(capsys, *argv, "-i", str(fixtures_dir / "xy_n6.txt"),
                               "--closure-cap", "512")
            assert code == 2
            assert err == ("pauliexp: closure error: closure has 2047 non-identity "
                           "strings, more than the cap 512\n"), argv

    def test_bad_contour_exit_3(self, capsys, fixtures_dir):
        # a circle that misses the spectrum, and one used as given whose angle-0
        # node sits on the eigenvalue sqrt(3) of h1 (center sqrt(3) - 4, radius 4)
        for argv in (["--beta", "1", "--center", "40", "--radius", "0.5"],
                     ["--beta", "0.5", "--nodes", "16", "--center", "-2.267949192431023",
                      "--radius", "4"]):
            code, out, err = run(capsys, "exp", "-i", str(fixtures_dir / "h1.txt"),
                                 "--method", "contour", *argv)
            assert (code, out) == (3, "")
            assert err.startswith("pauliexp: numerical error:")
            assert err.count("\n") == 1

    def test_failed_factorization_exit_3(self, capsys, fixtures_dir, monkeypatch):
        def failing_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        code, _, err = run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"),
                           "--beta", "1", "--method", "spectral")
        assert code == 3
        assert err.startswith("pauliexp: numerical error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("method", ["auto", "sector", "spectral", "anticommute", "dense"])
    @pytest.mark.parametrize("flags", [["--nodes", "8"], ["--nodes", "0"],
                                       ["--center", "40", "--radius", "0.5"],
                                       ["--center", "0", "--radius", "1", "--nodes", "64"]])
    def test_contour_flags_need_contour(self, capsys, fixtures_dir, method, flags):
        code, out, err = run(capsys, "exp", "-i", str(fixtures_dir / "h1.txt"), "--beta", "1",
                             "--method", method, *flags)
        assert (code, out) == (1, "")
        assert err == ("pauliexp: input error: --nodes, --center and --radius apply only "
                       "to --method contour\n")

    @pytest.mark.parametrize("argv,message", [
        *(pytest.param(["--zero-tol", "0.5", "--method", method],
                       "--zero-tol applies only to --method dense", id=f"zero-tol-{method}")
          for method in ("auto", "sector", "spectral", "anticommute", "contour")),
        pytest.param(["--dense-cap", "1", "--format", "pauli-text"],
                     "--dense-cap applies only to --method dense and the dense formats",
                     id="dense-cap-auto"),
    ])
    def test_dense_flags_need_dense(self, capsys, fixtures_dir, argv, message):
        code, out, err = run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"), "--beta", "1",
                             *argv)
        assert (code, out, err) == (1, "", f"pauliexp: input error: {message}\n")

    def test_dense_flags_where_read(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"), "--beta", "1",
                           "--method", "dense", "--zero-tol", "0.5")
        assert code == 0
        assert len(parse_text_expansion(out)) == 7  # of the 8 kept at the default 1e-12
        code, out, _ = run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"), "--beta", "1",
                           "--dense-cap", "4", "--format", "dense-json")
        assert code == 0
        assert dense_from_json(out).shape == (16, 16)

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

    def test_center_without_radius(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "exp", "-i", str(fixtures_dir / "h1.txt"),
                           "--beta", "1", "--center", "0")
        assert code == 1
        assert "together" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "exp", "-i", "/no/such/file", "--beta", "1")
        assert code == 1
        assert "io error" in err
        # the input file is read ahead of the subcommand's own checks
        code, out, err = run(capsys, "exp", "-i", "/no/such/file", "--beta", "abc")
        assert (code, out) == (1, "")
        assert err.startswith("pauliexp: io error: ") and err.count("\n") == 1, err

    def test_malformed_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a hamiltonian\n")
        code, _, err = run(capsys, "exp", "-i", str(bad), "--beta", "1")
        assert code == 1
        assert "input error" in err

    def test_bad_beta(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "exp", "-i", str(fixtures_dir / "h1.txt"),
                           "--beta", "wat")
        assert code == 1

    def test_beta_and_time_conflict(self, capsys, fixtures_dir):
        code, _, _ = run(capsys, "exp", "-i", str(fixtures_dir / "h1.txt"),
                         "--beta", "1", "--time", "1")
        assert code == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        for argv, usage in ((["--help"], "usage: pauliexp "),
                            (["exp", "--help"], "usage: pauliexp exp ")):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert out.startswith(usage)


_FINITE = "coeff must be a finite real number"
_NOT_PAULI = "not a Pauli string (digits 0-3 or letters IXYZ): "
_DENSE = '{"n": %s, "matrix": [[[1, 0], %s], [[0, 0], [1, 0]]]}'  # "n", then entry (0, 1)


class TestInputErrors:
    """Exit code and the exact stderr line of each class of bad input file."""

    @pytest.mark.parametrize("text,code,message", [
        ("1 X\nabc Y\n", 1, "input error: line 2: bad coefficient 'abc'"),
        ("1 X\n1 W\n", 1, f"input error: line 2: {_NOT_PAULI}'W'"),
        ("1 XY\n1 X1\n", 1, f"input error: line 2: {_NOT_PAULI}'X1'"),
        ("1 " + "X" * 33 + "\n", 1, "input error: line 1: qubit count must be in [1, 32], got 33"),
        ("1 X\n2 Y\n1 XX\n", 1, "input error: line 3: string length 2 != 1 from earlier lines"),
        ("# nothing\n\n", 1, "input error: no terms found"),
        ("1 X\n1\n", 1, "input error: line 2: expected `<coeff> <pauli>`, got '1'"),
        ("1 X\nnan Y\n", 1, "input error: line 2: non-finite coefficient 'nan'"),
        ("inf X\n", 1, "input error: line 1: non-finite coefficient 'inf'"),
        ("1 X\n1e999 Z\n", 1, "input error: line 2: non-finite coefficient '1e999'"),
        # finite per line, infinite once summed
        ("1e308 X\n1e308 X\n", 1, "config error: non-finite coefficient for code 1"),
        # the first bad line wins; within a line the coefficient comes first
        ("1 X\n1 W\nabc Y\n", 1, f"input error: line 2: {_NOT_PAULI}'W'"),
        ("1 X\nabc W\n1 W\n", 1, "input error: line 2: bad coefficient 'abc'"),
        ("1 XX\n1 Y\n1 W\n", 1, "input error: line 2: string length 1 != 2 from earlier lines"),
    ])
    def test_text(self, capsys, tmp_path, text, code, message):
        p = tmp_path / "h.txt"
        p.write_text(text)
        assert run(capsys, "closure", "-i", str(p)) == (code, "", f"pauliexp: {message}\n")

    @pytest.mark.parametrize("doc,code,message", [
        ('{"n": 1, "terms": [{"coeff": 1, "pauli": "X"}, {"coeff": "x", "pauli": "Y"}]}', 1,
         "input error: terms[1]: coeff must be a real number"),
        ('{"n": 1, "terms": [{"coeff": 1, "pauli": "W"}]}', 1,
         f"input error: terms[0]: {_NOT_PAULI}'W'"),
        ('{"n": 2, "terms": [{"coeff": 1, "pauli": "X1"}]}', 1,
         f"input error: terms[0]: {_NOT_PAULI}'X1'"),
        ('{"n": 33, "terms": []}', 1, 'input error: "n" must be an integer in [1, 32]'),
        ('{"n": 32, "terms": [{"coeff": 1, "pauli": "' + "X" * 33 + '"}]}', 1,
         "input error: terms[0]: qubit count must be in [1, 32], got 33"),
        ('{"n": 1, "terms": [{"coeff": 1, "pauli": "X"}, {"coeff": 1, "pauli": "XX"}]}', 1,
         "input error: terms[1]: string length 2 != n=1"),
        ('{"n": 1, "terms": [{"coeff": 1, "pauli": "XX"}, {"coeff": 1, "pauli": "W"}]}', 1,
         "input error: terms[0]: string length 2 != n=1"),
        ('{"n": 1}', 1, 'input error: expected an object with "n" and "terms"'),
        ('{"n": 1, "terms": [{"pauli": "X"}]}', 1,
         'input error: terms[0]: expected {"coeff", "pauli"}'),
        ('{"n": 1, "terms": [{"coeff": 1, "pauli": "X"}, {"coeff": NaN, "pauli": "Y"}]}', 1,
         f"input error: terms[1]: {_FINITE}"),
        ('{"n": 1, "terms": [{"coeff": Infinity, "pauli": "X"}]}', 1,
         f"input error: terms[0]: {_FINITE}"),
        ('{"n": 1, "terms": [{"coeff": 1e400, "pauli": "X"}]}', 1,
         f"input error: terms[0]: {_FINITE}"),
        pytest.param('{"n": 1, "terms": [{"coeff": 1, "pauli": "X"}, {"coeff": 1' + "0" * 400
                     + ', "pauli": "Z"}]}', 1, f"input error: terms[1]: {_FINITE}", id="int-1e400"),
        ('{"n": 1, "terms": [{"coeff": 1e308, "pauli": "X"}, {"coeff": 1e308, "pauli": "X"}]}', 1,
         "config error: non-finite coefficient for code 1"),
        ('{"n": true, "terms": [{"coeff": 1, "pauli": "X"}]}', 1,
         'input error: "n" must be an integer in [1, 32]'),
        # a JSON label must be a string: 123 is not read as the digits 1, 2, 3
        ('{"n": 3, "terms": [{"coeff": 1, "pauli": 123}, {"coeff": 0.5, "pauli": "XXX"}]}', 1,
         "input error: terms[0]: pauli must be a string"),
        ('{"n": 1, "terms": [{"coeff": 1, "pauli": "X"}, {"coeff": 1, "pauli": null}]}', 1,
         "input error: terms[1]: pauli must be a string"),
        ('{"n": 1, "terms": [{"coeff": "x", "pauli": 3}]}', 1,
         "input error: terms[0]: coeff must be a real number"),
        ('{"n": 1, "terms": [{"coeff": 1, "pauli": "W"}, {"coeff": 1, "pauli": ["X"]}]}', 1,
         f"input error: terms[0]: {_NOT_PAULI}'W'"),
    ])
    def test_json(self, capsys, tmp_path, doc, code, message):
        p = tmp_path / "h.json"
        p.write_text(doc)
        assert run(capsys, "closure", "-i", str(p)) == (code, "", f"pauliexp: {message}\n")

    @pytest.mark.parametrize("data,message", [
        (_DENSE % ("1", "[null, 0]"), "entry (0, 1): re must be a real number"),
        (_DENSE % ("1", "[0, true]"), "entry (0, 1): im must be a real number"),
        (_DENSE % ("1", '["1e999", 0]'), "entry (0, 1): re must be a real number"),
        (_DENSE % ("1", "[NaN, 0]"), "entry (0, 1): re must be a finite real number"),
        (_DENSE % ("1", "[0, Infinity]"), "entry (0, 1): im must be a finite real number"),
        (_DENSE % ("true", "[0, 0]"), '"n" must be an integer in [1, 32]'),
        (dense_to_bytes(np.array([[1, 0], [np.nan, 1]])),
         "entry (1, 0): not a finite complex number"),
        ('{"n": 20000, "matrix": []}', '"n" must be an integer in [1, 32]'),
        ('{"n": 0, "matrix": []}', '"n" must be an integer in [1, 32]'),
    ], ids=["null", "true", "string", "NaN", "Infinity", "bool-n", "pexp-NaN", "n-20000", "n-0"])
    def test_dense(self, capsys, tmp_path, data, message):
        p = tmp_path / "m"
        p.write_bytes(data if isinstance(data, bytes) else data.encode())
        assert run(capsys, "decompose", "-i", str(p)) == (1, "", f"pauliexp: input error: {message}\n")

    @pytest.mark.parametrize("argv,message", [
        (["exp", "-i", "h2.txt", "--beta", "1", "--method", "dense", "--zero-tol", "nan"],
         "--zero-tol must be finite, got nan"),
        (["exp", "-i", "h2.txt", "--beta", "1", "--zero-tol=-1e-9"],
         "--zero-tol must be at least 0, got -1e-09"),
        (["decompose", "-i", "qutrit_embedded.json", "--zero-tol", "nan"],
         "--zero-tol must be finite, got nan"),
        (["decompose", "-i", "qutrit_embedded.json", "--zero-tol=-inf"],
         "--zero-tol must be finite, got -inf"),
        (["decompose", "-i", "qutrit_embedded.json", "--zero-tol=-1"],
         "--zero-tol must be at least 0, got -1.0"),
        (["verify", "-i", "h1.txt", "--beta", "1", "--tolerance", "nan"],
         "--tolerance must be finite, got nan"),
        (["verify", "-i", "h1.txt", "--beta", "1", "--tolerance", "inf"],
         "--tolerance must be finite, got inf"),
        (["verify", "-i", "h1.txt", "--beta", "1", "--tolerance=-1e-10"],
         "--tolerance must be at least 0, got -1e-10"),
        (["exp", "-i", "h1.txt", "--beta", "1", "--closure-cap", "-1"],
         "--closure-cap must be at least 0, got -1"),
        (["partition", "-i", "h2.txt", "--betas", "1", "--closure-cap", "-1"],
         "--closure-cap must be at least 0, got -1"),
        (["closure", "-i", "h2.txt", "--closure-cap", "-1"],
         "--closure-cap must be at least 0, got -1"),
        (["exp", "-i", "h1.txt", "--beta", "1", "--method", "contour", "--center", "nan",
          "--radius", "3"], "--center must be finite, got 'nan'"),
        (["exp", "-i", "h1.txt", "--beta", "1", "--method", "contour", "--center", "abc",
          "--radius", "3"], "cannot parse --center 'abc'"),
    ])
    def test_tolerance_flags(self, capsys, fixtures_dir, argv, message):
        argv[2] = str(fixtures_dir / argv[2])
        assert run(capsys, *argv) == (1, "", f"pauliexp: input error: {message}\n")

    @pytest.mark.parametrize("name,text", [
        ("h.txt", "0.5 xyz\n-1 iZy\n"),
        ("h.json", '{"n": 3, "terms": [{"coeff": 0.5, "pauli": "xyz"}, {"coeff": -1, "pauli": "iZy"}]}'),
    ])
    def test_lowercase_accepted(self, capsys, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        assert run(capsys, "closure", "-i", str(p), "--alphabet", "letters") == (
            0, "n 3\ntau 3\nIZY\nXXX\nXYZ\n", "")

    @pytest.mark.parametrize("doc,message", [
        pytest.param('{"n": 1, "terms": [{"coeff": 1' + "0" * 400 + ', "pauli": "X"}]}',
                     f"terms[0]: {_FINITE}", id="int-1e400"),
        ('{"n": 1, "terms": [{"coeff": -Infinity, "pauli": "X"}]}', f"terms[0]: {_FINITE}"),
    ])
    def test_huge_coefficient_is_an_input_error(self, tmp_path, doc, message):
        p = tmp_path / "h.json"
        p.write_text(doc)
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "pauliexp", "exp", "-i", str(p),
                               "--beta", "1"], capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"pauliexp: input error: {message}\n"


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
        from pauliexp import partition_function

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

    def test_symmetry_violated(self, capsys, fixtures_dir, tmp_path):
        other = tmp_path / "skewed.txt"
        other.write_text("0.9 0123\n-0.81 0213\n")
        code, out, _ = run(capsys, "partition", "-i", str(fixtures_dir / "h2.txt"),
                           "--betas", "1", "--symmetry-check", str(other))
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

    def test_bad_betas(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "partition", "-i", str(fixtures_dir / "h1.txt"),
                           "--betas", "1,x")
        assert code == 1
        # an empty entry is refused, not dropped
        for betas in (",", "1,,2", "1,2,", ""):
            code, out, err = run(capsys, "partition", "-i", str(fixtures_dir / "h1.txt"),
                                 "--betas", betas)
            assert (code, out, err) == (1, "", f"pauliexp: input error: cannot parse --betas "
                                               f"{betas!r}\n")

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
            assert [e["pauli"] for e in row["gibbs"]["coeffs"]] == \
                [e["pauli"] for e in want["coeffs"]]
            for got, ref in zip(row["gibbs"]["coeffs"], want["coeffs"]):
                assert got["re"] == pytest.approx(ref["re"], rel=1e-12, abs=1e-15)
                assert got["im"] == pytest.approx(ref["im"], abs=1e-15)

    def test_one_eigh_per_file(self, capsys, fixtures_dir, monkeypatch):
        calls = []
        real_eigh = np.linalg.eigh

        def counting_eigh(m, *args, **kwargs):
            calls.append(m.shape)
            return real_eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        betas = ",".join(str(0.25 * k) for k in range(1, 17))
        code, out, _ = run(capsys, "partition", "-i", str(fixtures_dir / "h2.txt"),
                           "--betas", betas, "--gibbs",
                           "--symmetry-check", str(fixtures_dir / "h2_mirror.txt"))
        assert code == 0
        assert "symmetry OK" in out
        # h2 and h2_mirror split into s = 1 pair and c = 1 central code
        assert calls == [(2, 2, 2), (2, 2, 2)]
        for argv, shape in ((["exp", "--beta", "0.5"], (2, 2, 2)),
                            (["exp", "--time", "2", "--method", "spectral"], (8, 8)),
                            (["gibbs", "--beta", "0.5"], (2, 2, 2)),
                            (["partition", "--betas", betas], (2, 2, 2))):
            calls.clear()
            code, _, _ = run(capsys, *argv, "-i", str(fixtures_dir / "h2.txt"))
            assert code == 0
            assert calls == [shape], argv


@pytest.mark.filterwarnings("error")
class TestLargeBeta:
    """XYZ + YZX + ZXY has eigenvalues -sqrt(3) and sqrt(3), four of each."""

    GIBBS_OFF_IDENTITY = -1.0 / (8.0 * math.sqrt(3.0))  # ground projector / 4

    @pytest.mark.parametrize("name,beta,method", [
        pytest.param("h1.txt", "--beta=1000", "auto", id="auto"),
        pytest.param("h1.txt", "--beta=1000", "spectral", id="spectral"),
        pytest.param("h1.txt", "--beta=1000", "dense", id="dense"),
        # a phase -Im(beta) E past float64, on every path
        ("h2.txt", "--time=1e308", "auto"),
        ("h2.txt", "--time=1e308", "spectral"),
        ("h2.txt", "--time=1e308", "dense"),
        ("h2.txt", "--time=1e308", "contour"),
        ("h2.txt", "--beta=1e308+1e308i", "auto"),
        ("h2.txt", "--beta=1e308+1e308i", "spectral"),
        ("h1.txt", "--time=1.7e308", "anticommute"),
    ])
    def test_exp_that_does_not_fit_exits_3(self, capsys, fixtures_dir, name, beta, method):
        code, out, err = run(capsys, "exp", "-i", str(fixtures_dir / name), beta,
                             "--method", method)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("pauliexp: numerical error:")
        flag, value = beta.split("=")
        named = parse_beta(value) if flag == "--beta" else 1j * float(value)
        assert f" at beta {named:g} " in err
        if method == "contour":  # the spectral path exits 3 here too
            assert "spectral" not in err

    @pytest.mark.parametrize("fmt", ["pauli-text", "dense-json"])
    def test_dense_exp_near_float64_limit(self, capsys, fixtures_dir, fmt):
        # exp(409.6 sqrt 3) / 2 is about 6.4e307 and fits; the decomposition
        # halves at every qubit, so no partial sum of it leaves float64
        h = load_hamiltonian(fixtures_dir / "h1.txt")
        code, out, err = run(capsys, "exp", "-i", str(fixtures_dir / "h1.txt"), "--beta=-409.6",
                             "--method", "dense", "--format", fmt)
        assert (code, err) == (0, "")
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

    def test_partition_that_does_not_fit_names_beta(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "partition", "-i", str(fixtures_dir / "h1.txt"),
                             "--betas", "1,10,100,1000", "--format", "json")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert "numerical error" in err and "beta 1000" in err and "float64" in err

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
        (None, "1e308", "z_trace at beta 1e+308 does not fit in float64 "
                        "(log z_trace 1.7320508075688772e+308)"),
        ("-5 0\n1 1\n", "1e308", "z_trace at beta 1e+308 does not fit in float64 "
                                   "(log z_trace inf)"),
        ("5 0\n1 1\n", "1e308", "free energy -log z_trace / beta at beta 1e+308 does not "
                                  "fit in float64 (log z_trace -inf)"),
        (None, "1e-320", "free energy -log z_trace / beta at beta 1e-320 does not fit in "
                         "float64 (log z_trace 2.0794415416798357)"),
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

    @pytest.mark.parametrize("name,method,beta", [
        ("h2.txt", "spectral", "1e308"),
        ("h2.txt", "sector", "1e308"),
        ("h1.txt", "anticommute", "1.7976931348623157e308"),
    ])
    def test_exp_at_largest_beta(self, capsys, fixtures_dir, tmp_path, name, method, beta):
        assert run(capsys, "exp", "-i", str(fixtures_dir / name), "--beta", beta,
                   "--method", method) == (3, "", "pauliexp: numerical error: exp(-beta H) at "
                                                  f"beta {complex(float(beta)):g} does not fit "
                                                  "in float64\n")
        # H = 5 + X >= 4: every coefficient underflows to 0
        path = tmp_path / "h.txt"
        path.write_text("5 0\n1 1\n")
        code, out, err = run(capsys, "exp", "-i", str(path), "--beta", beta,
                             "--method", method)
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == ["0 0 0", "1 0 0"]

    def test_underflowing_trace_keeps_free_energy(self, capsys, tmp_path):
        # H = 1000 + Z: tr exp(-beta H) underflows to 0, the free energy does not
        path = tmp_path / "shifted.txt"
        path.write_text("1000 0\n1 3\n")
        code, out, _ = run(capsys, "partition", "-i", str(path), "--betas", "2",
                           "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["z_trace"] == 0.0
        want = 1000 - math.log(math.exp(2.0) + math.exp(-2.0)) / 2
        assert row["free_energy"] == pytest.approx(want, rel=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,needle", [
    (["exp", "--time", "nan"], "--time"),
    (["exp", "--time", "inf"], "--time"),
    (["gibbs", "--beta", "nan"], "--beta"),
    (["gibbs", "--beta", "inf"], "--beta"),
    (["partition", "--betas", "nan"], "--betas"),
    (["partition", "--betas", "0.5,inf"], "--betas"),
    (["exp", "--beta", "1", "--method", "contour", "--center", "0", "--radius", "nan"],
     "radius"),
    (["exp", "--beta", "1", "--method", "contour", "--center", "0", "--radius", "inf"],
     "radius"),
    (["verify", "--time=-inf"], "--time"),
])
def test_non_finite_beta_exit_1(capsys, fixtures_dir, argv, needle):
    code, out, err = run(capsys, *argv, "-i", str(fixtures_dir / "h1.txt"))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert needle in err and ("nan" in err or "inf" in err), err


@pytest.mark.parametrize("argv", [
    ["exp", "-i", "h1.txt", "--beta", "1", "--method", "magic"],
    ["exp", "-i", "h1.txt"],
    ["exp", "-i", "h1.txt", "--beta", "1", "--time", "1"],
    ["exp", "-i", "h1.txt", "--beta", "1", "--wat"],
    [],
    ["bogus", "-i", "h1.txt"],
    ["exp", "-i", "h1.txt", "--beta", "1", "--method", "contour", "--nodes", "x"],
    ["partition", "-i", "h1.txt", "--betas", "-0.5,1"],
    # verify prints no Pauli label, so it takes no --alphabet
    ["verify", "-i", "h1.txt", "--beta", "1", "--alphabet", "letters"],
], ids=["method", "no-beta", "beta-and-time", "unknown-flag", "no-subcommand",
        "unknown-subcommand", "nodes-x", "negative-betas", "verify-alphabet"])
def test_usage_error_is_one_line(capsys, fixtures_dir, argv):
    """argparse's rejections leave through EXIT_TABLE, as one input error line."""
    argv = [str(fixtures_dir / a) if a == "h1.txt" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("pauliexp: input error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv,cap", [
    (["exp", "--beta", "1", "--method", "dense", "--dense-cap", "-1"], -1),
    (["exp", "--beta", "1", "--method", "dense", "--dense-cap", "0"], 0),
    (["exp", "--beta", "1", "--method", "dense", "--dense-cap", "13"], 13),
    (["verify", "--beta", "1", "--dense-cap", "-5"], -5),
], ids=["exp-minus-1", "exp-0", "exp-13", "verify-minus-5"])
def test_dense_cap_out_of_range(capsys, fixtures_dir, argv, cap):
    assert run(capsys, *argv, "-i", str(fixtures_dir / "h1.txt")) == (
        1, "", f"pauliexp: config error: dense cap must be in [1, 12], got {cap}\n")


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


FIXTURE_FILES = ("h1.txt", "h2.txt", "h2_mirror.txt", "qutrit_pauli.txt", "rho_s_n3.txt",
                 "xy_n6.txt")


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

    @pytest.mark.parametrize("extra", [[], ["--symmetry-check", "h2_mirror.txt"]])
    @pytest.mark.parametrize("alphabet", ["digits", "letters"])
    def test_partition_documents(self, capsys, fixtures_dir, extra, alphabet):
        extra = [extra[0], str(fixtures_dir / extra[1])] if extra else []
        betas = [0.1, 1.0, 5.0]
        code, out, err = run(capsys, "partition", "-i", str(fixtures_dir / "h2.txt"),
                             "--betas", "0.1,1,5", "--gibbs", "--format", "json",
                             "--alphabet", alphabet, *extra)
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out)) + "\n"
        doc = json.loads(out)
        assert list(doc) == (["rows", "symmetry_max_rel_diff"] if extra else ["rows"])
        red = Reduced(load_hamiltonian(fixtures_dir / "h2.txt"))
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
            Path(path).write_text(format_hamiltonian_text(h))
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

    @pytest.mark.parametrize("method", ["auto", "anticommute"])
    def test_anticommuting_past_the_cap(self, capsys, tmp_path, method):
        # the 14 Jordan-Wigner Majorana strings on 7 qubits: closure 16383 > 4096,
        # which the closed form never enumerates
        path = tmp_path / "majorana.txt"
        path.write_text("".join(f"{(k + 1) / 10} {'Z' * q}{p}{'I' * (6 - q)}\n"
                                for k, (q, p) in enumerate((q, p) for q in range(7)
                                                           for p in "XY")))
        code, out, err = run(capsys, "verify", "-i", str(path), "--beta", "0.7",
                             "--method", method)
        assert (code, err) == (0, "")
        assert out.startswith(f"PASS n=7 tau=16383 method={method} ")

    @pytest.mark.parametrize("method", ["spectral", "sector"])
    def test_methods_keep_their_cap(self, capsys, fixtures_dir, method):
        code, out, err = run(capsys, "verify", "-i", str(fixtures_dir / "xy_n6.txt"),
                             "--beta", "1", "--method", method, "--closure-cap", "512")
        assert (code, out) == (2, "")
        assert err == ("pauliexp: closure error: closure has 2047 non-identity "
                       "strings, more than the cap 512\n")

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
    def test_eigh_counts(self, capsys, fixtures_dir, monkeypatch, method, shapes):
        # tau comes from the closure; only the chosen path and the dense
        # oracle run eigh
        calls = []
        real_eigh = np.linalg.eigh

        def counting_eigh(m, *args, **kwargs):
            calls.append(m.shape)
            return real_eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        code, out, _ = run(capsys, "verify", "-i", str(fixtures_dir / "h1.txt"),
                           "--beta", "1", "--method", method)
        assert code == 0
        assert out.startswith("PASS n=3 tau=3 ")
        assert calls == shapes


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

    def test_json_format(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "decompose", "-i",
                           str(fixtures_dir / "qutrit_embedded.json"),
                           "--format", "json", "--alphabet", "letters")
        assert code == 0
        doc = json.loads(out)
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

    def test_non_hermitian_input(self, capsys, tmp_path):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        p = tmp_path / "nh.json"
        p.write_text(dense_to_json(m))
        code, out, _ = run(capsys, "decompose", "-i", str(p))
        assert code == 0
        assert "# method decompose" in out
        coeffs = parse_text_expansion(out)
        assert coeffs[1] == 0.5
        assert coeffs[2] == 0.5j

    def test_near_float64_limit(self, capsys, tmp_path):
        # two diagonal entries of 1.5e308: each coefficient is 3e308 / 8, which
        # fits, as does every partial sum when each qubit's step halves
        m = np.zeros((8, 8))
        m[0, 0] = m[1, 1] = 1.5e308
        path = tmp_path / "near_limit.json"
        path.write_text(dense_to_json(m))
        assert run(capsys, "decompose", "-i", str(path)) == (
            0, "3.75e+307 000\n3.75e+307 030\n3.75e+307 300\n3.75e+307 330\n", "")
        # anti-Hermitian, so m - m^dagger overflows though the coefficients,
        # Y and then X and Y at 1.7e308 i, fit
        a, head = 1.7e308, "# n 1\n# method decompose\n"
        for m, labels in (([[0, a], [-a, 0]], "2"), ([[0, a + a * 1j], [-a + a * 1j, 0]], "12")):
            path.write_text(dense_to_json(np.array(m)))
            assert run(capsys, "decompose", "-i", str(path)) == (
                0, head + "".join(f"{p} 0 1.6999999999999999e+308\n" for p in labels), "")
            coeffs = [{"pauli": p, "re": 0.0, "im": 1.7e308} for p in labels]
            assert run(capsys, "decompose", "-i", str(path), "--format", "json") == (
                0, json.dumps({"n": 1, "coeffs": coeffs}) + "\n", "")


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

    def test_explosion_exit_2(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "closure", "-i", str(fixtures_dir / "xy_n6.txt"),
                           "--closure-cap", "512")
        assert code == 2
        assert "2047" in err


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
    def test_decompose_hermitian(self, capsys, fixtures_dir, alphabet, fmt, want):
        code, out, err = run(capsys, "decompose", "-i",
                             str(fixtures_dir / "qutrit_embedded.json"),
                             "--format", fmt, "--alphabet", alphabet)
        assert (code, out, err) == (0, want, "")

    @pytest.mark.parametrize("alphabet,fmt,want", [
        ("digits", "text", "# n 1\n# method decompose\n1 0.5 0\n2 0 0.5\n"),
        ("letters", "json", '{"n": 1, "coeffs": [{"pauli": "X", "re": 0.5, "im": 0.0}, '
                            '{"pauli": "Y", "re": 0.0, "im": 0.5}]}\n'),
    ])
    def test_decompose_non_hermitian(self, capsys, tmp_path, alphabet, fmt, want):
        p = tmp_path / "nh.json"
        p.write_text(dense_to_json(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)))
        code, out, err = run(capsys, "decompose", "-i", str(p),
                             "--format", fmt, "--alphabet", alphabet)
        assert (code, out, err) == (0, want, "")


class TestSubprocess:
    def test_module_entry(self, fixtures_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "pauliexp", "exp", "-i",
             str(fixtures_dir / "h1.txt"), "--time", "0.7"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "# method anticommute" in proc.stdout

    def test_verify_cli(self, fixtures_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "pauliexp", "verify", "-i",
             str(fixtures_dir / "h2.txt"), "--beta", "1"],
            capture_output=True,
            text=True,
        )
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

    def test_overflow_without_warnings(self, fixtures_dir):
        # one line on stderr naming beta (and the dense or contour path), no
        # traceback and no RuntimeWarning under -W error
        for argv, want, needles in (
            (["exp", "--beta", "1000"], 3, ["beta 1000"]),
            (["exp", "--beta", "500", "--method", "spectral"], 3, ["beta 500"]),
            (["exp", "--beta", "1000", "--method", "dense"], 3, ["beta 1000", "dense"]),
            (["exp", "--beta", "1000", "--method", "contour"], 3, ["beta 1000", "contour"]),
            # exp(-300 H) fits (about e^520); the contour integrand does not
            (["exp", "--beta", "300", "--method", "contour"], 3, ["beta 300", "contour"]),
            (["gibbs", "--beta", "1000"], 0, []),
        ):
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "pauliexp", *argv,
                 "-i", str(fixtures_dir / "h1.txt")],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == want, proc.stderr
            assert proc.stderr.count("\n") == (1 if want else 0), proc.stderr
            assert all(needle in proc.stderr for needle in needles), proc.stderr

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
