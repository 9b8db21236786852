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
    dense_exp,
    gibbs_state,
    load_hamiltonian,
    parse_string,
    reconstruct_dense,
)
from pauliexp.cli import main, parse_beta
from pauliexp.dense import dense_from_bytes, dense_from_json
from pauliexp.hamiltonian import expansion_from_dict, expansion_to_dict
import pauliexp.cli


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SUBCOMMANDS = "{exp,partition,gibbs,verify,bench,decompose,closure}"


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
        coeffs[parse_string(pauli).code] = complex(float(re), float(im))
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
        assert doc["method"] == "spectral"
        e, beta = expansion_from_dict(doc)
        assert beta == 0.5 + 0.25j
        assert e.n == 4

    def test_methods_agree(self, capsys, fixtures_dir):
        outs = {}
        for method in ("spectral", "contour", "dense"):
            code, out, _ = run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"),
                               "--beta", "1", "--method", method,
                               "--format", "pauli-json")
            assert code == 0
            e, _ = expansion_from_dict(json.loads(out))
            outs[method] = e
        keys = set().union(*(e.support for e in outs.values()))
        for method in ("contour", "dense"):
            worst = max(
                abs(outs[method].coefficient(k) - outs["spectral"].coefficient(k))
                for k in keys
            )
            assert worst < 1e-10

    def test_contour_nodes_flag(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"),
                           "--beta", "1", "--method", "contour", "--nodes", "128",
                           "--format", "pauli-json")
        assert code == 0
        _, out2, _ = run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"),
                         "--beta", "1", "--format", "pauli-json")
        e1, _ = expansion_from_dict(json.loads(out))
        e2, _ = expansion_from_dict(json.loads(out2))
        keys = set(e1.support) | set(e2.support)
        assert max(abs(e1.coefficient(k) - e2.coefficient(k)) for k in keys) < 1e-8

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
        code, _, err = run(capsys, "exp", "-i", str(fixtures_dir / "xy_n6.txt"),
                           "--beta", "1", "--closure-cap", "512")
        assert code == 2
        assert "closure" in err

    def test_bad_contour_exit_3(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "exp", "-i", str(fixtures_dir / "h1.txt"),
                           "--beta", "1", "--method", "contour",
                           "--center", "40", "--radius", "0.5")
        assert code == 3
        assert "numerical error" in err

    def test_failed_factorization_exit_3(self, capsys, fixtures_dir, monkeypatch):
        def failing_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        code, _, err = run(capsys, "exp", "-i", str(fixtures_dir / "h2.txt"),
                           "--beta", "1", "--method", "spectral")
        assert code == 3
        assert err.startswith("pauliexp: numerical error:")
        assert err.count("\n") == 1

    def test_center_without_radius(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "exp", "-i", str(fixtures_dir / "h1.txt"),
                           "--beta", "1", "--center", "0")
        assert code == 1
        assert "together" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "exp", "-i", "/no/such/file", "--beta", "1")
        assert code == 1
        assert "io error" in err

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
        assert main(["--help"]) == 0


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
        e, _ = expansion_from_dict(row["gibbs"])
        assert e.coefficient(0) == 1.0 / 16.0

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
        assert calls == [(8, 8), (8, 8)]
        for argv in (["exp", "--beta", "0.5"], ["exp", "--time", "2", "--method", "spectral"],
                     ["gibbs", "--beta", "0.5"], ["partition", "--betas", betas]):
            calls.clear()
            code, _, _ = run(capsys, *argv, "-i", str(fixtures_dir / "h2.txt"))
            assert code == 0
            assert calls == [(8, 8)], argv


@pytest.mark.filterwarnings("error")
class TestLargeBeta:
    """XYZ + YZX + ZXY has eigenvalues -sqrt(3) and sqrt(3), four of each."""

    GIBBS_OFF_IDENTITY = -1.0 / (8.0 * math.sqrt(3.0))  # ground projector / 4

    @pytest.mark.parametrize("method", ["auto", "spectral", "dense"])
    def test_exp_that_does_not_fit_exits_3(self, capsys, fixtures_dir, method):
        code, out, err = run(capsys, "exp", "-i", str(fixtures_dir / "h1.txt"),
                             "--beta", "1000", "--method", method)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("pauliexp: numerical error:")

    @pytest.mark.parametrize("beta", ["1000", "1e6", "-1000"])
    def test_gibbs_large_beta(self, capsys, fixtures_dir, beta):
        code, out, err = run(capsys, "gibbs", "-i", str(fixtures_dir / "h1.txt"),
                             "--beta", beta)
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

    def test_corrupted_expansion_fails(self, capsys, fixtures_dir, monkeypatch):
        # flip one coefficient's sign on the sparse side: the oracle must
        # notice with an O(1) error
        real_exp = pauliexp.cli.exp_pauli

        def corrupted(h, beta, **kwargs):
            e = real_exp(h, beta, **kwargs)
            code = e.support[-1]
            flipped = dict(e.coeffs)
            flipped[code] = -flipped[code]
            return type(e)(e.n, flipped)

        monkeypatch.setattr(pauliexp.cli, "exp_pauli", corrupted)
        code, out, _ = run(capsys, "verify", "-i", str(fixtures_dir / "h1.txt"),
                           "--beta", "1")
        assert code == 3
        assert out.startswith("FAIL")
        assert float(out.split("max_abs=")[1].split()[0]) > 0.1


    @pytest.mark.parametrize("method,shapes", [
        ("anticommute", [(8, 8)]),
        ("spectral", [(4, 4), (8, 8)]),
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
        assert h.terms == pytest.approx(want.terms)

    def test_json_format(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "decompose", "-i",
                           str(fixtures_dir / "qutrit_embedded.json"),
                           "--format", "json", "--alphabet", "letters")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2
        assert {t["pauli"] for t in doc["terms"]} == {"XY", "YX", "ZI", "ZZ"}

    def test_binary_input(self, capsys, fixtures_dir, tmp_path):
        from pauliexp import read_dense, write_dense

        m = read_dense(fixtures_dir / "qutrit_embedded.json")
        bpath = tmp_path / "m.pexp"
        write_dense(bpath, m, binary=True)
        code, out, _ = run(capsys, "decompose", "-i", str(bpath))
        assert code == 0
        assert "30" in out

    def test_non_hermitian_input(self, capsys, tmp_path):
        from pauliexp import write_dense

        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        p = tmp_path / "nh.json"
        write_dense(p, m)
        code, out, _ = run(capsys, "decompose", "-i", str(p))
        assert code == 0
        assert "# method decompose" in out
        coeffs = parse_text_expansion(out)
        assert coeffs[1] == 0.5
        assert coeffs[2] == 0.5j


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


class TestBench:
    def test_spectral_tau_csv(self, capsys):
        code, out, _ = run(capsys, "bench", "--suite", "spectral-tau", "--n", "6",
                           "--tau-list", "3,7", "--repeats", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,tau,wall_time_s"
        assert len(lines) == 3
        n, tau, dt = lines[1].split(",")
        assert (int(n), int(tau)) == (6, 3)
        assert float(dt) > 0

    def test_spectral_n_csv(self, capsys):
        code, out, _ = run(capsys, "bench", "--suite", "spectral-n",
                           "--n-list", "4,6", "--repeats", "1")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [4, 6]
        assert all(int(r[1]) == 7 for r in rows)

    def test_dense_suite(self, capsys):
        code, out, _ = run(capsys, "bench", "--suite", "dense-n",
                           "--n-list", "2,3", "--repeats", "1")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_bad_tau_rejected(self, capsys):
        code, _, err = run(capsys, "bench", "--suite", "spectral-tau",
                           "--tau-list", "6", "--repeats", "1")
        assert code == 1

    def test_spectral_tau_at_32_qubits(self, capsys):
        code, out, err = run(capsys, "bench", "--suite", "spectral-tau", "--n", "32",
                             "--tau-list", "7", "--repeats", "1")
        assert code == 0, err
        assert out.splitlines()[1].startswith("32,7,")

    @pytest.mark.parametrize("argv,needle", [
        (["--n-list", "40"], "qubit count"),
        (["--n-list", "4", "--repeats", "0"], "--repeats"),
        (["--n-list", "4", "--beta", "nan"], "--beta"),
    ])
    def test_bad_settings_exit_1(self, capsys, argv, needle):
        code, out, err = run(capsys, "bench", *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and needle in err, err

    def test_rank_above_2n_returns(self):
        # no 2-qubit span has rank 5; this once redrew generators forever
        proc = subprocess.run(
            [sys.executable, "-m", "pauliexp", "bench", "--suite", "spectral-tau",
             "--n", "2", "--tau-list", "31", "--repeats", "1"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "rank 5 exceeds 2n = 4" in proc.stderr

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "bench.csv"
        code, out, _ = run(capsys, "bench", "--suite", "spectral-tau", "--n", "4",
                           "--tau-list", "3", "--repeats", "1", "-o", str(dest))
        assert code == 0
        assert dest.read_text().startswith("n,tau,wall_time_s")


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
        from pauliexp import write_dense

        p = tmp_path / "nh.json"
        write_dense(p, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
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
            (["exp", "--beta", "300", "--method", "contour"], 3, ["beta 300", "spectral"]),
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
