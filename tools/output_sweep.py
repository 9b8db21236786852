"""In-process CLI output sweep, to check that a change keeps every output.

    python -W error tools/output_sweep.py run SRC_DIR OUT.json
    python tools/output_sweep.py diff BEFORE.json AFTER.json

`run` imports pauliexp from SRC_DIR (the `src` directory of one checkout),
calls `pauliexp.cli.main` on a fixed list of argument lists with stdout and
stderr captured, and writes {case: [exit code, stdout, stderr]}; a case
that writes with `-o` also records the file it wrote, as a fourth field.
`diff` prints every case whose exit code, stdout, stderr or file differs
between two such files, then one summary line: over the cases that differ in stdout
only, the largest change of a number relative to the case's largest
coefficient (read from JSON documents and from `label re im` lines), or
how many differ in more than numbers. The cases: every text fixture x
`exp --method auto|spectral|dense|contour` x four betas x two formats;
`exp`, `gibbs`, `closure` and `partition --gibbs` on all fixtures in both
formats and alphabets; dense output formats; `decompose` of random
matrices and of the qutrit fixture; `--symmetry-check`, with `--gibbs` in
JSON in both alphabets; `verify`, also on 14 anticommuting strings whose
closure exceeds the default cap; non-finite and large betas, up to 1e308
under `gibbs`, `partition --gibbs` and `exp --method spectral`, and betas
whose phase does not fit in float64 under `exp` on every path and under
`verify`; `--nodes 0` under contour and the contour flags under other
methods, and `--nodes 10**18`, whose array cannot be allocated; an
explicit contour circle with a node on an eigenvalue, and `exp --method
dense` and `decompose` with results near the float64 limit, the latter
also on anti-Hermitian matrices whose m - m^dagger overflows;
a NaN `--zero-tol` or `--tolerance`; `--zero-tol` under every
method and `--dense-cap` with a Pauli and a dense format; a negative
`--closure-cap` under `exp`, `partition` and `closure`; good and bad input files in both
the text and the JSON format, a JSON Hamiltonian with a bool "n" under
`exp`, and dense JSON and PEXP files with a null, bool, string or NaN
entry or a bool or too large "n" under `decompose`; and closed sets of
rank 4-7 on 32 qubits, with codes of 2**63 and above, under `exp --time`,
`exp --beta` and `partition --gibbs`; one `-o` case per subcommand,
`exp` in all four formats and a failing `verify` among them; and a JSON
"pauli" that is not a string, and a `--center` that is NaN or no number.
"""

import io
import json
import re
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TEXT = ["h1.txt", "h2.txt", "h2_mirror.txt", "qutrit_pauli.txt", "rho_s_n3.txt", "xy_n6.txt"]
BETAS = [["--beta", "1"], ["--time", "0.7"], ["--beta", "0.3+0.2i"], ["--beta=-2"]]
BIG_INT = "1" + "0" * 400
# the 14 Jordan-Wigner Majorana strings on 7 qubits: rank 14, tau 16383
MAJORANA_7 = "".join(f"{(k + 1) / 10} {'Z' * q}{p}{'I' * (6 - q)}\n"
                     for k, (q, p) in enumerate((q, p) for q in range(7) for p in "XY"))
INPUTS = {
    "lower.txt": "0.5 xyz\n-1 zzi\n0.25 iii\n",
    "repeats.txt": "0.1 XX\n0.2 11\n0.3 XX\n1e-3 II\n2e-3 00\n-0.7 ZY\n",
    "unsorted.txt": "0.3 ZZX\n-0.2 XII\n0.9 IYI\n0.4 XII\n",
    "bad_coeff.txt": "1 X\nabc Y\n",
    "bad_char.txt": "1 X\n1 W\n",
    "mixed.txt": "1 XY\n1 X1\n",
    "33_qubits.txt": "1 " + "X" * 33 + "\n",
    "length.txt": "1 X\n2 Y\n1 XX\n",
    "no_terms.txt": "# nothing\n\n",
    "fields.txt": "1 X\n1\n",
    "nan.txt": "1 X\nnan Y\n",
    "inf.txt": "inf X\n",
    "1e999.txt": "1 X\n1e999 Z\n",
    "overflow.txt": "1e308 X\n1e308 X\n",
    "first_bad_1.txt": "1 X\n1 W\nabc Y\n",
    "first_bad_2.txt": "1 X\nabc Y\n1 W\n",
    "first_bad_3.txt": "1 XX\n1 Y\n1 W\n",
    "good.json": '{"n": 2, "terms": [{"coeff": 0.5, "pauli": "xz"}, {"coeff": -1, "pauli": "II"},'
                 ' {"coeff": 0.25, "pauli": "13"}, {"coeff": 3, "pauli": "yy"}]}',
    "bad_coeff.json": '{"n": 1, "terms": [{"coeff": 1, "pauli": "X"}, {"coeff": "x", "pauli": "Y"}]}',
    "bad_char.json": '{"n": 1, "terms": [{"coeff": 1, "pauli": "W"}]}',
    "mixed.json": '{"n": 2, "terms": [{"coeff": 1, "pauli": "X1"}]}',
    "33_qubits.json": '{"n": 33, "terms": []}',
    "33_chars.json": '{"n": 32, "terms": [{"coeff": 1, "pauli": "' + "X" * 33 + '"}]}',
    "length.json": '{"n": 1, "terms": [{"coeff": 1, "pauli": "X"}, {"coeff": 1, "pauli": "XX"}]}',
    "length_first.json": '{"n": 1, "terms": [{"coeff": 1, "pauli": "XX"}, {"coeff": 1, "pauli": "W"}]}',
    "no_terms.json": '{"n": 1}',
    "empty_terms.json": '{"n": 1, "terms": []}',
    "missing_key.json": '{"n": 1, "terms": [{"pauli": "X"}]}',
    "big_int.json": '{"n": 1, "terms": [{"coeff": ' + BIG_INT + ', "pauli": "X"}]}',
    "nan.json": '{"n": 1, "terms": [{"coeff": 1, "pauli": "X"}, {"coeff": NaN, "pauli": "Y"}]}',
    "inf.json": '{"n": 1, "terms": [{"coeff": Infinity, "pauli": "X"}]}',
    "1e400.json": '{"n": 1, "terms": [{"coeff": 1e400, "pauli": "X"}]}',
    "overflow.json": '{"n": 1, "terms": [{"coeff": 1e308, "pauli": "X"},'
                     ' {"coeff": 1e308, "pauli": "X"}]}',
}

# dense inputs for decompose, each with one fault; the last is a PEXP blob
EYE_ROWS = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
BAD_DENSE = {
    "dense_null.json": '{"n": 1, "matrix": [[[1, 0], [null, 0]], [[0, 0], [1, 0]]]}',
    "dense_true.json": '{"n": 1, "matrix": [[[1, 0], [0, 0]], [[0, true], [1, 0]]]}',
    "dense_1e999.json": '{"n": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], ["1e999", 0]]]}',
    "dense_nan.json": '{"n": 1, "matrix": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    "dense_n_true.json": json.dumps({"n": True, "matrix": EYE_ROWS}),
    "dense_n_20000.json": '{"n": 20000, "matrix": []}',
    "dense_nan.pexp": b"PEXP" + struct.pack("<I", 1) + np.array(
        [1, 0, complex(0, np.nan), 1], dtype="<c16").tobytes(),
}


# its own builder, not pauliexp's, so that the inputs do not depend on the checkout under test
def closed_n32(rank: int) -> str:
    """Text of a closed set on 32 qubits: all 2**rank - 1 products of `rank`
    independent random codes, the first with its top bit set so that codes
    of 2**63 and above occur, with coefficients in [-1, 1] and an identity."""
    rng = np.random.default_rng(rank)
    span = [0]
    while len(set(span)) < 2**rank:
        span = [0]
        for k, g in enumerate(rng.integers(0, 2**64, size=rank, dtype=np.uint64).tolist()):
            span += [c ^ (g | (k == 0) << 63) for c in span]
    return "".join(f"{v!r} {''.join(str(c >> 2 * q & 3) for q in range(31, -1, -1))}\n"
                   for c, v in zip(span, rng.uniform(-1.0, 1.0, len(span)).tolist()))


def cases(tmp: Path, dense) -> list[list[str]]:
    fix = {name: str(FIXTURES / name) for name in TEXT + ["qutrit_embedded.json"]}
    out = []
    for f in TEXT:
        for method in ["auto", "spectral", "dense", "contour"]:
            for beta in BETAS:
                for fmt in ["pauli-text", "pauli-json"]:
                    out.append(["exp", "-i", fix[f], "--method", method, *beta, "--format", fmt])
    for f in fix.values():
        for alphabet in ["digits", "letters"]:
            for fmt in ["pauli-text", "pauli-json"]:
                for command in ["exp", "gibbs"]:
                    out.append([command, "-i", f, "--beta", "0.5", "--format", fmt,
                                "--alphabet", alphabet])
            for fmt in ["text", "json"]:
                out.append(["closure", "-i", f, "--format", fmt, "--alphabet", alphabet])
                out.append(["partition", "-i", f, "--betas", "0.1,1,5", "--gibbs", "--format", fmt,
                            "--alphabet", alphabet])
    for f in ["h2.txt", "rho_s_n3.txt", "qutrit_pauli.txt"]:
        for fmt in ["dense-json", "dense-bin"]:
            out.append(["exp", "-i", fix[f], "--beta", "0.3+0.2i", "--format", fmt])
    rng = np.random.default_rng(5)
    for n in [1, 2, 3]:
        a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        for name, m in [(f"herm{n}", a + a.conj().T), (f"gen{n}", a)]:
            (tmp / name).write_bytes(dense.dense_to_bytes(m) if n == 2
                                     else dense.dense_to_json(m).encode())
            out += [["decompose", "-i", str(tmp / name), "--format", fmt] for fmt in ["text", "json"]]
    for name, data in BAD_DENSE.items():
        (tmp / name).write_bytes(data if isinstance(data, bytes) else data.encode())
        out.append(["decompose", "-i", str(tmp / name)])
    (tmp / "n_true.json").write_text('{"n": true, "terms": [{"coeff": 1, "pauli": "X"}]}')
    out.append(["exp", "-i", str(tmp / "n_true.json"), "--beta", "0.5"])
    out += [["decompose", "-i", fix["qutrit_embedded.json"], "--format", fmt, "--alphabet", a]
            for fmt in ["text", "json"] for a in ["digits", "letters"]]
    out += [["partition", "-i", fix["h2.txt"], "--betas", "0.1,1,5", "--symmetry-check",
             fix["h2_mirror.txt"], "--format", fmt] for fmt in ["text", "json"]]
    out += [["partition", "-i", fix["h2.txt"], "--betas", "0.1,1,5", "--gibbs",
             "--symmetry-check", fix["h2_mirror.txt"], "--format", "json", "--alphabet", a]
            for a in ["digits", "letters"]]
    out += [["verify", "-i", fix[f], "--method", method, "--beta", "0.7"]
            for f in ["h1.txt", "h2.txt", "rho_s_n3.txt", "qutrit_pauli.txt"]
            for method in ["auto", "sector", "spectral", "contour"]]
    for argv in (["exp", "--beta", "nan"], ["exp", "--time", "inf"], ["exp", "--beta", "1000"],
                 ["exp", "--beta", "500", "--method", "spectral"],
                 ["exp", "--beta", "1000", "--method", "dense"],
                 ["exp", "--beta", "1000", "--method", "contour"],
                 ["exp", "--beta", "300", "--method", "contour"],
                 ["exp", "--beta", "1", "--method", "contour", "--nodes", "0"],
                 ["exp", "--beta", "1", "--nodes", "8"],
                 ["exp", "--beta", "1", "--method", "sector", "--center", "40", "--radius", "0.5"],
                 ["exp", "--beta", "1", "--method", "dense", "--center", "0", "--radius", "1"],
                 ["gibbs", "--beta", "1000"], ["partition", "--betas", "1,10,100,1000"],
                 ["gibbs", "--beta", "inf"], ["gibbs", "--beta", "1e308"],
                 ["partition", "--betas", "1e308", "--gibbs"],
                 ["verify", "--beta", "1", "--tolerance", "nan"]):
        out.append([argv[0], "-i", fix["h1.txt"], *argv[1:]])
    out += [["exp", "-i", fix["h2.txt"], "--beta", "1", "--method", "dense", "--zero-tol", "nan"],
            ["exp", "-i", fix["h2.txt"], "--beta", "1e308", "--method", "spectral"],
            ["decompose", "-i", fix["qutrit_embedded.json"], "--zero-tol", "nan"]]
    out += [["exp", "-i", fix["h2.txt"], "--time", "1e308", "--method", m]
            for m in ["auto", "spectral", "dense", "contour"]]
    out += [["exp", "-i", fix["h2.txt"], "--beta", "1", "--zero-tol", "0.5", "--method", m]
            for m in ["auto", "sector", "spectral", "anticommute", "contour", "dense"]]
    out += [["exp", "-i", fix["h2.txt"], "--beta", "1", "--dense-cap", cap, "--format", fmt]
            for cap, fmt in [("1", "pauli-text"), ("4", "dense-json")]]
    # 10**18 nodes need an array past any address space, whose allocation fails at once
    out.append(["exp", "-i", fix["h2.txt"], "--beta", "1", "--method", "contour", "--nodes",
                "1000000000000000000"])
    out.append(["exp", "-i", fix["h1.txt"], "--beta", "0.5", "--method", "contour", "--nodes",
                "16", "--center", "-2.267949192431023", "--radius", "4"])
    out += [["exp", "-i", fix["h1.txt"], "--beta=-409.6", "--method", "dense", "--format", fmt]
            for fmt in ["pauli-text", "dense-json"]]
    near_limit = np.zeros((8, 8))
    near_limit[0, 0] = near_limit[1, 1] = 1.5e308
    (tmp / "near_limit.json").write_text(dense.dense_to_json(near_limit))
    out.append(["decompose", "-i", str(tmp / "near_limit.json")])
    # anti-Hermitian, so m - m^dagger overflows though every coefficient fits
    a = 1.7e308
    for name, m in [("anti_y.json", [[0, a], [-a, 0]]),
                    ("anti_xy.json", [[0, a + a * 1j], [-a + a * 1j, 0]])]:
        (tmp / name).write_text(dense.dense_to_json(np.array(m)))
        out += [["decompose", "-i", str(tmp / name), "--format", fmt] for fmt in ["text", "json"]]
    out += [["exp", "-i", fix["h2.txt"], "--beta", "1e308+1e308i", "--method", m]
            for m in ["auto", "spectral"]]
    out += [["verify", "-i", fix["h2.txt"], "--beta", "1e308+1e308i", "--method", "sector"],
            ["exp", "-i", fix["h1.txt"], "--time", "1.7e308", "--method", "anticommute"],
            ["exp", "-i", fix["h1.txt"], "--beta", "1", "--closure-cap", "-1"],
            ["partition", "-i", fix["h2.txt"], "--betas", "1", "--closure-cap", "-1"],
            ["closure", "-i", fix["h2.txt"], "--closure-cap", "-1"]]
    for name, text in INPUTS.items():
        (tmp / name).write_text(text)
        out += [["exp", "-i", str(tmp / name), "--beta", "0.5"],
                ["closure", "-i", str(tmp / name), "--alphabet", "letters"]]
    for rank in range(4, 8):
        (tmp / f"closed_n32_r{rank}.txt").write_text(closed_n32(rank))
        for argv in (["exp", "--time", "0.7"], ["exp", "--beta", "0.5", "--format", "pauli-json"],
                     ["partition", "--betas", "0.1,1,5", "--gibbs", "--format", "json"]):
            out.append([argv[0], "-i", str(tmp / f"closed_n32_r{rank}.txt"), *argv[1:]])
    (tmp / "majorana_7.txt").write_text(MAJORANA_7)
    out += [["verify", "-i", str(tmp / "majorana_7.txt"), "--method", method, "--beta", "0.7"]
            for method in ["auto", "anticommute"]]
    for name, label in [("pauli_123.json", "123"), ("pauli_null.json", "null")]:
        (tmp / name).write_text('{"n": 3, "terms": [{"coeff": 1, "pauli": ' + label
                                + '}, {"coeff": 0.5, "pauli": "XXX"}]}')
        out.append(["exp", "-i", str(tmp / name), "--beta", "1"])
    out += [["exp", "-i", fix["h1.txt"], "--beta", "1", "--method", "contour", "--center", c,
             "--radius", "3"] for c in ["nan", "abc"]]
    h2 = fix["h2.txt"]
    with_file = [*(["exp", "-i", h2, "--beta", "0.3+0.2i", "--format", fmt]
                   for fmt in ["pauli-text", "pauli-json", "dense-json", "dense-bin"]),
                 ["verify", "-i", h2, "--beta", "0.7", "--tolerance", "0"],
                 ["partition", "-i", h2, "--betas", "0.1,1,5", "--gibbs"],
                 ["gibbs", "-i", h2, "--beta", "0.5", "--format", "pauli-json"],
                 ["decompose", "-i", fix["qutrit_embedded.json"]],
                 ["closure", "-i", h2, "--format", "json"]]
    out += [[*argv, "-o", str(tmp / f"out_{k}")] for k, argv in enumerate(with_file)]
    return out


def call(cli, argv: list[str]) -> list:
    """[exit code, stdout, stderr] of one in-process cli.main call, and with
    `-o` the file it wrote (None if it wrote none)."""
    stdout, stderr = io.BytesIO(), io.StringIO()
    wrapper = io.TextIOWrapper(stdout, encoding="utf-8", write_through=True)
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = wrapper, stderr
    try:
        code = cli.main(argv)
    except Exception as exc:  # a crash is a result to compare, not a reason to stop
        code = f"raised {type(exc).__name__}: {exc}"
    finally:
        wrapper.flush()
        wrapper.detach()
        sys.stdout, sys.stderr = saved
    result = [code, stdout.getvalue().decode("latin-1"), stderr.getvalue()]
    if "-o" in argv:
        path = Path(argv[argv.index("-o") + 1])
        result.append(path.read_bytes().decode("latin-1") if path.exists() else None)
    return result


def run(src: str, out_path: str) -> None:
    sys.path.insert(0, src)
    from pauliexp import cli, dense

    results = {}
    with tempfile.TemporaryDirectory(prefix="pauliexp-sweep-") as name:
        tmp = Path(name)
        for argv in cases(tmp, dense):
            results[" ".join(argv).replace(str(tmp), "TMP").replace(str(FIXTURES), "FIXTURES")] = [
                field.replace(str(tmp), "TMP") if isinstance(field, str) else field
                for field in call(cli, argv)]
    Path(out_path).write_text(json.dumps(results, indent=0))
    print(f"{len(results)} cases")


LABEL = re.compile(r"[0-3]+|[IXYZ]+")


def _number(token: str):
    """token as a float, or as a complex written `a+bi`; None if neither."""
    try:
        return float(token)
    except ValueError:
        pass
    try:
        return complex(token[:-1] + "j") if token.endswith("i") else None
    except ValueError:
        return None


def _leaves(doc, path: str, out: list) -> None:
    """(path, value, is_coefficient) of every leaf of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            _leaves(value, f"{path}.{key}", out)
    elif isinstance(doc, list):
        for value in doc:
            _leaves(value, f"{path}[]", out)
    else:
        is_number = isinstance(doc, (int, float)) and not isinstance(doc, bool)
        out.append((path if is_number else (path, doc), doc if is_number else None,
                    path.endswith(("coeffs[].re", "coeffs[].im"))))


def _fields(stdout: str) -> list:
    """(skeleton, number or None, is_coefficient) of each field of an output:
    the leaves of a JSON document, or the whitespace-separated tokens of a
    text, `key=value` split at the `=`. In a text, the last two numbers of
    a line whose third-last token is a Pauli label are a coefficient."""
    try:
        out = []
        _leaves(json.loads(stdout), "", out)
        return out
    except ValueError:
        pass
    out = []
    for line in stdout.splitlines():
        tokens = line.split()
        coeff = (len(tokens) >= 3 and LABEL.fullmatch(tokens[-3]) is not None
                 and None not in map(_number, tokens[-2:]))
        for i, token in enumerate(tokens):
            key, _, value = token.rpartition("=")
            number = None if coeff and i == len(tokens) - 3 else _number(value)
            out.append((key if number is not None else token, number,
                        coeff and i >= len(tokens) - 2))
        out.append(("\n", None, False))
    return out


def numeric_change(before: str, after: str) -> float | None:
    """Largest |after - before| over the numbers of two outputs, relative to
    the largest coefficient of `before` (its largest number when it holds
    none); None when the outputs differ in more than their numbers."""
    a, b = _fields(before), _fields(after)
    if len(a) != len(b) or any(x[0] != y[0] or (x[1] is None) != (y[1] is None)
                               for x, y in zip(a, b)):
        return None
    numbers = [(x[1], y[1], x[2]) for x, y in zip(a, b) if x[1] is not None]
    if not numbers:
        return 0.0
    scale = max((abs(x) for x, _, coeff in numbers if coeff), default=0.0) or max(
        abs(x) for x, _, _ in numbers) or 1.0
    return max(abs(y - x) for x, y, _ in numbers) / scale


def diff(before_path: str, after_path: str) -> None:
    before, after = (json.loads(Path(p).read_text()) for p in (before_path, after_path))
    if before.keys() != after.keys():
        sys.exit("the two files hold different cases")
    changed = [k for k in before if before[k] != after[k]]
    for k in changed:
        print(f"{k}\n  before: {before[k][0]} {before[k][2].strip()}\n  after:  {after[k][0]} "
              f"{after[k][2].strip()}{'  (stdout differs)' if before[k][1] != after[k][1] else ''}"
              f"{'  (file differs)' if before[k][3:] != after[k][3:] else ''}")
    print(f"{len(before)} cases, {len(before) - len(changed)} identical, {len(changed)} differ")
    same_run = [k for k in changed if before[k][0] == after[k][0] and before[k][2:] == after[k][2:]]
    changes = {k: numeric_change(before[k][1], after[k][1]) for k in same_run}
    worst = max((k for k in changes if changes[k] is not None), key=changes.get, default=None)
    print(f"{len(same_run)} differ in stdout only; "
          f"{sum(c is None for c in changes.values())} of them in more than numbers; "
          f"largest numeric change relative to the case's largest coefficient: "
          + ("none" if worst is None else f"{changes[worst]:.3g} ({worst})"))


if __name__ == "__main__":
    {"run": run, "diff": diff}[sys.argv[1]](*sys.argv[2:])
