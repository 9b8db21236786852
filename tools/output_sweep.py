"""In-process CLI output sweep, to check that a change keeps every output.

    python -W error tools/output_sweep.py run SRC_DIR OUT.json
    python tools/output_sweep.py diff BEFORE.json AFTER.json

`run` imports pauliexp from SRC_DIR (the `src` directory of one checkout),
calls `pauliexp.cli.main` on each case with stdout and stderr captured, and
writes {case: [exit code, stdout, stderr]}; a case that writes with `-o`
also records the file it wrote, as a fourth field. `diff` lists the cases
that only one file holds, as added or removed, prints every shared case
whose exit code, stdout, stderr or file differs, then one summary line:
over the cases that differ in stdout only, the largest change of a number
relative to the case's largest coefficient (read from JSON documents and
from `label re im` lines), or how many differ in more than numbers.

The cases are every row of this checkout's CLI case table, tests/cli_cases.py,
which tests/test_cli.py asserts as the exit-code contract, and the sweep's
own output-only products: every text fixture x `exp --method
auto|spectral|dense|contour` x four betas x two formats; `exp`, `gibbs`,
`closure` and `partition --gibbs` on all fixtures in both formats and
alphabets; dense output formats; `decompose` of random matrices; `exp` and
`closure` on every Hamiltonian file of the table; closed sets of rank 4-7
on 32 qubits, with codes of 2**63 and above, under `exp --time`, `exp
--beta` and `partition --gibbs`; the open numeric defects of DEFECT_ARGV;
and one `-o` case per subcommand, a failing `verify` among them.
"""

import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

# the case table of this checkout, next to the tool, never SRC_DIR's
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from cli_cases import (CASES, FIXTURES, HAMILTONIANS, dense_json, dense_pexp,  # noqa: E402
                       resolve, rows, write_files)

TEXT = ["h1.txt", "h2.txt", "h2_mirror.txt", "qutrit_pauli.txt", "rho_s_n3.txt", "xy_n6.txt"]
BETAS = [["--beta", "1"], ["--time", "0.7"], ["--beta", "0.3+0.2i"], ["--beta=-2"]]
# open numeric defects, recorded here and not as rows so that no test asserts
# a wrong answer, while a change that mends one shows in the diff
DEFECT_ARGV = [
    *(f"exp -i FIXTURES/h1.txt --method contour --beta {beta}" for beta in ("10", "30")),
    *(f"{command} -i FIXTURES/xy_n6.txt --time 5 --method contour"
      for command in ("exp", "verify")),
    *(f"exp -i FIXTURES/h2.txt --time 1e15 --method {m}" for m in ("auto", "spectral", "dense")),
]


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


def cases(tmp: Path) -> list[list[str]]:
    """The table's rows, then the sweep's own products, each argv once."""
    write_files(tmp)
    fix = {name: str(FIXTURES / name) for name in TEXT + ["qutrit_embedded.json"]}
    out = [resolve(row[0], tmp) for row in rows()]
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
            (tmp / name).write_bytes(dense_pexp(m) if n == 2 else dense_json(m).encode())
            out += [["decompose", "-i", str(tmp / name), "--format", fmt] for fmt in ["text", "json"]]
    for name in HAMILTONIANS:
        out += [["exp", "-i", str(tmp / name), "--beta", "0.5"],
                ["closure", "-i", str(tmp / name), "--alphabet", "letters"]]
    for rank in range(4, 8):
        (tmp / f"closed_n32_r{rank}.txt").write_text(closed_n32(rank))
        for argv in (["exp", "--time", "0.7"], ["exp", "--beta", "0.5", "--format", "pauli-json"],
                     ["partition", "--betas", "0.1,1,5", "--gibbs", "--format", "json"]):
            out.append([argv[0], "-i", str(tmp / f"closed_n32_r{rank}.txt"), *argv[1:]])
    out += [resolve(argv, tmp) for argv in DEFECT_ARGV]
    h2 = fix["h2.txt"]
    with_file = [*(resolve(row[0], tmp)
                   for row in CASES["TestExp::test_output_file_holds_stdout_bytes"].values()),
                 ["verify", "-i", h2, "--beta", "0.7", "--tolerance", "0"],
                 ["partition", "-i", h2, "--betas", "0.1,1,5", "--gibbs"],
                 ["gibbs", "-i", h2, "--beta", "0.5", "--format", "pauli-json"],
                 ["decompose", "-i", fix["qutrit_embedded.json"]],
                 ["closure", "-i", h2, "--format", "json"]]
    out += [[*argv, "-o", str(tmp / f"out_{k}")] for k, argv in enumerate(with_file)]
    return [list(argv) for argv in dict.fromkeys(map(tuple, out))]


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
    from pauliexp import cli

    results = {}
    with tempfile.TemporaryDirectory(prefix="pauliexp-sweep-") as name:
        tmp = Path(name)
        for argv in cases(tmp):
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
    for label, these, others in (("removed", before, after), ("added", after, before)):
        for k in sorted(these.keys() - others.keys()):
            print(f"{label}: {k}")
    shared = [k for k in before if k in after]
    changed = [k for k in shared if before[k] != after[k]]
    for k in changed:
        print(f"{k}\n  before: {before[k][0]} {before[k][2].strip()}\n  after:  {after[k][0]} "
              f"{after[k][2].strip()}{'  (stdout differs)' if before[k][1] != after[k][1] else ''}"
              f"{'  (file differs)' if before[k][3:] != after[k][3:] else ''}")
    print(f"{len(shared)} shared cases, {len(shared) - len(changed)} identical, "
          f"{len(changed)} differ; {len(after) - len(shared)} added, "
          f"{len(before) - len(shared)} removed")
    same_run = [k for k in changed if before[k][0] == after[k][0] and before[k][2:] == after[k][2:]]
    changes = {k: numeric_change(before[k][1], after[k][1]) for k in same_run}
    worst = max((k for k in changes if changes[k] is not None), key=changes.get, default=None)
    print(f"{len(same_run)} differ in stdout only; "
          f"{sum(c is None for c in changes.values())} of them in more than numbers; "
          f"largest numeric change relative to the case's largest coefficient: "
          + ("none" if worst is None else f"{changes[worst]:.3g} ({worst})"))


if __name__ == "__main__":
    {"run": run, "diff": diff}[sys.argv[1]](*sys.argv[2:])
