"""Command-line front end.

Subcommands: exp, partition, gibbs, verify, decompose, closure. `main` alone
parses argv, reads `-i`, and writes what the subcommand returns to `-o` or stdout.
Exit codes: 0 success, 3 a failed verify; an error, argparse's included, exits by
the first row of `EXIT_TABLE` it matches, with one stderr line naming the stage.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .dense import (
    DENSE_CAP_DEFAULT,
    compare,
    dense_oracle,
    dense_to_bytes,
    dense_to_json,
    pauli_decompose,
    read_dense,
    reconstruct_dense,
)
from .engine import Reduced, exp_contour, exp_pauli, exp_with_method
from .errors import ClosureExplosion, ContourError, FormatError, SingularSystem
from .hamiltonian import (
    DEFAULT_CLOSURE_CAP,
    PauliExpansion,
    SparseHamiltonian,
    checked_exponents,
    close,
    coeff_lines,
    coeffs_json,
    format_complex,
    format_expansion_text,
    format_hamiltonian_text,
    gf2_basis,
    hamiltonian_to_dict,
    load_hamiltonian,
)
from .pauli import format_codes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CLOSURE = 2
EXIT_NUMERICAL = 3

EXIT_TABLE = (  # (exception types, stage, exit code); main reports an error by its first row
    ((FormatError,), "input", EXIT_USAGE),
    ((ClosureExplosion,), "closure", EXIT_CLOSURE),
    # LinAlgError subclasses ValueError, so its row must come ahead of ValueError's
    ((SingularSystem, ContourError, OverflowError, FloatingPointError, np.linalg.LinAlgError),
     "numerical", EXIT_NUMERICAL),
    ((ValueError, MemoryError), "config", EXIT_USAGE),
    ((OSError,), "io", EXIT_USAGE),
)

_G = "%.17g"


def parse_beta(text: str, name: str = "beta") -> complex:
    """Accepts "1.5", "1.5+0.3i", "i", "-2i" (j works too); errors call it `name`."""
    s = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        b = complex(s)
    except ValueError:
        raise FormatError(f"cannot parse {name} {text!r}") from None
    if not (math.isfinite(b.real) and math.isfinite(b.imag)):
        raise FormatError(f"{name} must be finite, got {text!r}")
    return b


def _finite(x: float, flag: str) -> float:
    if not math.isfinite(x):
        raise FormatError(f"{flag} must be finite, got {x!r}")
    return x


def _check_nonnegative(x: float, flag: str):
    if _finite(x, flag) < 0:
        raise FormatError(f"{flag} must be at least 0, got {x!r}")


def _beta_from_args(args) -> complex:
    if args.time is not None:
        return 1j * _finite(args.time, "--time")
    return parse_beta(args.beta)


def _json_text(doc: dict, coeff_lists) -> str:
    """json.dumps(doc) and a newline, with each `"coeffs": null` in it, in
    order, holding the JSON text of the next coefficient list instead. No
    other text can match: json escapes every quote inside a string."""
    pieces = json.dumps(doc).split('"coeffs": null')
    return "".join(p + '"coeffs": ' + c for p, c in zip(pieces, coeff_lists)) + pieces[-1] + "\n"


def _expansion_coeffs(e: PauliExpansion, alphabet: str) -> str:
    return coeffs_json(format_codes(e.n, e.codes, alphabet), e.values)


def _as_expansion(obj) -> PauliExpansion:
    if isinstance(obj, PauliExpansion):
        return obj
    return PauliExpansion(obj.n, np.append(np.uint64(0), obj.codes),
                          np.append(obj.identity_offset, obj.values))


def cmd_exp(args, h: SparseHamiltonian) -> tuple[str | bytes, int]:
    beta = _beta_from_args(args)
    if args.zero_tol is not None:
        _check_nonnegative(args.zero_tol, "--zero-tol")
    center = parse_beta(args.center, "--center") if args.center is not None else None
    if (center is None) != (args.radius is None):
        raise FormatError("--center and --radius must be given together")
    if args.method != "contour" and (center is not None or args.nodes is not None):
        raise FormatError("--nodes, --center and --radius apply only to --method contour")
    if args.method != "dense" and args.zero_tol is not None:
        raise FormatError("--zero-tol applies only to --method dense")
    if args.method != "dense" and args.dense_cap is not None and "dense" not in args.format:
        raise FormatError("--dense-cap applies only to --method dense and the dense formats")
    dense_cap = DENSE_CAP_DEFAULT if args.dense_cap is None else args.dense_cap
    method = args.method
    if method == "dense":
        m = dense_oracle(h, beta, dense_cap)
        e = _as_expansion(pauli_decompose(m, 1e-12 if args.zero_tol is None else args.zero_tol))
    elif method == "contour":
        e = exp_contour(h, beta, args.closure_cap, args.nodes, center, args.radius)
    else:
        e, method = exp_with_method(h, beta, args.method, args.closure_cap)
    if args.format == "pauli-text":
        return format_expansion_text(e, method, beta, args.alphabet), EXIT_OK
    if args.format == "pauli-json":
        doc = {"n": e.n, "beta": {"re": beta.real, "im": beta.imag}, "coeffs": None,
               "method": method}
        return _json_text(doc, [_expansion_coeffs(e, args.alphabet)]), EXIT_OK
    if args.format == "dense-json":
        return dense_to_json(reconstruct_dense(e, dense_cap)) + "\n", EXIT_OK
    return dense_to_bytes(reconstruct_dense(e, dense_cap)), EXIT_OK


def cmd_partition(args, h: SparseHamiltonian) -> tuple[str, int]:
    try:
        betas = [_finite(float(tok), "--betas entry") for tok in args.betas.split(",")]
    except ValueError:
        raise FormatError(f"cannot parse --betas {args.betas!r}") from None
    reduced, grid = Reduced(h, args.closure_cap), np.array(betas)
    log_z = reduced.log_partition(grid).real
    with np.errstate(divide="ignore", over="ignore"):  # no free energy at beta 0; log 0 is -inf
        free = np.where(grid == 0.0, 0.0, -log_z / grid)
        checked_exponents(grid, log_z, "z_trace")
        checked_exponents(grid, np.log(np.abs(free)), "free energy -log z_trace / beta")
    rows = [{"beta": beta, "z_normalized": math.exp(lz) / 2**h.n, "z_trace": math.exp(lz),
             "free_energy": None if beta == 0.0 else f}
            for beta, lz, f in zip(betas, log_z.tolist(), free.tolist())]
    if args.gibbs:
        labels = format_codes(h.n, reduced.codes, args.alphabet)
        gibbs = reduced.gibbs_many(betas)
    symmetry = None
    if args.symmetry_check:
        other = Reduced(load_hamiltonian(args.symmetry_check), args.closure_cap)
        # |Z - Z'| / max(Z, Z') = 1 - exp(-|log Z - log Z'|), which cannot overflow
        symmetry = max(-math.expm1(-abs(a - b))
                       for a, b in zip(log_z, other.log_partition(betas).real.tolist()))
    if args.format == "json":
        for row in rows if args.gibbs else []:
            row["gibbs"] = {"n": h.n, "coeffs": None}
        doc = {"rows": rows}
        if symmetry is not None:
            doc["symmetry_max_rel_diff"] = symmetry
        return _json_text(doc, coeffs_json(labels, gibbs) if args.gibbs else []), EXIT_OK
    lines = ["beta z_normalized z_trace free_energy"]
    for k, row in enumerate(rows):
        fe = "n/a" if row["free_energy"] is None else _G % row["free_energy"]
        lines.append(f"{row['beta']:.17g} {row['z_normalized']:.17g} "
                     f"{row['z_trace']:.17g} {fe}")
        if args.gibbs:
            lines += coeff_lines(labels, gibbs[k].tolist(), f"gibbs {row['beta']:.17g} ")
    if symmetry is not None:
        verdict = "OK" if symmetry <= 1e-10 else "VIOLATED"
        lines.append(f"symmetry {verdict} max_rel_diff {symmetry:.17g}")
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_gibbs(args, h: SparseHamiltonian) -> tuple[str, int]:
    beta = _finite(args.beta, "--beta")
    g = Reduced(h, args.closure_cap).gibbs(beta)
    if args.format == "pauli-json":
        doc = {"n": g.n, "coeffs": None, "beta": {"re": beta, "im": 0.0}}
        return _json_text(doc, [_expansion_coeffs(g, args.alphabet)]), EXIT_OK
    return format_expansion_text(g, "gibbs", beta, args.alphabet), EXIT_OK


def cmd_verify(args, h: SparseHamiltonian) -> tuple[str, int]:
    beta = _beta_from_args(args)
    _check_nonnegative(args.tolerance, "--tolerance")
    # from the GF(2) rank alone: each method enforces its own cap
    tau = 2 ** gf2_basis(h.codes).size - 1
    e = exp_pauli(h, beta, method=args.method, cap=args.closure_cap)
    approx = reconstruct_dense(e, args.dense_cap)
    exact = dense_oracle(h, beta, args.dense_cap)
    res = compare(approx, exact)
    ok = res.max_abs <= args.tolerance
    verdict = "PASS" if ok else "FAIL"
    return (f"{verdict} n={h.n} tau={tau} method={args.method} "
            f"beta={format_complex(beta)} max_abs={res.max_abs:.17g} "
            f"frobenius={res.frobenius:.17g} tol={args.tolerance:.17g}\n",
            EXIT_OK if ok else EXIT_NUMERICAL)


def cmd_decompose(args, m: np.ndarray) -> tuple[str, int]:
    _check_nonnegative(args.zero_tol, "--zero-tol")
    obj = pauli_decompose(m, zero_tol=args.zero_tol)
    if args.format == "json" and isinstance(obj, SparseHamiltonian):
        return json.dumps(hamiltonian_to_dict(obj, args.alphabet)) + "\n", EXIT_OK
    if args.format == "json":
        return _json_text({"n": obj.n, "coeffs": None},
                          [_expansion_coeffs(obj, args.alphabet)]), EXIT_OK
    if isinstance(obj, SparseHamiltonian):
        return format_hamiltonian_text(obj, args.alphabet), EXIT_OK
    return format_expansion_text(obj, "decompose", alphabet=args.alphabet), EXIT_OK


def cmd_closure(args, h: SparseHamiltonian) -> tuple[str, int]:
    labels = format_codes(h.n, close(h, args.closure_cap), args.alphabet)
    if args.format == "json":
        return json.dumps({"n": h.n, "tau": len(labels), "codes": labels}) + "\n", EXIT_OK
    return "\n".join([f"n {h.n}", f"tau {len(labels)}", *labels]) + "\n", EXIT_OK


def _add_common(p, alphabet=True):
    p.add_argument("-i", "--input", required=True, help="Hamiltonian file (text or JSON)")
    p.add_argument("-o", "--output", help="write result here instead of stdout")
    p.add_argument("--closure-cap", type=int, default=DEFAULT_CLOSURE_CAP,
                   help="abort if the closed set grows past this (default %(default)s)")
    if alphabet:
        p.add_argument("--alphabet", choices=("digits", "letters"), default="digits",
                       help="render Pauli strings as 0123 digits or IXYZ letters")


def _add_beta(p):
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--beta", help='inverse temperature, e.g. "1.5", "0.5+0.2i", "i"')
    grp.add_argument("--time", type=float, help="real time t, shorthand for beta = i t")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise FormatError(message)


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argparse tree and its subcommand parsers by name, built on the
    first main() call of a process."""
    parser = _Parser(
        prog="pauliexp",
        description="exp(-beta H) for sparse Pauli-basis Hamiltonians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exp", help="compute exp(-beta H) as a Pauli expansion")
    _add_common(p)
    _add_beta(p)
    p.add_argument("--method", default="auto",
                   choices=("auto", "sector", "spectral", "contour", "anticommute", "dense"))
    p.add_argument("--format", choices=("pauli-json", "pauli-text", "dense-json", "dense-bin"),
                   default="pauli-text")
    p.add_argument("--nodes", type=int, default=None, help="contour quadrature nodes")
    p.add_argument("--center", default=None, help="contour center (complex)")
    p.add_argument("--radius", type=float, default=None, help="contour radius")
    p.add_argument("--dense-cap", type=int, default=None)
    p.add_argument("--zero-tol", type=float, default=None)
    p.set_defaults(func=cmd_exp)

    p = sub.add_parser("partition", help="partition function over a real beta grid")
    _add_common(p)
    p.add_argument("--betas", required=True,
                   help='comma-separated real betas, e.g. "0.1,1,5"; a list that starts '
                        'with a negative beta needs the = form: --betas=-0.5,1')
    p.add_argument("--gibbs", action="store_true", help="also emit Gibbs coefficients per beta")
    p.add_argument("--symmetry-check", metavar="PATH",
                   help="second Hamiltonian file; report whether Z matches the input's")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("gibbs", help="Gibbs state expansion exp(-beta H)/Z")
    _add_common(p)
    p.add_argument("--beta", type=float, required=True, help="real inverse temperature")
    p.add_argument("--format", choices=("pauli-json", "pauli-text"), default="pauli-text")
    p.set_defaults(func=cmd_gibbs)

    p = sub.add_parser("verify", help="compare a sparse path against the dense oracle")
    _add_common(p, alphabet=False)
    _add_beta(p)
    p.add_argument("--method", default="spectral",
                   choices=("auto", "sector", "spectral", "contour", "anticommute"))
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--dense-cap", type=int, default=DENSE_CAP_DEFAULT)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="dense matrix file -> Pauli terms")
    p.add_argument("-i", "--input", required=True, help="dense matrix (.json or PEXP binary)")
    p.add_argument("-o", "--output")
    p.add_argument("--zero-tol", type=float, default=1e-12)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--alphabet", choices=("digits", "letters"), default="digits")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("closure", help="report the closed term set and tau")
    _add_common(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_closure)

    return parser, sub.choices


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        parser, commands = build_parser()
        # a subcommand's own parser reads its arguments in one pass; the
        # top-level parser answers -h and a missing or unknown subcommand
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:
            args = parser.parse_args(argv)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _check_nonnegative(getattr(args, "closure_cap", 0), "--closure-cap")  # decompose has none
            h = (read_dense if args.command == "decompose" else load_hamiltonian)(args.input)
            output, code = args.func(args, h)
            if args.output:
                with open(args.output, "wb") as fh:
                    fh.write(output if isinstance(output, bytes) else output.encode("utf-8"))
            elif isinstance(output, bytes):
                sys.stdout.buffer.write(output)
            else:
                sys.stdout.write(output)
            return code
    except SystemExit:  # -h/--help; every argparse rejection raises FormatError instead
        return EXIT_OK
    except Exception as exc:
        for types, stage, code in EXIT_TABLE:
            if isinstance(exc, types):
                print(f"pauliexp: {stage} error: {exc}", file=sys.stderr)
                return code
        raise


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
