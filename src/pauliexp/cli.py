"""Command-line front end.

Subcommands: exp, partition, gibbs, verify, bench, decompose, closure.
Exit codes: 0 success, 1 parse/config error, 2 closure explosion,
3 numerical failure (including a failed verify and a result that does not
fit in float64). Error messages name the failing stage on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .dense import (
    DENSE_CAP_DEFAULT,
    compare,
    dense_exp,
    dense_to_bytes,
    dense_to_json,
    read_dense,
    reconstruct_dense,
)
from .engine import DEFAULT_NODES, ContourSpec, Reduced, exp_pauli, exp_spectral, exp_with_method
from .errors import ClosureExplosion, ContourError, FormatError, SingularSystem
from .hamiltonian import (
    DEFAULT_CLOSURE_CAP,
    PauliExpansion,
    SparseHamiltonian,
    close,
    close_codes,
    coeff_entries,
    coeff_lines,
    expansion_to_dict,
    format_complex,
    format_expansion_text,
    format_hamiltonian_text,
    hamiltonian_to_dict,
    load_hamiltonian,
    pauli_decompose,
    random_closed_hamiltonian,
)
from .pauli import format_codes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CLOSURE = 2
EXIT_NUMERICAL = 3

_G = "%.17g"


def parse_beta(text: str) -> complex:
    """Accepts "1.5", "1.5+0.3i", "i", "-2i" (j works too)."""
    s = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        b = complex(s)
    except ValueError:
        raise FormatError(f"cannot parse beta {text!r}") from None
    if not (math.isfinite(b.real) and math.isfinite(b.imag)):
        raise FormatError(f"beta must be finite, got {text!r}")
    return b


def _finite(x: float, flag: str) -> float:
    if not math.isfinite(x):
        raise FormatError(f"{flag} must be finite, got {x!r}")
    return x


def _beta_from_args(args) -> complex:
    if args.time is not None:
        return 1j * _finite(args.time, "--time")
    return parse_beta(args.beta)


def _emit_text(args, text: str):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_bytes(args, blob: bytes):
    if getattr(args, "output", None):
        with open(args.output, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)


def _as_expansion(obj) -> PauliExpansion:
    if isinstance(obj, PauliExpansion):
        return obj
    coeffs: dict[int, complex] = {0: complex(obj.identity_offset)}
    coeffs.update({k: complex(v) for k, v in obj.terms.items()})
    return PauliExpansion(obj.n, coeffs)


def cmd_exp(args) -> int:
    beta = _beta_from_args(args)
    center = parse_beta(args.center) if args.center is not None else None
    h = load_hamiltonian(args.input)
    if args.method == "dense":
        m = dense_exp(reconstruct_dense(h, args.dense_cap), beta)
        e = _as_expansion(pauli_decompose(m, zero_tol=args.zero_tol))
        method = "dense"
    else:
        contour = None
        if (center is None) != (args.radius is None):
            raise FormatError("--center and --radius must be given together")
        if center is not None:
            contour = ContourSpec(center, args.radius, args.nodes or DEFAULT_NODES)
        e, method = exp_with_method(h, beta, args.method, args.closure_cap,
                                    contour=contour, nodes=args.nodes)
    if args.format == "pauli-text":
        _emit_text(args, format_expansion_text(e, method, beta, args.alphabet))
    elif args.format == "pauli-json":
        doc = expansion_to_dict(e, beta, args.alphabet)
        doc["method"] = method
        _emit_text(args, json.dumps(doc) + "\n")
    elif args.format == "dense-json":
        _emit_text(args, dense_to_json(reconstruct_dense(e, args.dense_cap)) + "\n")
    elif args.format == "dense-bin":
        _emit_bytes(args, dense_to_bytes(reconstruct_dense(e, args.dense_cap)))
    else:
        raise FormatError(f"unknown format {args.format!r}")
    return EXIT_OK


def cmd_partition(args) -> int:
    h = load_hamiltonian(args.input)
    try:
        betas = [_finite(float(tok), "--betas entry")
                 for tok in args.betas.split(",") if tok.strip()]
    except ValueError:
        raise FormatError(f"cannot parse --betas {args.betas!r}") from None
    if not betas:
        raise FormatError("--betas is empty")
    reduced = Reduced(h, args.closure_cap)
    log_z = reduced.log_partition(betas).real.tolist()
    rows = []
    for beta, lz in zip(betas, log_z):
        try:
            z_trace = math.exp(lz)
        except OverflowError:
            raise OverflowError(
                f"z_trace at beta {beta!r} does not fit in float64 (log z_trace {lz!r})"
            ) from None
        free_energy = None if beta == 0.0 else -lz / beta
        rows.append({"beta": beta, "z_normalized": z_trace / 2**h.n, "z_trace": z_trace,
                     "free_energy": free_energy})
    if args.gibbs:
        labels = format_codes(h.n, reduced.codes, args.alphabet)
        gibbs = reduced.gibbs_many(betas).tolist()
    symmetry = None
    if args.symmetry_check:
        other = Reduced(load_hamiltonian(args.symmetry_check), args.closure_cap)
        # |Z - Z'| / max(Z, Z') = 1 - exp(-|log Z - log Z'|), which cannot overflow
        symmetry = max(-math.expm1(-abs(a - b))
                       for a, b in zip(log_z, other.log_partition(betas).real.tolist()))
    if args.format == "json":
        if args.gibbs:
            for row, coeffs in zip(rows, gibbs):
                row["gibbs"] = {"n": h.n, "coeffs": coeff_entries(labels, coeffs)}
        doc = {"rows": rows}
        if symmetry is not None:
            doc["symmetry_max_rel_diff"] = symmetry
        _emit_text(args, json.dumps(doc) + "\n")
    else:
        lines = ["beta z_normalized z_trace free_energy"]
        for k, row in enumerate(rows):
            fe = "n/a" if row["free_energy"] is None else _G % row["free_energy"]
            lines.append(
                f"{row['beta']:.17g} {row['z_normalized']:.17g} "
                f"{row['z_trace']:.17g} {fe}"
            )
            if args.gibbs:
                lines += coeff_lines(labels, gibbs[k], f"gibbs {row['beta']:.17g} ")
        if symmetry is not None:
            verdict = "OK" if symmetry <= 1e-10 else "VIOLATED"
            lines.append(f"symmetry {verdict} max_rel_diff {symmetry:.17g}")
        _emit_text(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_gibbs(args) -> int:
    beta = _finite(args.beta, "--beta")
    g = Reduced(load_hamiltonian(args.input), args.closure_cap).gibbs(beta)
    if args.format == "pauli-json":
        doc = expansion_to_dict(g, alphabet=args.alphabet)
        doc["beta"] = {"re": beta, "im": 0.0}
        _emit_text(args, json.dumps(doc) + "\n")
    else:
        _emit_text(args, format_expansion_text(g, "gibbs", beta, args.alphabet))
    return EXIT_OK


def cmd_verify(args) -> int:
    h = load_hamiltonian(args.input)
    beta = _beta_from_args(args)
    tau = close(h, args.closure_cap).tau
    e = exp_pauli(h, beta, method=args.method, cap=args.closure_cap)
    approx = reconstruct_dense(e, args.dense_cap)
    exact = dense_exp(reconstruct_dense(h, args.dense_cap), beta)
    res = compare(approx, exact)
    ok = res.max_abs <= args.tolerance
    verdict = "PASS" if ok else "FAIL"
    _emit_text(
        args,
        f"{verdict} n={h.n} tau={tau} method={args.method} "
        f"beta={format_complex(beta)} max_abs={res.max_abs:.17g} "
        f"frobenius={res.frobenius:.17g} tol={args.tolerance:.17g}\n",
    )
    return EXIT_OK if ok else EXIT_NUMERICAL


def _bench_pattern(n: int) -> SparseHamiltonian:
    """Three-generator pattern spanning all n qubits, closure size 7."""
    all_x = int("1" * n, 4)
    all_z = int("3" * n, 4)
    x_first = 1 << (2 * (n - 1))
    gens = [all_x, all_z, x_first]
    ts = close_codes(n, gens)
    rng = np.random.default_rng(7)
    values = rng.uniform(-1.0, 1.0, size=len(ts))
    return SparseHamiltonian(n, {int(c): float(v) for c, v in zip(ts.codes, values)})


def _time_call(fn, repeats: int, warmup: bool = True) -> float:
    if warmup:
        fn()
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def cmd_bench(args) -> int:
    beta = _finite(args.beta, "--beta")
    if args.repeats < 1:
        raise FormatError(f"--repeats must be at least 1, got {args.repeats}")
    rows: list[tuple[int, int, float]] = []
    if args.suite == "spectral-n":
        n_list = [int(t) for t in args.n_list.split(",")]
        for n in n_list:
            h = _bench_pattern(n)
            dt = _time_call(lambda: exp_spectral(h, beta, args.closure_cap), args.repeats)
            rows.append((n, len(h.terms), dt))
    elif args.suite == "spectral-tau":
        n = args.n
        tau_list = [int(t) for t in args.tau_list.split(",")]
        for k, tau in enumerate(tau_list):
            rank = (tau + 1).bit_length() - 1
            if 2**rank - 1 != tau:
                raise FormatError(f"tau must be 2^k - 1 for a closed set, got {tau}")
            h = random_closed_hamiltonian(np.random.default_rng(100 + k), n, rank)
            dt = _time_call(lambda: exp_spectral(h, beta, args.closure_cap), args.repeats)
            rows.append((n, tau, dt))
    elif args.suite == "dense-n":
        n_list = [int(t) for t in args.n_list.split(",")]
        for n in n_list:
            h = _bench_pattern(n)
            # repeated 2**n eigh calls are slow, so no warmup call
            dt = _time_call(
                lambda: dense_exp(reconstruct_dense(h, args.dense_cap), beta),
                args.repeats,
                warmup=False,
            )
            rows.append((n, len(h.terms), dt))
    else:
        raise FormatError(f"unknown suite {args.suite!r}")
    lines = ["n,tau,wall_time_s"]
    lines += [f"{n},{tau},{dt:.9f}" for n, tau, dt in rows]
    _emit_text(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_decompose(args) -> int:
    m = read_dense(args.input)
    obj = pauli_decompose(m, zero_tol=args.zero_tol)
    if args.format == "json":
        doc = (hamiltonian_to_dict(obj, args.alphabet) if isinstance(obj, SparseHamiltonian)
               else expansion_to_dict(obj, alphabet=args.alphabet))
        _emit_text(args, json.dumps(doc) + "\n")
    elif isinstance(obj, SparseHamiltonian):
        _emit_text(args, format_hamiltonian_text(obj, args.alphabet))
    else:
        _emit_text(args, format_expansion_text(obj, "decompose", alphabet=args.alphabet))
    return EXIT_OK


def cmd_closure(args) -> int:
    h = load_hamiltonian(args.input)
    ts = close(h, args.closure_cap)
    labels = format_codes(ts.n, ts.codes, args.alphabet)
    if args.format == "json":
        _emit_text(args, json.dumps({"n": ts.n, "tau": ts.tau, "codes": labels}) + "\n")
    else:
        _emit_text(args, "\n".join([f"n {ts.n}", f"tau {ts.tau}", *labels]) + "\n")
    return EXIT_OK


def _add_common(p):
    p.add_argument("-i", "--input", required=True, help="Hamiltonian file (text or JSON)")
    p.add_argument("-o", "--output", help="write result here instead of stdout")
    p.add_argument("--closure-cap", type=int, default=DEFAULT_CLOSURE_CAP,
                   help="abort if the closed set grows past this (default %(default)s)")
    p.add_argument("--alphabet", choices=("digits", "letters"), default="digits",
                   help="render Pauli strings as 0123 digits or IXYZ letters")


def _add_beta(p):
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--beta", help='inverse temperature, e.g. "1.5", "0.5+0.2i", "i"')
    grp.add_argument("--time", type=float, help="real time t, shorthand for beta = i t")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauliexp",
        description="exp(-beta H) for sparse Pauli-basis Hamiltonians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exp", help="compute exp(-beta H) as a Pauli expansion")
    _add_common(p)
    _add_beta(p)
    p.add_argument("--method", choices=("auto", "spectral", "contour", "anticommute", "dense"),
                   default="auto")
    p.add_argument("--format", choices=("pauli-json", "pauli-text", "dense-json", "dense-bin"),
                   default="pauli-text")
    p.add_argument("--nodes", type=int, default=None, help="contour quadrature nodes")
    p.add_argument("--center", default=None, help="contour center (complex)")
    p.add_argument("--radius", type=float, default=None, help="contour radius")
    p.add_argument("--dense-cap", type=int, default=DENSE_CAP_DEFAULT)
    p.add_argument("--zero-tol", type=float, default=1e-12)
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
    _add_common(p)
    _add_beta(p)
    p.add_argument("--method", choices=("auto", "spectral", "contour", "anticommute"),
                   default="spectral")
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--dense-cap", type=int, default=DENSE_CAP_DEFAULT)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="wall-time sweeps, CSV output")
    p.add_argument("--suite", choices=("spectral-n", "spectral-tau", "dense-n"),
                   default="spectral-n")
    p.add_argument("--n-list", default="4,6,8,10,12", help="qubit counts (spectral-n, dense-n)")
    p.add_argument("--n", type=int, default=10, help="fixed qubit count (spectral-tau)")
    p.add_argument("--tau-list", default="3,7,15,31,63", help="closed-set sizes (spectral-tau)")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--closure-cap", type=int, default=DEFAULT_CLOSURE_CAP)
    p.add_argument("--dense-cap", type=int, default=DENSE_CAP_DEFAULT)
    p.add_argument("-o", "--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_bench)

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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except FormatError as exc:
        print(f"pauliexp: input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ClosureExplosion as exc:
        print(f"pauliexp: closure error: {exc}", file=sys.stderr)
        return EXIT_CLOSURE
    # LinAlgError subclasses ValueError, so it must be caught ahead of it
    except (SingularSystem, ContourError, OverflowError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"pauliexp: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"pauliexp: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"pauliexp: io error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
