"""Correctness checks on the program's outputs, against ``workloads`` references.

Each check returns a list of problems; an empty list means the output
passed. Nothing here compares against a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math

from paulis import parse_code
from workloads import Input, Op

# Relative to the largest coefficient of the reference, with no absolute
# floor: a Gibbs state on n qubits has every coefficient at most 1/2^n.
RTOL = 1e-9


def _coeffs(doc: dict, n: int, problems: list[str]) -> dict[int, complex]:
    if doc.get("n") != n:
        problems.append(f"n is {doc.get('n')}, expected {n}")
    return {parse_code(e["pauli"]): complex(e["re"], e["im"]) for e in doc["coeffs"]}


def _compare(got: dict[int, complex], inp: Input, ref: dict[int, complex], what: str,
             problems: list[str]) -> None:
    outside = [c for c in got if c and c not in inp.span]
    if outside:
        problems.append(f"{what}: {len(outside)} codes outside the span of the support")
    scale = max(abs(v) for v in ref.values())
    worst = max(abs(got.get(c, 0j) - ref.get(c, 0j)) for c in set(got) | set(ref))
    if not worst <= RTOL * scale:
        problems.append(f"{what}: max deviation {worst:.3e} from expm (scale {scale:.3e})")


def _check_real(got: dict[int, complex], what: str, problems: list[str]) -> None:
    scale = max(abs(v) for v in got.values())
    worst = max(abs(v.imag) for v in got.values())
    if not worst <= RTOL * scale:
        problems.append(f"{what}: imaginary part {worst:.3e} at real beta")


def _check_exp(op: Op, doc: dict, problems: list[str]) -> None:
    beta = op.betas[0]
    got = _coeffs(doc, op.inp.n, problems)
    _compare(got, op.inp, op.inp.exp(beta), "exp", problems)
    if beta.real == 0:
        norm = sum(abs(v) ** 2 for v in got.values())
        if not abs(norm - 1.0) <= RTOL:
            problems.append(f"exp: sum |c_K|^2 = {norm!r} at imaginary beta")
    else:
        _check_real(got, "exp", problems)


def _check_gibbs(inp: Input, beta: float, doc: dict, problems: list[str]) -> None:
    got = _coeffs(doc, inp.n, problems)
    _compare(got, inp, inp.thermal(beta)[2], f"gibbs at beta {beta!r}", problems)
    _check_real(got, f"gibbs at beta {beta!r}", problems)
    if got.get(0) != complex(1.0 / 2**inp.n):
        problems.append(f"gibbs at beta {beta!r}: identity coefficient {got.get(0)!r}")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(b))


def _check_row(inp: Input, beta: float, z_trace: float, free_energy, problems) -> None:
    log_z, ref_trace, _ = inp.thermal(beta)
    if math.isfinite(ref_trace) and not abs(z_trace - ref_trace) <= RTOL * ref_trace:
        problems.append(f"z_trace {z_trace!r} at beta {beta!r}, expected {ref_trace!r}")
    if free_energy is not None and not _close(free_energy, -log_z / beta):
        problems.append(f"free energy {free_energy!r} at beta {beta!r}, expected {-log_z / beta!r}")


def _check_partition_json(op: Op, doc: dict, problems: list[str]) -> None:
    rows = doc["rows"]
    if [r["beta"] for r in rows] != op.betas:
        problems.append("rows do not follow the beta grid")
        return
    for row in rows:
        beta = row["beta"]
        _check_row(op.inp, beta, row["z_trace"], row["free_energy"], problems)
        if not abs(row["z_normalized"] * 2**op.inp.n - row["z_trace"]) <= RTOL * row["z_trace"]:
            problems.append(f"z_normalized and z_trace disagree at beta {beta!r}")
        if op.gibbs_rows:
            _check_gibbs(op.inp, beta, row["gibbs"], problems)


def _check_partition_text(op: Op, text: str, problems: list[str]) -> None:
    lines = text.splitlines()
    rows = [line.split() for line in lines[1 : 1 + len(op.betas)]]
    if [float(r[0]) for r in rows] != op.betas:
        problems.append("rows do not follow the beta grid")
        return
    for r in rows:
        _check_row(op.inp, float(r[0]), float(r[2]), float(r[3]), problems)
    if op.mirror is not None:
        verdict = lines[-1].split()
        if verdict[:2] != ["symmetry", "OK"]:
            problems.append(f"symmetry check reports {lines[-1]!r}")
        for beta in op.betas:
            if not _close(op.mirror.thermal(beta)[0], op.inp.thermal(beta)[0]):
                problems.append(f"reference traces differ at beta {beta!r}; not a symmetry")


def check(op: Op, text: str) -> list[str]:
    """Problems found in one output of ``op``; empty when it is correct."""
    problems: list[str] = []
    try:
        if op.fmt == "text":
            _check_partition_text(op, text, problems)
        else:
            doc = json.loads(text)
            if op.kind == "exp":
                _check_exp(op, doc, problems)
            elif op.kind == "gibbs":
                _check_gibbs(op.inp, op.betas[0], doc, problems)
            else:
                _check_partition_json(op, doc, problems)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
