"""Timed closed loop over one workload's ops, in a process of its own.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

``run.py`` writes the plan and starts this process with ``src`` on the
path and BLAS pinned to one thread. Each op is one in-process call of
``pauliexp.cli.main(argv)``; the next starts when the previous returns.
Whole rounds of the plan's ops run until the plan's seconds are used up.
With tracing on, untraced and traced rounds alternate; a traced round
follows each ``cli.main`` call with one pass through the public functions
of the layers below, each call wrapped in a span.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from functools import partial
from time import perf_counter

import numpy as np

from pauliexp import cli
from pauliexp.dense import dense_exp, reconstruct_dense
from pauliexp.engine import exp_pauli, gibbs_state, partition_function
from pauliexp.hamiltonian import close, expansion_to_dict, load_hamiltonian
from pauliexp.resolvent import build_structure_matrix

WARMUP_S = 1.0  # untimed ops before the first round: imports, caches, first LAPACK calls


def run_cli(op) -> tuple[float, str]:
    """(seconds, status) of one ``cli.main`` call; status "ok" on exit 0."""
    argv = op["argv"]
    t0 = perf_counter()
    try:
        rc = cli.main(argv)
        status = "ok" if rc == 0 else f"exit {rc}"
    except Exception as exc:  # the op failed; the loop goes on
        status = type(exc).__name__
    return perf_counter() - t0, status


class Tracer:
    """Spans kept in memory: name, start, end, parent span, op id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.t0 = perf_counter()

    def begin(self, name: str, op_id: str, parent) -> int:
        self.spans.append({"name": name, "op": op_id, "parent": parent,
                           "start": perf_counter() - self.t0})
        return len(self.spans) - 1

    def end(self, index: int, error=None) -> None:
        self.spans[index]["end"] = perf_counter() - self.t0
        self.spans[index]["error"] = error

    def call(self, name: str, op_id: str, parent, fn):
        """``fn()`` inside a span; None when it raised, as the op would fail."""
        index = self.begin(name, op_id, parent)
        try:
            result = fn()
        except Exception as exc:
            self.end(index, type(exc).__name__)
            return None
        self.end(index)
        return result


def replay(tracer: Tracer, op, op_id: str, root: int) -> int:
    """One pass of the op through the layers; returns the closure size built."""
    r = op["replay"]
    beta = complex(*r["beta"])
    h = tracer.call("hamiltonian.parse", op_id, root, lambda: load_hamiltonian(r["input"]))
    if h is None:
        return 0
    tau = 0
    if not r["anticommuting"]:
        ts = tracer.call("hamiltonian.close", op_id, root, lambda: close(h))
        if ts is not None:
            tau = len(ts)
            tracer.call("resolvent.assemble", op_id, root, lambda: build_structure_matrix(h, ts))
    if r["kind"] == "exp":
        solve = partial(exp_pauli, h, beta)
    elif r["kind"] == "gibbs" or r["gibbs_rows"]:
        solve = partial(gibbs_state, h, beta.real)
    else:
        solve = partial(partition_function, h, beta.real)
    result = tracer.call("engine.solve", op_id, root, solve)
    if result is not None:
        if r["kind"] == "partition" and not r["gibbs_rows"]:
            fmt = partial(json.dumps, {"rows": [{"beta": beta.real, "z_trace": result[1].real}]})
        else:
            fmt = partial(_expansion_json, result, beta)
        tracer.call("hamiltonian.format", op_id, root, fmt)
    if h.n <= 10:
        tracer.call("dense.oracle", op_id, root, partial(_oracle, h, beta))
    return tau


def _expansion_json(e, beta: complex) -> str:
    return json.dumps(expansion_to_dict(e, beta))


def _oracle(h, beta: complex):
    with np.errstate(all="ignore"):
        return dense_exp(reconstruct_dense(h), beta)


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    ops, seconds, trace = plan["ops"], plan["seconds"], plan["trace"]
    tracer = Tracer()

    t = perf_counter()
    for op in ops:
        run_cli(op)
        if trace:
            replay(Tracer(), op, "warmup", None)
        if perf_counter() - t > WARMUP_S:
            break

    attempts = []  # [round, op index, seconds, status, traced]
    rounds = []  # [round, seconds, traced]: the whole round, replay included
    outputs: list[dict[str, int]] = [{} for _ in ops]
    taus = []
    start = perf_counter()
    rnd = 0
    while True:
        traced = trace and rnd % 2 == 1
        tau = 0
        round_start = perf_counter()
        for i, op in enumerate(ops):
            if os.path.exists(op["out"]):
                os.unlink(op["out"])
            op_id = f"{rnd}:{i}"
            if traced:
                root = tracer.begin("op", op_id, None)
                span = tracer.begin("cli.main", op_id, root)
                dt, status = run_cli(op)
                tracer.end(span, None if status == "ok" else status)
                tau += replay(tracer, op, op_id, root)
                tracer.end(root)
            else:
                dt, status = run_cli(op)
            attempts.append([rnd, i, dt, status, traced])
            if status == "ok":
                with open(op["out"], encoding="utf-8") as fh:
                    text = fh.read()
                outputs[i][text] = outputs[i].get(text, 0) + 1
        rounds.append([rnd, perf_counter() - round_start, traced])
        if traced:
            taus.append(tau)
        rnd += 1
        if perf_counter() - start >= seconds and (not trace or rnd >= 2):
            break

    result = {
        "attempts": attempts,
        "rounds": rounds,
        "outputs": [list(seen.items()) for seen in outputs],
        "spans": tracer.spans,
        "taus": taus,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": np.__version__,
        "unix_time": time.time(),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
