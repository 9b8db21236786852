"""The pauliexp benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload evolve-flat --seed 1 --seconds 20 --trace 0

Set-up writes the workload's inputs under ``.perfbench/``, times fresh
interpreters importing ``pauliexp.cli`` (``setup_s``), and starts
``worker.py``, which calls ``pauliexp.cli.main(argv)`` in a closed loop.
The outputs are then checked against exact results the benchmark computes
itself. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics under ``--trace 0`` and the per-layer metrics under ``--trace 1``.
"""

# BLAS is pinned to one thread before numpy loads, here and in every child:
# two BLAS threads make eigh erratic on a shared two-core machine.
import os

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# fresh interpreters timed before the worker and again after it, so that
# setup_s samples two moments of the run on a machine whose speed drifts
SETUP_SAMPLES = 6
# wall_s, op_p50_ms and op_tail_ms are the sum, the median and a fixed
# percentile of one round's op latencies, each taken as the median over the
# run's rounds. The percentile falls inside the group of the workload's
# slowest ops, not on the step below it.
TAIL_PERCENTILE = {"evolve-flat": 90, "thermal-grid": 90, "large-closure": 75}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_samples(env: dict) -> list[float]:
    """Wall times of fresh interpreters that import pauliexp.cli."""
    cmd = [sys.executable, "-c", "import pauliexp.cli"]
    subprocess.run(cmd, env=env, check=True, cwd=ROOT)  # fills __pycache__
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        times.append(perf_counter() - t0)
    return times


def percentile(values, p: float) -> float:
    return float(np.percentile(np.asarray(values), p))


def end_to_end(attempts, workload: str, rss_kb: int) -> tuple[dict, str]:
    rounds: dict[int, list[float]] = {}
    for rnd, _, dt, _, _ in attempts:
        rounds.setdefault(rnd, []).append(dt * 1e3)
    p = TAIL_PERCENTILE[workload]

    def over_rounds(stat):
        return statistics.median(stat(v) for v in rounds.values())

    metrics = {
        "wall_s": {"value": over_rounds(sum) / 1e3, "unit": "s"},
        "op_p50_ms": {"value": over_rounds(statistics.median), "unit": "ms"},
        "op_tail_ms": {"value": over_rounds(lambda v: percentile(v, p)), "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }
    ops_a_round = len(attempts) // len(rounds)
    note = (f"rounds={len(rounds)} ops={len(attempts)} "
            f"op_tail=p{p} over the {ops_a_round} ops of a round, median round")
    return metrics, note


def per_layer(result: dict, ops) -> tuple[dict, str]:
    """Per-round layer times (median over traced rounds) and per-round counts."""
    spans = result["spans"]
    per_round: dict[str, dict[str, float]] = {}
    for s in spans:
        rnd = s["op"].split(":")[0]
        acc = per_round.setdefault(rnd, {})
        acc[s["name"]] = acc.get(s["name"], 0.0) + (s["end"] - s["start"]) * 1e3
    for acc in per_round.values():
        # engine.solve ran its own closure and assembly; keep the rest
        acc["engine.solve.self"] = (acc.get("engine.solve", 0.0) - acc.get("hamiltonian.close", 0.0)
                                    - acc.get("resolvent.assemble", 0.0))
        one_pass = sum(acc.get(k, 0.0) for k in ("hamiltonian.parse", "engine.solve",
                                                 "hamiltonian.format"))
        acc["cli.overhead"] = acc.get("cli.main", 0.0) - one_pass

    def med(key):
        return statistics.median(acc.get(key, 0.0) for acc in per_round.values())

    # whole rounds: cli.main, the replay and the span bookkeeping
    traced = [dt * 1e3 for _, dt, was_traced in result["rounds"] if was_traced]
    untraced = [dt * 1e3 for _, dt, was_traced in result["rounds"] if not was_traced]
    taus = set(result["taus"])
    metrics = {
        "cli.overhead_ms": {"value": med("cli.overhead"), "unit": "ms"},
        "hamiltonian.parse_ms": {"value": med("hamiltonian.parse"), "unit": "ms"},
        "hamiltonian.close_ms": {"value": med("hamiltonian.close"), "unit": "ms"},
        "resolvent.assemble_ms": {"value": med("resolvent.assemble"), "unit": "ms"},
        "engine.solve_ms": {"value": med("engine.solve.self"), "unit": "ms"},
        "hamiltonian.format_ms": {"value": med("hamiltonian.format"), "unit": "ms"},
        "dense.oracle_ms": {"value": med("dense.oracle"), "unit": "ms"},
        "hamiltonian.tau": {"value": max(taus), "unit": "count"},
        "engine.evals": {"value": sum(op.evals for op in ops), "unit": "count"},
        "trace.overhead_ms": {
            "value": statistics.median(traced) - statistics.median(untraced),
            "unit": "ms",
        },
    }
    note = f"traced_rounds={len(traced)} untraced_rounds={len(untraced)}"
    if len(taus) != 1:
        note += f" WARNING: closure sizes differ between rounds: {sorted(taus)}"
    return metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pauliexp" / "cli.py").is_file():
        print(f"perfbench: no pauliexp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import check
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    (work / "out").mkdir()
    inputs, ops = workloads.build(args.workload, args.seed, work / "inputs")
    plan_ops = []
    for i, op in enumerate(ops):
        out = str(work / "out" / f"{i}.out")
        beta = op.betas[0]
        plan_ops.append({
            "argv": [*op.argv, "-o", out],
            "out": out,
            "replay": {"kind": op.kind, "input": op.inp.path, "beta": [beta.real, beta.imag],
                       "gibbs_rows": op.gibbs_rows,
                       "anticommuting": op.kind == "exp" and op.inp.anticommuting()},
        })
    plan = {"ops": plan_ops, "seconds": args.seconds, "trace": bool(args.trace)}
    with open(work / "plan.json", "w", encoding="utf-8") as fh:
        json.dump(plan, fh)

    env = child_env()
    setup = [] if args.trace else setup_samples(env)
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "plan.json"),
             str(work / "result.json")],
            env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
        )
    if proc.returncode != 0:
        sys.stderr.write((work / "worker.log").read_text(encoding="utf-8")[-4000:])
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    with open(work / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)
    if not args.trace:
        setup += setup_samples(env)

    # correctness, outside the timed region: every distinct output of every op
    problems: dict[int, list[str]] = {}
    for i, seen in enumerate(result["outputs"]):
        for text, _count in seen:
            found = check.check(ops[i], text)
            if found:
                problems.setdefault(i, []).extend(found)
    attempts = result["attempts"]
    failed = 0
    unexpected = set()
    for _, i, _, status, _ in attempts:
        if status != "ok" or i in problems:
            failed += 1
        if status != "ok" and not ops[i].expect_fail:
            unexpected.add((ops[i].name, status))
    # wrong outputs, and failures of ops that are not expected to fail
    correct = not problems and not unexpected

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "blas_threads": BLAS_THREADS, "numpy": result["numpy"],
        "problems": {ops[i].name: p for i, p in problems.items()},
        "unexpected_failures": sorted(unexpected),
        "inputs": [{"name": inp.name, "n": inp.n, "tau": inp.tau,
                    "rst": inp.structure(),
                    "nonzero_share": len([c for c in inp.terms if c]) / inp.tau} for inp in inputs],
        "op_median_ms": {
            op.name: statistics.median(a[2] * 1e3 for a in attempts if a[1] == i)
            for i, op in enumerate(ops)
        },
        "op_best_ms": {
            op.name: min(a[2] * 1e3 for a in attempts if a[1] == i) for i, op in enumerate(ops)
        },
    }
    if args.trace:
        metrics, note = per_layer(result, ops)
        by_op: dict[str, dict[str, list[float]]] = {}
        for s in result["spans"]:
            name = ops[int(s["op"].split(":")[1])].name
            by_op.setdefault(name, {}).setdefault(s["name"], []).append((s["end"] - s["start"]) * 1e3)
        report["op_layer_median_ms"] = {
            name: {k: statistics.median(v) for k, v in layers.items()}
            for name, layers in by_op.items()
        }
        with open(work / "trace.json", "w", encoding="utf-8") as fh:
            json.dump(result["spans"], fh)
    else:
        metrics, note = end_to_end(attempts, args.workload, result["peak_rss_kb"])
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    report["metrics"] = metrics
    with open(work / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for name, found in report["problems"].items():
        print(f"perfbench: WRONG OUTPUT {name}: {found[0]}")
    for name, status in sorted(unexpected):
        print(f"perfbench: UNEXPECTED FAILURE {name}: {status}")
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} {note} report={work / 'report.json'}")
    print(json.dumps({"correct": correct, "attempted": len(attempts), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
