"""Benchmark entry point.

    python3 perfbench/run.py --workload decompose_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Runs one workload in a closed loop (one caller; the next request starts
when the previous one has returned) for ``--seconds`` of wall time, in whole
rounds, checks every output, and prints one JSON object as the last line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``--smoke`` runs one round of each workload and exits 1 if
any check fails. The program is imported from ``src/`` of the checkout
that holds this file; BLAS runs on one thread.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
IMPORTS = ("numpy", "scipy.optimize", "couplingflow.certificates", "couplingflow.coupling",
           "couplingflow.decomposer", "couplingflow.matcore", "couplingflow.metrics",
           "couplingflow.separation", "couplingflow.trainer", "couplingflow.universal")
MAX_REASONS = 5


def program_env():
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds() -> float:
    """Wall time for a fresh interpreter to start and import the program."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import " + ", ".join(IMPORTS)],
                   env=program_env(), check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def set_up(workload_cls, seed, repeats):
    """Set the workload up ``repeats`` times; return the last instance and the
    median set-up time (interpreter start and imports, input generation,
    warm-up)."""
    times, workload = [], None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        imports = import_seconds()
        start = time.perf_counter()
        workload = workload_cls(seed)
        workload.setup()
        times.append(imports + time.perf_counter() - start)
    return workload, sorted(times)[len(times) // 2]


def measure(workload, seconds):
    """Run whole rounds until ``seconds`` of wall time have passed."""
    latencies, by_kind, goodput, failed, problems = [], {}, [], 0, []
    start = time.perf_counter()
    while not goodput or time.perf_counter() - start < seconds:
        round_ops, round_failed = [], 0
        for request in workload.round(len(goodput)):
            began = time.perf_counter()
            try:
                output, op_latencies = request.run()
                reason = request.check(output)
            except Exception as exc:  # a request that raises is a failed op
                op_latencies, reason = [time.perf_counter() - began], f"raised {exc!r}"
            round_ops += op_latencies
            by_kind.setdefault(request.kind, []).extend(op_latencies)
            if reason:
                round_failed += len(op_latencies)
                if not request.known_fault:
                    problems.append(f"{request.kind}: {reason}")
        latencies += round_ops
        failed += round_failed
        goodput.append((len(round_ops) - round_failed) / sum(round_ops))
    return latencies, by_kind, goodput, failed, problems


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q / 100.0)) - 1]


def end_to_end(latencies, goodput, setup_s, tail_percentile):
    """Latency percentiles over every op of the run; throughput as the
    median over rounds of the ops that did not fail per second spent in
    ops, which keeps a burst of load from other processes on the machine
    to the rounds it hit."""
    ordered = sorted(latencies)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": statistics.median(goodput), "unit": "op/s"},
        "op_p50_ms": {"value": percentile(ordered, 50) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": percentile(ordered, tail_percentile) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def run_workload(name, seed, seconds, trace, setup_repeats=SETUP_REPEATS):
    """Set up, measure and check one workload; return (result, report)."""
    import tracing
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[name]
    workload, setup_s = set_up(workload_cls, seed, setup_repeats)
    tracer = tracing.Tracer()
    try:
        if trace:
            tracer.install()
        try:
            latencies, by_kind, goodput, failed, problems = measure(workload, seconds)
        finally:
            tracer.uninstall()
        workload.final_checks()
    finally:
        workload.close()
    problems += workload.problems
    rounds = len(goodput)
    e2e = end_to_end(latencies, goodput, setup_s, workload_cls.tail_percentile)
    result = {"correct": not problems, "attempted": len(latencies), "failed": failed,
              "metrics": tracer.metrics(rounds) if trace else e2e}
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "rounds": rounds, "tail_percentile": workload_cls.tail_percentile,
              "end_to_end": e2e, "problems": problems, "result": result,
              "median_ms_by_kind": {kind: percentile(sorted(values), 50) * 1e3
                                    for kind, values in by_kind.items()}}
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of every workload, exit 1 on a failed check")
    args = parser.parse_args(argv)

    if not (SRC / "couplingflow" / "__init__.py").is_file():
        print(f"program not found: no couplingflow package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})  # before numpy loads
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.smoke:
        ok = True
        for name in WORKLOADS:
            result, report = run_workload(name, args.seed, 0.0, False, setup_repeats=1)
            ok &= result["correct"]
            print(json.dumps({"workload": name, **result}))
            for reason in report["problems"][:MAX_REASONS]:
                print(f"  {reason}", file=sys.stderr)
        return 0 if ok else 1

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result, report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1))
    for reason in report["problems"][:MAX_REASONS]:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
