"""hfock benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It compiles the bytecode of src/ first,
then for the workload W:

1. builds the seeded op list and its mpmath references in a process of its
   own (worker.py prepare);
2. with --trace 0, times SETUP_RUNS fresh processes from interpreter start
   to ready (worker.py setup) and reports their median as setup_s;
3. runs the fixed op count (whole rounds, one op in flight) in a fresh hfock
   process (worker.py run), checking every output;
4. prints a record line ("# record {...}") and, last, one JSON object with
   correct, attempted, failed and the end-to-end metrics (--trace 0) or the
   per-layer metrics (--trace 1).

Records and trace files go to perfbench/out/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9
TAIL_BEYOND = 10  # op_tail_ms leaves this many samples above it
CHILD_TIMEOUT = 150


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, HERE, env.get("PYTHONPATH")) if p)
    # one op in flight on one core: a BLAS thread on the other core only
    # adds the noise of whatever else runs there
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _child(args: list[str], stdin: bytes = b"") -> bytes:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          input=stdin, capture_output=True, cwd=ROOT, env=_env(),
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return proc.stdout


def _setup_seconds(workload: str) -> float:
    """Fresh interpreter to ready: import, warm-up pass (or CLI parser)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), "setup", workload],
                            stdout=subprocess.PIPE, cwd=ROOT, env=_env())
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.close()
    finally:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"setup process for {workload} failed with {code}")
    return dt


def calibration_seconds() -> float:
    """Median time of a fixed pure-Python loop: shows machine drift between runs."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_op_best(latencies: list[float], rounds: int) -> list[float]:
    """Each op's latency taken as the fastest of the rounds that repeat it,
    counted once per round so that percentiles keep the run's op count.

    A shared machine drifts in speed by tens of percent within seconds (see
    the README), and drift only ever adds time.  The best of an op's repeats
    is the figure that drift leaves alone (the timeit convention); an op
    that is slow on every repeat still reads slow."""
    width = len(latencies) // rounds
    best = [min(latencies[i::width]) for i in range(width)]
    return sorted(best * rounds)


def end_to_end(latencies: list[float], rounds: int, setup: list[float], rss_kb: int) -> dict:
    ordered = per_op_best(latencies, rounds)
    n = len(ordered)
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ms": (1e3 * statistics.median(ordered), "ms"),
        "op_tail_ms": (1e3 * ordered[n - TAIL_BEYOND - 1], "ms"),
        "ops_per_s": (n / sum(ordered), "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "hfock", "__init__.py")):
        print(f"perfbench: no hfock sources under {SRC}", file=sys.stderr)
        return 2
    compiled = subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                              capture_output=True, timeout=CHILD_TIMEOUT)
    if compiled.returncode != 0:
        sys.stderr.write(compiled.stdout.decode(errors="replace"))
        return 2
    os.makedirs(OUT, exist_ok=True)

    calib_start = calibration_seconds()
    rounds = workloads.rounds_for(args.workload, args.seconds)
    plan_bytes = _child(["prepare", args.workload, str(args.seed)])
    setup = [] if args.trace else [_setup_seconds(args.workload) for _ in range(SETUP_RUNS)]
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    t0 = time.perf_counter()
    result = pickle.loads(_child(["run", args.workload, str(rounds), str(args.trace), stem + ".spans"],
                                 stdin=plan_bytes))
    wall = time.perf_counter() - t0
    calib_end = calibration_seconds()

    lat = result["latencies"]
    attempted = len(lat)
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in tracer.METRICS}
    else:
        metrics = end_to_end(lat, rounds, setup, result["rss_kb"])
    total = sum(lat)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "ops_per_round": attempted // rounds,
        "tail_percentile": round(100.0 * (attempted - TAIL_BEYOND) / attempted, 2),
        "timed_s": total, "run_wall_s": wall, "setup_runs_s": setup,
        "failed": result["failed"], "unexpected_failures": result["unexpected"],
        "reasons": result["reasons"],
        "share": {k: {"ops": result["kind_ops"][k] / attempted, "time": t / total}
                  for k, t in sorted(result["kind_time"].items())},
        "python": platform.python_version(), "numpy": result["numpy"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": result["blas_threads"],
        "calibration_s": {"start": calib_start, "end": calib_end},
        "metrics": metrics,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("# record " + json.dumps(record))
    print(json.dumps({"correct": result["unexpected"] == 0, "attempted": attempted,
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
