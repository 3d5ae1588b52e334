"""Child processes of the benchmark.

    worker.py prepare WORKLOAD SEED     op list and mpmath references (pickle on stdout)
    worker.py setup WORKLOAD            import hfock, warm up, print "ready"
    worker.py run WORKLOAD ROUNDS TRACE TRACE_PATH
                                        plan (pickle) on stdin, results (pickle) on stdout

run.py starts these with PYTHONPATH pointing at the checkout's src/.  The
prepare process imports mpmath and never hfock; the run process imports
hfock and never mpmath, so its peak RSS is hfock's own.
"""
from __future__ import annotations

import json
import os
import pickle
import resource
import subprocess
import sys
import time
from array import array

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# keep the first few rejections of each run for the record
MAX_REASONS = 5
# seconds the op loop stays on one CPU before it moves to the next
CPU_STINT_S = 0.5


def prepare(workload: str, seed: int) -> dict:
    import oracle

    ops = workloads.ROUNDS[workload](seed)
    return {"ops": ops, "refs": [oracle.reference(kind, args) for kind, args, _ in ops]}


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when not found."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Tally:
    """Latencies, per-kind time and the failures of one run."""

    def __init__(self):
        self.latencies = array("d")
        self.kind_time: dict[str, float] = {}
        self.kind_ops: dict[str, int] = {}
        self.failed = 0
        self.unexpected = 0
        self.reasons: list[str] = []

    def add(self, kind: str, fault: bool, dt: float, reason: str | None, args=()) -> None:
        self.latencies.append(dt)
        self.kind_time[kind] = self.kind_time.get(kind, 0.0) + dt
        self.kind_ops[kind] = self.kind_ops.get(kind, 0) + 1
        if reason is None:
            return
        self.failed += 1
        if not fault:
            self.unexpected += 1
        if len(self.reasons) < MAX_REASONS and (not fault or not self.reasons):
            self.reasons.append(f"{'kept fault' if fault else 'UNEXPECTED'} {kind}{args}: {reason}")

    def result(self, rss_kb: int, layers: dict | None) -> dict:
        import numpy

        return {"latencies": self.latencies.tolist(), "kind_time": self.kind_time,
                "kind_ops": self.kind_ops, "failed": self.failed,
                "unexpected": self.unexpected, "reasons": self.reasons,
                "rss_kb": rss_kb, "layers": layers,
                "numpy": numpy.__version__, "blas_threads": blas_threads()}


class CpuRotation:
    """Moves the op loop round the CPUs it may run on, CPU_STINT_S on each.

    On a shared host one CPU can run 1.5-2x slower than the other for a
    minute or more while a neighbour loads its core (see the README), and
    the scheduler leaves a lone busy process where it is.  Taking turns on
    every CPU gives each op repeats on each of them, so the best of its
    repeats (run.py) comes from a CPU that was not loaded.  Still one op in
    flight; the processes an op starts inherit the CPU."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0
        self.since = time.perf_counter()
        os.sched_setaffinity(0, {self.cpus[0]})

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self.since >= CPU_STINT_S:
            self.turn += 1
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
            self.since = now

    def close(self) -> None:
        os.sched_setaffinity(0, set(self.cpus))


def _check(kind: str, args, out, ref) -> str | None:
    if kind.startswith("gram_"):
        return checks.check_gram(out.entries, out.min_eig, out.trace, out.is_psd(), args[1], ref)
    return checks.check_value(kind, out, ref)


def run_in_process(workload: str, plan: dict, rounds: int, trace: bool, trace_path: str) -> dict:
    import hfock  # noqa: F401  (the import is part of what setup_s times)
    from tracer import Tracer

    tracer = Tracer()
    if trace:
        tracer.install()
    execute = workloads.executors()
    workloads.warm_up(workload)
    tracer.reset()
    tally = Tally()
    clock = time.perf_counter
    ops = list(zip(plan["ops"], plan["refs"]))
    cpus = CpuRotation()
    for _ in range(rounds):
        for (kind, args, fault), ref in ops:
            fn = execute[kind]
            cpus.tick()
            t0 = clock()
            try:
                out = fn(*args)
                reason = None
            except Exception as exc:  # a raise is a failed op; the loop goes on
                reason = f"raised {type(exc).__name__}: {exc}"
            dt = clock() - t0
            if reason is None:
                reason = _check(kind, args, out, ref)
            tally.add(kind, fault, dt, reason, () if kind.startswith("gram_") else args)
    cpus.close()
    layers = None
    if trace:
        layers = tracer.metrics()
        tracer.dump(trace_path, layers)
    return tally.result(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, layers)


def run_verify(plan: dict, rounds: int, trace: bool, trace_path: str) -> dict:
    """Closed loop of fresh `hfock verify` processes, one in flight."""
    from tracer import METRICS

    tally = Tally()
    first = {}  # argv -> (returncode, stdout, stderr) of its first run
    layers = {name: 0.0 for name, _ in METRICS} if trace else None
    if trace:
        os.makedirs(trace_path, exist_ok=True)
    cpus = CpuRotation()
    for r in range(rounds):
        for i, (_, args, fault) in enumerate(plan["ops"]):
            if trace:
                span_file = os.path.join(trace_path, f"round{r}-op{i}")
                argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), span_file, "verify", *args]
            else:
                argv = [sys.executable, "-m", "hfock.cli", "verify", *args]
            cpus.tick()
            t0 = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, cwd=ROOT, timeout=120)
            dt = time.perf_counter() - t0
            reason = checks.check_verify(proc.returncode, proc.stdout)
            seen = first.setdefault(args, (proc.returncode, proc.stdout, proc.stderr))
            if seen != (proc.returncode, proc.stdout, proc.stderr):
                reason = "repeat of the same argv gave a different report"
            tally.add("verify " + args[0], fault, dt, reason, args)
            if trace:
                with open(span_file + ".json", encoding="utf-8") as fh:
                    for name, value in json.load(fh).items():
                        layers[name] += value
    cpus.close()
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return tally.result(rss_kb, layers)


def main(argv: list[str]) -> int:
    mode, workload = argv[0], argv[1]
    if workload not in workloads.WORKLOADS:
        print(f"worker: unknown workload {workload!r}", file=sys.stderr)
        return 2
    if mode == "prepare":
        sys.stdout.buffer.write(pickle.dumps(prepare(workload, int(argv[2]))))
        return 0
    if mode == "setup":
        workloads.warm_up(workload)
        print("ready", flush=True)
        return 0
    if mode == "run":
        rounds, trace, trace_path = int(argv[2]), argv[3] == "1", argv[4]
        plan = pickle.loads(sys.stdin.buffer.read())
        if workload == "verify":
            result = run_verify(plan, rounds, trace, trace_path)
        else:
            result = run_in_process(workload, plan, rounds, trace, trace_path)
        sys.stdout.buffer.write(pickle.dumps(result))
        return 0
    print(f"worker: unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
