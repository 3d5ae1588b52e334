#!/usr/bin/env python3
"""Run perfbench on a change and its parent in alternating pairs, and write one BENCH file.

Run it from the root of a checkout, the change.  The committed files of the
parent, ``--parent REV``, are exported with ``git archive`` into a temporary
directory, removed at the end; nothing is written into the repository's
``.git``.  For each workload W of BENCHMARK.json and each of ``--pairs``
seeds S from ``--seed-base``, it runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

on both sides, with cwd set to that side and T the ``run_seconds`` of
BENCHMARK.json; the parent runs first in even pairs and the change first in
odd ones.  The file it writes holds, per workload and end-to-end metric of
BENCHMARK.json, each side's median, quartiles, quartile distance over median,
runs and whether those runs fall into two clusters, the number of pairs the
change won, the machine, both commits and the exact commands.

    python3 tools/bench.py --parent HEAD~1 --pairs 10 --seed-base 3701 --out BENCH_37.json
    python3 tools/bench.py --trajectory BENCH_37.json BENCH_38.json BENCH_40.json
    python3 tools/bench.py --compare BENCH_34.json BENCH_37.json

``--trajectory FILE ...`` runs nothing: it prints, per workload and metric,
each file's change/parent median ratio, their product along the chain, and
that product's range from each file's quartiles, change q1/parent q3 to
change q3/parent q1.  Each ratio comes from pairs run in one session, so
the product leaves out the machine's drift between sessions.  The chain
holds where ``git diff --quiet`` finds no change to ``src/`` or
``perfbench/`` between one file's change and the next file's parent; where
it does not, ``|`` marks the break and the product starts again, as it does
after a missing ratio, printed ``n/a``.

``--compare PREV CURRENT`` runs nothing: it prints, per workload and metric,
the change's median in CURRENT over the change's median in PREV.  The two
files' runs come from different sessions, often on other days, so the ratio
holds the machine's drift too: a guide, not a verdict.  The comparison warns
where a key is missing and never fails.  The tool uses only the standard
library and judges nothing.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

SIDES = ("parent", "change")


def _git(*args: str, cwd: str = ".") -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True,
                          check=True).stdout.strip()


def _change_commit() -> str:
    # the commit, and whether what a run executes (src/ and perfbench/, new
    # files included) differs from it
    try:
        commit = _git("rev-parse", "HEAD")
        dirty = _git("status", "--porcelain", "--", "src", "perfbench")
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return commit + (" with uncommitted changes to src/ or perfbench/" if dirty else "")


def _export(commit: str, dest: str) -> None:
    """Write the files committed at ``commit`` into the directory ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", commit],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, filter="data")


def _argv(workload: str, seed, seconds: float) -> list[str]:
    # run with cwd set to a side's root
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]


def _run_side(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py --trace 0`` run in ``root``: its last JSON line and its record."""
    argv = [sys.executable, *_argv(workload, seed, seconds)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(argv)} exited with {proc.returncode} in {root}")
    record = next((json.loads(x[len("# record "):]) for x in lines if x.startswith("# record ")), {})
    return {"result": json.loads(lines[-1]), "record": record}


def _two_clusters(values: list[float]) -> bool:
    """Whether the runs fall into two clusters: the widest gap between
    neighbours of the sorted runs exceeds both 5 % of their median and the
    spread of all the other runs together (max - min - gap), with at least
    two runs on each side of it.  A flag for the reader; it judges nothing."""
    runs = sorted(values)
    if len(runs) < 4:
        return False
    gap, below = max((hi - lo, i + 1) for i, (lo, hi) in enumerate(zip(runs, runs[1:])))
    return (2 <= below <= len(runs) - 2 and gap > 0.05 * abs(statistics.median(runs))
            and gap > runs[-1] - runs[0] - gap)


def _spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else None,
            "two_clusters": _two_clusters(values), "runs": values}


def _summary(runs: list[dict], metrics: dict) -> dict:
    out = {}
    for name, better in metrics.items():
        pairs = [r for r in runs if all(name in r[side] for side in SIDES)]
        if not pairs:
            continue
        sides = {side: _spread([r[side][name] for r in pairs]) for side in SIDES}

        def wins(r):
            p, c = r["parent"][name], r["change"][name]
            return c < p if better == "lower" else c > p

        parent_median = sides["parent"]["median"]
        out[name] = {"better": better, **sides, "change_wins": sum(map(wins, pairs)),
                     "pairs": len(pairs),
                     "median_ratio_change_over_parent":
                         sides["change"]["median"] / parent_median if parent_median else None}
    out["failed"] = {side: [r[side]["failed"] for r in runs] for side in SIDES}
    return out


def _print_summary(workload: str, summary: dict) -> None:
    for name, s in summary.items():
        if name == "failed":
            print(f"{workload:11s} failed      parent {s['parent']}  change {s['change']}")
            continue
        ratio = s["median_ratio_change_over_parent"]
        clustered = [side for side in SIDES if s[side]["two_clusters"]]
        print(f"{workload:11s} {name:11s} parent {s['parent']['median']:.6g} "
              f"(IQR/median {s['parent']['iqr_over_median'] or 0:.3f})  change "
              f"{s['change']['median']:.6g}  ratio {ratio if ratio is None else round(ratio, 4)}  "
              f"change better in {s['change_wins']} of {s['pairs']}"
              + (f"  two clusters: {', '.join(clustered)}" if clustered else ""))


def _machine(record: dict) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": model, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": record.get("python"), "numpy": record.get("numpy"),
            "blas_threads": record.get("blas_threads")}


def run(args, argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    metrics = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = float(declared["run_seconds"])
    parent_commit = _git("rev-parse", "--verify", args.parent + "^{commit}")
    parent = tempfile.mkdtemp(prefix="bench-parent-")
    roots = {"parent": parent, "change": os.getcwd()}
    doc = {
        "about": ("End-to-end metrics of the parent and of the change, from alternating "
                  "pairs of perfbench/run.py --trace 0 runs, each side run from its own "
                  "directory.  The parent runs first in even pairs and the change first in "
                  "odd ones.  Quartiles are statistics.quantiles(n=4, method='inclusive'); "
                  "change_wins counts the pairs in which the change read better, ties for "
                  "neither.  two_clusters flags a side whose sorted runs split at their "
                  "widest gap, wider than 5 % of the median and than the other runs' "
                  "spread, with two runs or more on each side.  Written by tools/bench.py."),
        "parent": {"commit": parent_commit, "checkout": f"git archive of {args.parent}"},
        "change": {"commit": _change_commit()},
        "pairs": args.pairs, "seed_base": args.seed_base, "seconds": seconds,
        "tool_command": " ".join(["python3 tools/bench.py", *(argv or sys.argv[1:])]),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workloads": {},
    }
    first_record = {}
    try:
        _export(parent_commit, parent)
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.seed_base + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                entry = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    out = _run_side(roots[side], workload, seed, seconds)
                    first_record = first_record or out["record"]
                    res = out["result"]
                    entry[side] = {"failed": res["failed"], "correct": res["correct"],
                                   "calibration_s": out["record"].get("calibration_s"),
                                   **{k: v["value"] for k, v in res["metrics"].items()}}
                runs.append(entry)
                print(f"{workload} pair {i} seed {seed}: " + "  ".join(
                    f"{side} ops/s {entry[side].get('ops_per_s', float('nan')):.1f}"
                    for side in SIDES), flush=True)
            summary = _summary(runs, metrics)
            doc["workloads"][workload] = {
                "command": "python3 " + " ".join(_argv(workload, "SEED", seconds))
                           + ", cwd each side's root, SEED each pair's seed",
                "summary": summary, "runs": runs}
            _print_summary(workload, summary)
            # written after each workload, so an interrupted run keeps the finished ones
            doc["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
            doc["machine"] = {**_machine(first_record), "loadavg": os.getloadavg()}
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    print(f"wrote {args.out}")
    return 0


def compare(prev_path: str, current_path: str) -> None:
    """Print the change's median in ``current_path`` over that in ``prev_path``."""
    try:
        with open(prev_path, encoding="utf-8") as fh:
            prev = json.load(fh)
        with open(current_path, encoding="utf-8") as fh:
            current = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"warning: cannot compare: {exc}")
        return
    print(f"change medians, {current_path} over {prev_path}, runs from different sessions:")
    for workload, body in current.get("workloads", {}).items():
        old = prev.get("workloads", {}).get(workload, {}).get("summary")
        if old is None:
            print(f"warning: {prev_path} has no workload {workload}")
            continue
        for name, s in body["summary"].items():
            try:
                before, now = old[name]["change"]["median"], s["change"]["median"]
            except (KeyError, TypeError):
                if name != "failed":
                    print(f"warning: {prev_path} has no {workload} {name}")
                continue
            ratio = now / before if before else float("nan")
            print(f"{workload:11s} {name:11s} {before:.6g} -> {now:.6g}  ratio {ratio:.4f}"
                  f"  ({s['better']} is better)")


def _link(prev: dict, nxt: dict) -> str | None:
    """None where the change of ``prev`` has the src/ and perfbench/ of the
    parent of ``nxt``, else why the chain breaks between them."""
    change, parent = prev.get("change", {}).get("commit"), nxt.get("parent", {}).get("commit")
    if not change or not parent or " " in change:  # " with uncommitted changes ..."
        return (f"cannot check {change or 'an unrecorded change'} "
                f"against {parent or 'an unrecorded parent'}")
    try:
        proc = subprocess.run(["git", "diff", "--quiet", change, parent, "--", "src", "perfbench"],
                              capture_output=True, text=True, check=False)
    except OSError as exc:
        return f"cannot run git: {exc}"
    if proc.returncode == 0:
        return None
    if proc.returncode == 1:
        return f"{change[:7]} and {parent[:7]} differ in src/ or perfbench/"
    return f"cannot check {change[:7]} against {parent[:7]}: {proc.stderr.strip()}"


def _factor(doc: dict, workload: str, name: str):
    """(ratio, low, high) of one file's change/parent medians and quartiles, or None."""
    try:
        s = doc["workloads"][workload]["summary"][name]
        parent, change = s["parent"], s["change"]
        return (s["median_ratio_change_over_parent"],
                change["q1"] / parent["q3"], change["q3"] / parent["q1"])
    except (KeyError, TypeError, ZeroDivisionError):
        return None


def trajectory(paths: list[str]) -> None:
    """Print each file's change/parent median ratios and their products along the chain."""
    docs = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"warning: cannot chain: {exc}")
            return
    breaks = [False]
    for i in range(1, len(docs)):
        why = _link(docs[i - 1], docs[i])
        breaks.append(why is not None)
        print(f"{paths[i - 1]} -> {paths[i]}: " + (f"break, {why}" if why else "chained"))
    names = {}  # workload -> metric names, in the order the files first give them
    for doc in docs:
        for workload, body in doc.get("workloads", {}).items():
            for name in body.get("summary", {}):
                if name != "failed":
                    names.setdefault(workload, {})[name] = None
    print("change/parent median ratios, one per file; product along each chained run "
          "[range from each file's quartiles]:")
    for workload, metrics in names.items():
        for name in metrics:
            cells, products = [], []
            for doc, broken in zip(docs, breaks):
                factor = _factor(doc, workload, name)
                if broken and cells:
                    cells.append("|")
                if factor is None:
                    cells.append("n/a")
                    products.append(None)
                    continue
                if broken or not products or products[-1] is None:
                    products.append((1.0, 1.0, 1.0))
                products[-1] = tuple(p * f for p, f in zip(products[-1], factor))
                cells.append(f"{factor[0]:.4f}")
            print(f"{workload:11s} {name:11s} {' '.join(cells)}  product " + " | ".join(
                f"{p:.4f} [{lo:.4f}, {hi:.4f}]" for p, lo, hi in filter(None, products)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default=None, help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=None,
                        help="seed of the first pair; pair i runs seed-base + i")
    parser.add_argument("--out", default=None, help="the BENCH file to write")
    parser.add_argument("--compare", nargs=2, default=None, metavar=("PREV", "CURRENT"),
                        help="print CURRENT's change medians over PREV's and run nothing")
    parser.add_argument("--trajectory", nargs="+", default=None, metavar="FILE",
                        help="print each file's change/parent ratios and their products "
                             "along the chain, and run nothing")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.trajectory:
        trajectory(args.trajectory)
        return 0
    if None in (args.parent, args.out, args.seed_base):
        parser.error("a run needs --parent, --out and --seed-base")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return run(args, argv)


if __name__ == "__main__":
    sys.exit(main())
