#!/usr/bin/env python3
"""Print the SHA-256 of the stdout of a fixed list of deterministic commands.

Run it from the root of a checkout; each command runs as a fresh
``python -m hfock.cli`` process on that checkout's ``src``, and the ``dbar``
problems are the checkout's ``tools/dbar_problem*.json``.  Each command runs
with one BLAS/OpenMP thread, as ``perfbench/run.py`` runs its ops, so a
digest does not depend on the thread settings of the calling shell.

    python3 tools/cli_digest.py           # print every digest
    python3 tools/cli_digest.py --check   # print the lines that differ from tools/cli_digests.txt
    python3 tools/cli_digest.py --write   # rewrite tools/cli_digests.txt

Without an option, run it on two checkouts (say, a change and its parent)
and diff the outputs: every command whose stdout changed shows up as a
differing line.  ``tools/cli_digests.txt`` is the committed output, so a
change that moves stdout shows as a diff of that file.  Its lines ending in
``[blas]`` are the commands whose process imports numpy, as ``python -X
importtime`` reports it: the eigensolver bits in their stdout may differ
between BLAS builds, so only ``--check`` compares them; the Tier-1 tests
hold the other commands to the file in process.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_digests.txt")
BLAS_MARK = "  [blas]"
HEADER = ("# SHA-256 of the stdout of each command of tools/cli_digest.py; rewrite with --write.\n"
          f"# Lines ending in '{BLAS_MARK.strip()}' load numpy; their digests may differ "
          "between BLAS builds.\n")

COMMANDS = (
    "moments --nmax 170",
    "moments --nmax 30 --format json",
    "moments --nmax 1000 --format json",
    "moments --nmax 60 --tol 1e-9",
    "moments --nmax 40 --tol 1e-13 --format json",
    "efun --z 0 --z 1 --z 0,1 --z -3 --z 2.5,-1.5 --z 20 --z 200",
    "efun --z 520 --z 0.001 --tol 1e-3",
    "kernel --z 1,0.5 --w=-0.3,2",
    "kernel --z 1,0.5 --w=-0.3,2 --ml-normalized",
    "expint --x 1.5 --family 50",
    "expint --x 1 --n 3 --laplace 0.5",
    "bargmann --z 0.5,0.2",
    "bargmann --z 2.5,-1 --xmin -2 --xmax 2 --nx 9",
    "bargmann --z 3,0 --xmin -30 --xmax 30 --nx 5",
    "bargmann --z 6.8 --xmin -1 --xmax 1 --nx 3",
    "lerch --phi 1 0",
    "lerch --phi 2 0.3,0.4",
    "lerch --phi 1 0.99999",
    "expint --x 1 --laplace -0.999999",
    "lerch --phi 3 -0.7",
    "lerch --zeta 2 1",
    "lerch --zeta 1.01 0.5",
    "lerch --zeta 55.7 1956",
    "lerch --lerch 0.5,0.3 1.5 2",
    "lerch --lerch 0 1.5 2",
    "lerch --lerch 0.999,0 1 1",
    "lerch --lerch 0.99,0.1 0.5 0.5",
    "lerch --phi 1 0.9,0.4",
    "lerch --audit phi_tilde:1",
    "lerch --audit phi_tilde:2",
    "lerch --audit phi_tilde:3",
    "lerch --audit eta0_K",
    "dbar --problem tools/dbar_problem.json",
    "dbar --problem tools/dbar_problem_tiny_f.json",
    "gram --random 20 --seed 5",
    "gram --random 200 --seed 1 --radius 5",
    *(f"verify all --seed {k}" for k in range(10)),
    "verify dbar --seed 3",
    "verify bounds --nmax 170",
    "verify numerics --seed 0",
    "verify expint --seed 0",
    "verify lerch --seed 0",
    "verify moments --seed 1",
    "verify gfs --points 20 --seed 7",
    "verify moments --nmax 300 --points 9 --seed 5",
)


def _digest_lines(marked: bool):
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for command in COMMANDS:
        # -X importtime writes a stderr line "import time: self | cumulative | name"
        # for each module the process imports; the others are the command's own
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "hfock.cli",
                               *command.split()],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
        lines = proc.stderr.splitlines(True)
        sys.stderr.buffer.write(b"".join(x for x in lines if not x.startswith(b"import time:")))
        imported = {x.rpartition(b"|")[2].strip() for x in lines if x.startswith(b"import time:")}
        line = f"{hashlib.sha256(proc.stdout).hexdigest()}  {command}"
        yield line + BLAS_MARK if marked and b"numpy" in imported else line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="print the lines that differ from tools/cli_digests.txt "
                           "(- committed, + now); exit 1 if any do")
    mode.add_argument("--write", action="store_true", help="rewrite tools/cli_digests.txt")
    args = parser.parse_args(argv)
    if args.write:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            fh.write(HEADER + "".join(line + "\n" for line in _digest_lines(marked=True)))
    elif args.check:
        with open(DIGESTS, encoding="utf-8") as fh:
            old = [line for line in fh.read().splitlines() if not line.startswith("#")]
        new = list(_digest_lines(marked=True))
        differ = [f"-{line}" for line in old if line not in new] + \
                 [f"+{line}" for line in new if line not in old]
        print("\n".join(differ) if differ else f"all {len(new)} digests match", flush=True)
        return 1 if differ else 0
    else:
        for line in _digest_lines(marked=False):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
