#!/usr/bin/env python3
"""Print the SHA-256 of the stdout of a fixed list of deterministic commands.

Run it from the root of a checkout; each command runs as a fresh
``python -m hfock.cli`` process on that checkout's ``src``, and the ``dbar``
problems are the checkout's ``tools/dbar_problem*.json``.  Run it on two
checkouts (say, a change and its parent) and diff the outputs: every command
whose stdout changed shows up as a differing line.  The digests are not a
committed snapshot, because eigensolver bits in ``gram`` and ``verify`` may
differ between BLAS builds.  Each command runs with one BLAS/OpenMP thread,
as ``perfbench/run.py`` runs its ops, so a digest does not depend on the
thread settings of the calling shell.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys

COMMANDS = (
    "moments --nmax 170",
    "moments --nmax 30 --format json",
    "moments --nmax 1000 --format json",
    "moments --nmax 60 --tol 1e-9",
    "moments --nmax 40 --tol 1e-13 --format json",
    "efun --z 0 --z 1 --z 0,1 --z -3 --z 2.5,-1.5 --z 20 --z 200",
    "kernel --z 1,0.5 --w=-0.3,2",
    "kernel --z 1,0.5 --w=-0.3,2 --ml-normalized",
    "expint --x 1.5 --family 50",
    "expint --x 1 --n 3 --laplace 0.5",
    "bargmann --z 0.5,0.2",
    "bargmann --z 2.5,-1 --xmin -2 --xmax 2 --nx 9",
    "lerch --phi 1 0",
    "lerch --phi 2 0.3,0.4",
    "lerch --phi 2 0.3,0.4 --tol 1e-6",
    "lerch --phi 3 -0.7",
    "lerch --zeta 2 1",
    "lerch --lerch 0.5,0.3 1.5 2",
    "lerch --lerch 0 1.5 2",
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


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for command in COMMANDS:
        argv = command.split()
        proc = subprocess.run([sys.executable, "-m", "hfock.cli", *argv],
                              env=env, stdout=subprocess.PIPE, check=False)
        digest = hashlib.sha256(proc.stdout).hexdigest()
        print(f"{digest}  {command}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
