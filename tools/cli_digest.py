#!/usr/bin/env python3
"""Print the SHA-256 of the stdout of a fixed list of deterministic commands.

Run it from the root of a checkout; each command runs as a fresh
``python -m hfock.cli`` process on that checkout's ``src``.  Run it on two
checkouts (say, a change and its parent) and diff the outputs: every command
whose stdout changed shows up as a differing line.  The digests are not a
committed snapshot, because eigensolver bits in ``gram`` and ``verify`` may
differ between BLAS builds.
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
    "efun --z 0 --z 1 --z 0,1 --z -3 --z 2.5,-1.5 --z 20 --z 200",
    "kernel --z 1,0.5 --w=-0.3,2",
    "kernel --z 1,0.5 --w=-0.3,2 --ml-normalized",
    "expint --x 1.5 --family 50",
    "expint --x 1 --n 3 --laplace 0.5",
    "bargmann --z 0.5,0.2",
    "lerch --phi 2 0.3,0.4",
    "lerch --phi 3 -0.7",
    "lerch --zeta 2 1",
    "lerch --audit phi_tilde:2",
    "lerch --audit eta0_K",
    "gram --random 20 --seed 5",
    "verify all --seed 0",
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    for command in COMMANDS:
        argv = command.split()
        proc = subprocess.run([sys.executable, "-m", "hfock.cli", *argv],
                              env=env, stdout=subprocess.PIPE, check=False)
        digest = hashlib.sha256(proc.stdout).hexdigest()
        print(f"{digest}  {command}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
