"""numpy is loaded by the first call that builds an array, not by import,
and hfock's records are built without ``dataclasses`` (and so ``inspect``).

Each case runs in a fresh interpreter, so modules imported by other tests
cannot mask a module-level ``import numpy``; the modules hfock brings in are
those new in ``sys.modules`` after it ran, so modules that ``site`` imported
cannot mask them either.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")

# modules that import hfock must not bring in
_RECORD_MODULES = ("dataclasses", "inspect")

# run the CLI on the argv in sys.argv[1] with stdout discarded, then report
# whether numpy got imported and which of _RECORD_MODULES hfock brought in
_CLI = """
import contextlib, io, json, sys
before = set(sys.modules)
from hfock import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, "numpy" in sys.modules, sorted(set(sys.modules) - before)]))
"""

_IMPORT = """
import json, sys
before = set(sys.modules)
import hfock
hfock.moments.eta_table(30)
print(json.dumps([0, "numpy" in sys.modules, sorted(set(sys.modules) - before)]))
"""


def _run(code: str, *args: str) -> tuple[bool, list[str]]:
    """Whether numpy got loaded, and the _RECORD_MODULES that hfock imported."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    exit_code, loaded, new_modules = json.loads(proc.stdout)
    assert exit_code == 0
    return loaded, sorted(set(_RECORD_MODULES) & set(new_modules))


def test_import_and_moment_table_skip_numpy():
    assert _run(_IMPORT) == (False, [])


def test_import_builds_no_coefficient_table():
    # the moment table, with the log n! column of efun's cut, the Hermite
    # step factors and kernel_l2_norm_sq's matrix are built on first use
    code = ("import hfock; from hfock import bargmann, moments; "
            "print([len(moments._TABLE.log_eta), len(moments._TABLE.log_factorial), "
            "bargmann._hermite_steps.cache_info().currsize, "
            "bargmann._l2_rule_and_psi.cache_info().currsize])")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=_SRC),
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out == "[0, 0, 0, 0]\n"


@pytest.mark.parametrize("argv", [
    ["moments", "--nmax", "170"],
    ["efun", "--z", "-3"],
    ["kernel", "--z", "1,0.5", "--w=-0.3,2"],
    ["expint", "--x", "1", "--n", "3", "--laplace", "0.5"],
    ["lerch", "--phi", "2", "0.3,0.4"],
    ["bargmann", "--z", "0.5,0.2"],
    ["verify", "expint"],
    ["verify", "moments"],
    ["verify", "bounds"],
    ["verify", "gfs"],
], ids=" ".join)
def test_scalar_command_skips_numpy(argv):
    assert _run(_CLI, json.dumps(argv)) == (False, [])


def test_dbar_command_skips_numpy(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"f": [1.0], "samples": [[1.0, 0.0], [0.0, 1.0]]}))
    assert _run(_CLI, json.dumps(["dbar", "--problem", str(path)])) == (False, [])


def test_array_command_loads_numpy():
    # the control: without it the cases above could pass on a broken probe
    assert _run(_CLI, json.dumps(["gram", "--random", "5"]))[0]


def test_cli_import_skips_the_golden_loader():
    # hfock.golden is test-only; importing it would also load decimal
    code = "import sys, hfock.cli; print(sorted({'decimal', 'hfock.golden'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=_SRC),
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out == "[]\n"
