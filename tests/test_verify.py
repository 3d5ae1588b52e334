"""Every check of ``hfock verify all`` is its own test case.

The suites in ``hfock.verify`` are the one definition of each cross-route
invariant and its tolerance; this module asserts that each check passes.
The full report is built once, at collection, so that each check name
becomes a case id.
"""
import time

import pytest

from hfock import verify

_t0 = time.perf_counter()
_REPORT = verify.run("all", seed=0)
_ELAPSED = time.perf_counter() - _t0


@pytest.mark.parametrize("check", _REPORT["checks"], ids=lambda c: c["name"])
def test_check(check):
    assert check["status"] == "pass", check["details"]


def test_check_names_unique():
    names = [c["name"] for c in _REPORT["checks"]]
    assert len(names) == len(set(names))


def test_wall_clock_budget():
    assert _ELAPSED < 60.0


@pytest.mark.parametrize("seed", range(10))
def test_gfs_draws_stay_in_validated_region(seed):
    assert verify.run("gfs", seed=seed)["n_failed"] == 0
