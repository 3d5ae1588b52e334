"""Every check of ``hfock verify all`` is its own test case.

The suites in ``hfock.verify`` are the one definition of each cross-route
invariant and its tolerance; this module asserts that each check passes.
The full report is built once, at collection, so that each check name
becomes a case id.
"""
import cmath
import math
import time

import pytest

from hfock import bargmann, lerch, moments, verify

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


def test_suite_rejects_an_argument_it_does_not_read():
    with pytest.raises(TypeError):
        verify.suite_numerics(tol=1e-1)


# (suite, module, route, check, the arguments at which the route turns NaN
# when only one point does): each route feeds its check's gaps, and the one
# point comes after finite ones
_NAN_ROUTES = [
    ("moments", moments, "eta_binomial", "eta-binomial-vs-closed-form",
     lambda n: n == 7),
    ("lerch", lerch, "hurwitz_zeta_integral", "hurwitz-zeta-routes",
     lambda s, a, tol: (s, a) == (3.0, 1.0)),
    ("bargmann", bargmann, "kernel_l2_norm_sq", "l2-rotation-invariance",
     lambda z: z == cmath.rect(1.3, 5 * math.pi / 4.0)),
]


@pytest.mark.parametrize("every_point", [True, False], ids=["every-point", "one-later-point"])
@pytest.mark.parametrize("suite, module, route, check, at_one_point", _NAN_ROUTES,
                         ids=[r[3] for r in _NAN_ROUTES])
def test_nan_route_fails_its_check(monkeypatch, suite, module, route, check, at_one_point,
                                   every_point):
    real = getattr(module, route)

    def patched(*args):
        value = real(*args)
        return math.nan if every_point or at_one_point(*args) else value

    monkeypatch.setattr(module, route, patched)
    (result,) = [c for c in verify.SUITES[suite](seed=0) if c["name"] == check]
    assert result["status"] == "fail"
    assert all(math.isnan(v) for v in result["details"].values())
