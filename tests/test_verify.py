"""Every check of ``hfock verify all`` is its own test case.

The suites in ``hfock.verify`` are the one definition of each cross-route
invariant and its tolerance; this module asserts that each check passes.
The full report is built once, at collection, so that each check name
becomes a case id.
"""
import cmath
import math
import time
from collections import Counter

import pytest

from hfock import bargmann, expint, lerch, moments, verify
from hfock.numerics import integrate_semi_infinite

_t0 = time.perf_counter()
_REPORT = verify.run("all", seed=0)
_ELAPSED = time.perf_counter() - _t0


@pytest.mark.parametrize("check", _REPORT["checks"], ids=lambda c: c["name"])
def test_check(check):
    assert check["status"] == "pass", check["details"]


def test_check_names_unique():
    names = [c["name"] for c in _REPORT["checks"]]
    assert len(names) == len(set(names))


def test_phi_psd_sampling_reports_the_smallest_sampled_ratio():
    (check,) = [c for c in _REPORT["checks"] if c["name"] == "phi-gram-psd-sampling"]
    assert check["details"]["min_eig_over_trace"] > 0.0


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


def test_laplace_gaps_evaluate_each_node_once(monkeypatch):
    real, calls = expint.en_scaled, Counter()

    def counted(n, t):
        calls[n, t] += 1
        return real(n, t)

    monkeypatch.setattr(expint, "en_scaled", counted)
    ns, alphas, tol = range(1, 3), (0.25, 2.0), 1e-10
    direct = [abs(expint.laplace_en(n, a) - integrate_semi_infinite(
        lambda t, n=n, a=a: math.exp(-(a + 1.0) * t) * expint.en_scaled(n, t) if t > 0 else 0.0,
        tol).value) for n in ns for a in alphas]
    unshared = calls.copy()
    calls.clear()
    assert list(verify._laplace_gaps(ns, alphas, tol)) == direct
    # the alpha integrals of one n repeat nodes, and each is computed once
    assert max(unshared.values()) > 1
    assert calls == Counter(dict.fromkeys(unshared, 1))
