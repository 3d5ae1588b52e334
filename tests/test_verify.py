"""Every check of ``hfock verify all`` is its own test case.

The suites in ``hfock.verify`` are the one definition of each cross-route
invariant and its tolerance; this module asserts that each check passes.
The full report is built once, at collection, so that each check name
becomes a case id.
"""
import cmath
import functools
import math
import time
from collections import Counter

import pytest

from hfock import bargmann, expint, lerch, moments, space, verify
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


@functools.lru_cache(maxsize=None)
def _report(seed):
    return _REPORT if seed == 0 else verify.run("all", seed=seed)


def _check_of(seed, name):
    (check,) = [c for c in _report(seed)["checks"] if c["name"] == name]
    return check


@pytest.mark.parametrize("seed", range(10))
def test_every_check_holds_a_value_to_its_bound(seed):
    for check in _report(seed)["checks"]:
        assert set(check) == {"name", "status", "bound", "margin", "details"}, check["name"]
        details, bound, margin = check["details"], check["bound"], check["margin"]
        counts = [v for k, v in details.items() if k.endswith("_failures")]
        if margin is None:
            # a count-only check
            assert bound == 0 and counts, check["name"]
            gaps_ok = True
        else:
            assert bound > 0, check["name"]
            # the margin is the worst gap over the bound, and the worst gap is a detail
            assert margin == 0.0 or margin in [v / bound for v in details.values()
                                               if isinstance(v, float)], check["name"]
            gaps_ok = margin <= 1.0
        passes = gaps_ok and all(c == 0 for c in counts)
        assert (check["status"] == "pass") == passes, check["name"]


def test_lerch_phi_consistency_compares_two_routes():
    # phi against the integral route, not against the series phi itself calls
    assert _check_of(0, "lerch-phi-consistency")["details"]["max_gap"] > 0.0


@pytest.mark.parametrize("name", ["gram-psd-sampling", "phi-gram-psd-sampling"])
def test_psd_sampling_draws_new_points_on_every_seed(name):
    gaps = {_check_of(seed, name)["details"]["max_scaled_entry_gap"] for seed in range(10)}
    assert len(gaps) == 10


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
    ("lerch", lerch, "phi", "phi-negative-axis-vs-quadrature",
     lambda n, z, *tol: (n, z) == (3, -0.5)),
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


# (suite, module, route, check, count key, the arguments at which the route
# turns NaN): each route feeds one condition of its check per argument
_NAN_CASES = [
    ("hfock", space, "efun", "efun-growth-sandwich", "sandwich_failures",
     lambda q, *tol: q == 2.0),
    ("expint", expint, "incomplete_gamma_int", "negative-order-definition",
     "equality_failures", lambda m, x: m == 6),
]


@pytest.mark.parametrize("suite, module, route, check, key, at_one_point", _NAN_CASES,
                         ids=[r[3] for r in _NAN_CASES])
def test_nan_case_is_counted_by_its_check(monkeypatch, suite, module, route, check, key,
                                          at_one_point):
    real = getattr(module, route)

    def patched(*args):
        return math.nan if at_one_point(*args) else real(*args)

    monkeypatch.setattr(module, route, patched)
    (result,) = [c for c in verify.SUITES[suite](seed=0) if c["name"] == check]
    assert result["status"] == "fail"
    assert result["details"][key] == 1
    assert (result["bound"], result["margin"]) == (0, None)


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
    assert list(verify._laplace_gaps(expint.laplace_en, ns, alphas, tol)) == direct
    # the alpha integrals of one n repeat nodes, and each is computed once
    assert max(unshared.values()) > 1
    assert calls == Counter(dict.fromkeys(unshared, 1))
