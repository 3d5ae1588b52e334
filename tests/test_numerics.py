import math
import random
import sys
import time

import numpy as np
import pytest

from hfock import bargmann, lerch, moments, numerics, verify
from hfock.errors import AccuracyError, ConfigurationError
from hfock.numerics import (csum, disk_point, gauss_hermite, gauss_laguerre,
                            integrate_semi_infinite, wirtinger_fd)


class TestGaussLaguerre:
    def test_one_point_rule(self):
        rule = gauss_laguerre(1)
        assert rule.nodes[0] == pytest.approx(1.0, abs=1e-15)
        assert rule.weights[0] == pytest.approx(1.0, abs=1e-15)

    def test_two_point_moments(self):
        rule = gauss_laguerre(2)
        for k, exact in enumerate((1.0, 1.0, 2.0, 6.0)):
            got = float(np.dot(rule.weights, rule.nodes ** k))
            assert got == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 20])
    def test_exact_to_degree_2n_minus_1(self, n):
        rule = gauss_laguerre(n)
        for k in range(2 * n):
            got = float(np.dot(rule.weights, rule.nodes ** k))
            assert abs(got - math.factorial(k)) <= 1e-13 * math.factorial(k)

    def test_64_point_rule_hits_moment_integral(self, gold):
        rule = gauss_laguerre(64)
        got = float(np.dot(rule.weights, 1.0 / (1.0 + rule.nodes) ** 2))
        assert got == pytest.approx(gold["eta0"], abs=1e-6)

    def test_structure(self):
        for n in (2, 64):
            rule = gauss_laguerre(n)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(rule.weights > 0)

    @pytest.mark.parametrize("n", [0, -3, 65])
    def test_rejects_bad_order(self, n):
        with pytest.raises(ConfigurationError):
            gauss_laguerre(n)


class TestGaussHermite:
    def test_one_point_rule(self):
        rule = gauss_hermite(1)
        assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert rule.weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_three_point_second_moment(self):
        rule = gauss_hermite(3)
        got = float(np.dot(rule.weights, rule.nodes ** 2))
        assert got == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14)

    def test_40_point_ground_state_norm(self):
        # psi_0(x)^2 with the Gaussian factored out is the constant 1/sqrt(pi)
        rule = gauss_hermite(40)
        got = float(np.dot(rule.weights, np.full_like(rule.nodes, 1.0 / math.sqrt(math.pi))))
        assert got == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 12, 20])
    def test_even_moments(self, n):
        rule = gauss_hermite(n)
        for k in range(0, 2 * n, 2):
            exact = math.gamma((k + 1) / 2.0)
            got = float(np.dot(rule.weights, rule.nodes ** k))
            assert abs(got - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("n", [0, 201])
    def test_rejects_bad_order(self, n):
        with pytest.raises(ConfigurationError):
            gauss_hermite(n)


@pytest.mark.parametrize("rule, n", [(gauss_hermite, 200), (gauss_laguerre, 64)],
                         ids=["hermite", "laguerre"])
def test_weights_normal_at_the_cap(rule, n):
    # the fact that lets the Christoffel recurrence go without rescaling or clamping
    weights = rule(n).weights
    assert np.all(np.isfinite(weights))
    assert weights.min() >= sys.float_info.min


def _scalar_christoffel_weight(x, diag, offdiag, mu0):
    # the scalar recurrence at one node: the reference the array version matches bit for bit
    p_prev = 0.0
    p_cur = 1.0 / math.sqrt(mu0)
    total = p_cur * p_cur
    for j in range(len(diag) - 1):
        p_next = ((x - diag[j]) * p_cur - (offdiag[j - 1] if j > 0 else 0.0) * p_prev) / offdiag[j]
        p_prev, p_cur = p_cur, p_next
        total += p_cur * p_cur
    return 1.0 / total


_RECURRENCES = {
    "laguerre": (gauss_laguerre, lambda n: [2.0 * k + 1.0 for k in range(n)],
                 lambda n: [float(k) for k in range(1, n)], 1.0),
    "hermite": (gauss_hermite, lambda n: [0.0] * n,
                lambda n: [math.sqrt(0.5 * k) for k in range(1, n)], math.sqrt(math.pi)),
}


@pytest.mark.parametrize("name, n", [
    *((name, n) for name in _RECURRENCES for n in (1, 2, 3, 20, 64)), ("hermite", 200),
], ids=str)
def test_weights_bit_identical_to_scalar_recurrence(name, n):
    rule, diag, offdiag, mu0 = _RECURRENCES[name]
    got = rule(n)
    ref = np.asarray([_scalar_christoffel_weight(x, diag(n), offdiag(n), mu0)
                      for x in got.nodes])
    assert got.weights.tobytes() == ref.tobytes()


class TestIntegrateSemiInfinite:
    def test_exponential(self):
        res = integrate_semi_infinite(lambda t: math.exp(-t), 1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.abs_error_estimate >= 0
        assert res.nodes_used >= 1

    def test_moment_integrand_order_zero(self, gold):
        res = integrate_semi_infinite(lambda t: math.exp(-t) / (1 + t) ** 2, 1e-12)
        assert res.value == pytest.approx(gold["eta0"], abs=1e-12)

    def test_moment_integrand_order_one(self, gold):
        res = integrate_semi_infinite(lambda t: t * math.exp(-t) / (1 + t) ** 2, 1e-12)
        assert res.value == pytest.approx(gold["eta1"], abs=1e-12)

    @pytest.mark.parametrize("k", range(21))
    def test_factorial_moments(self, k):
        res = integrate_semi_infinite(lambda t: t ** k * math.exp(-t), 1e-12)
        assert res.value == pytest.approx(math.factorial(k), rel=1e-11)

    def test_complex_integrand(self):
        res = integrate_semi_infinite(lambda t: (1 + 2j) * math.exp(-t), 1e-12)
        assert res.value == pytest.approx(1 + 2j, abs=1e-11)

    def test_budget_exhaustion_carries_best_estimate(self, monkeypatch):
        # the 8 starting panels and one bisection: exp(-t) needs more panels
        monkeypatch.setattr(numerics, "_MAX_EVALS", 10 * numerics._PANEL_EVALS)
        with pytest.raises(AccuracyError) as exc:
            integrate_semi_infinite(lambda t: math.exp(-t), 1e-12)
        assert exc.value.result is not None
        assert exc.value.result.value == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 3: the tail past the last panel is in no error estimate, so "
        "the call returns a value 2.07e-12 off while its estimate reads 9.6e-13"))
    def test_slow_tail_meets_tol_or_raises(self):
        try:
            res = integrate_semi_infinite(lambda t: (1.0 + t) ** -1.7, 1e-12)
        except AccuracyError:
            return
        assert abs(res.value - 1 / 0.7) <= 1e-12 * (1 / 0.7)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
    def test_rejects_bad_tol(self, tol):
        # a nan tol fails the guard at once rather than spending the budget
        with pytest.raises(ConfigurationError):
            integrate_semi_infinite(lambda t: math.exp(-t), tol)

    @pytest.mark.parametrize("f, cause", [
        (lambda t: t ** 120 * math.exp(-t), OverflowError),
        (lambda t: 1.0 / (t - t), ZeroDivisionError),
    ], ids=["power", "division"])
    def test_overflowing_integrand_raises_at_once(self, f, cause):
        # t**120 overflows on the first panel's far nodes: the integrator must
        # stop there, not refine toward its 100 000-evaluation budget
        start = time.perf_counter()
        with pytest.raises(AccuracyError, match="integrand overflowed at t=") as exc:
            integrate_semi_infinite(f)
        assert time.perf_counter() - start < 1.0
        assert isinstance(exc.value.__cause__, cause)

    @pytest.mark.parametrize("f", [
        lambda t: (t ** 60 * t ** 60) * math.exp(-t),
        lambda t: math.inf,
        lambda t: complex(math.nan, 1.0) * math.exp(-t),
    ], ids=["inf_times_zero", "inf", "complex_nan"])
    def test_non_finite_integrand_raises_at_once(self, f):
        # a nan or inf node value makes the panel's error estimate non-finite;
        # the integrator must stop there, not refine toward its budget
        start = time.perf_counter()
        with pytest.raises(AccuracyError, match="non-finite"):
            integrate_semi_infinite(f)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("a", [-0.3, -0.5, -0.7, -0.9])
    def test_endpoint_singularity_meets_tol_or_raises(self, a, tol):
        # t^a at the origin drives the bisection to its 1e-15 floor; the
        # error the floor panels carry must count, so the call either meets
        # tol or says it cannot
        exact = math.gamma(a + 1.0)
        try:
            res = integrate_semi_infinite(lambda t: t ** a * math.exp(-t), tol)
        except AccuracyError as exc:
            assert "refinement floor reached" in str(exc)
        else:
            assert abs(res.value - exact) <= tol * exact


def _popped_panels(monkeypatch):
    """Every panel the integrator pops off its heap, as (-err, seq, a, b, value)."""
    popped = []
    pop = numerics.heapq.heappop

    def record(heap):
        popped.append(pop(heap))
        return popped[-1]

    monkeypatch.setattr(numerics.heapq, "heappop", record)
    return popped


def _floor_error(popped):
    return sum(-p[0] for p in popped if p[3] - p[2] < 1e-15)


def test_floor_panel_counts_and_the_call_still_converges(monkeypatch):
    # at a = -0.3 one floor panel carries an error of about 4e-13, under
    # tol * Gamma(0.7) = 1.3e-12: it is counted, and the call converges
    popped = _popped_panels(monkeypatch)
    res = integrate_semi_infinite(lambda t: t ** -0.3 * math.exp(-t), 1e-12)
    frozen_err = _floor_error(popped)
    assert frozen_err > 0.0
    assert res.abs_error_estimate >= frozen_err
    assert abs(res.value - math.gamma(0.7)) <= 1e-12 * math.gamma(0.7)


def test_floor_raise_reports_the_floor_error(monkeypatch):
    popped = _popped_panels(monkeypatch)
    with pytest.raises(AccuracyError, match="refinement floor reached") as exc:
        integrate_semi_infinite(lambda t: t ** -0.7 * math.exp(-t), 1e-10)
    frozen_err = _floor_error(popped)
    result = exc.value.result
    assert frozen_err > 1e-10 * abs(result.value)
    assert result.abs_error_estimate >= frozen_err


def _eta_integrand(n):
    """The scalar eta_n integrand whose node values moments' eta panels
    compute: t ** n up to n = 65, log scale beyond."""
    if n <= 65:
        # exp(-t) is 0.0 from t = 745.2 on, so 0.0 there keeps the bits and
        # spares t ** n its overflow at the integrator's farthest nodes
        return lambda t: t ** n * math.exp(-t) / ((1.0 + t) * (1.0 + t)) if t < 746.0 else 0.0
    return lambda t: math.exp(n * math.log(t) - t - 2.0 * math.log1p(t)) if t > 0 else 0.0


def _log_eta_integrand(n):
    """The scalar integrand of log_eta_quadrature(n): eta_n's, rescaled by
    exp(-lgamma(n+1))."""
    shift = math.lgamma(n + 1)

    def scaled(t):
        if t <= 0.0:
            return 0.0
        return math.exp(n * math.log(t) - t - 2.0 * math.log1p(t) - shift)

    return scaled


def _en_identity_integrand(n):
    """The scalar integrand of en_integral_identity(n)'s left side, the
    integral of (u-1)^n e^(-u)/u over (1, inf), shifted to t = u - 1."""
    return lambda t: t ** n * math.exp(-t - 1.0) / (1.0 + t)


def _lerch_integrand(z, s, a):
    """The scalar integrand of lerch_phi_integral(z, s, a), whose integral
    is Gamma(s) times the Lerch transcendent."""
    z = complex(z)
    return lambda t: t ** (s - 1.0) * math.exp(-a * t) / (1.0 - z * math.exp(-t))


def _hurwitz_integrand(s, a):
    """The scalar integrand of hurwitz_zeta_integral(s, a): Gamma(s) zeta(s, a)'s,
    less its singular part t^(s-2) e^(-at) on the whole half-line."""
    return lambda t: t ** (s - 1.0) * math.exp(-a * t) * (1.0 / -math.expm1(-t) - 1.0 / t)


def test_hopeless_call_exhausts_the_budget_quickly():
    # log eta_400 at 1e-14 cannot converge; the 100 000-evaluation budget
    # ends it well inside a second on a 2-vCPU machine
    start = time.perf_counter()
    with pytest.raises(AccuracyError, match="node budget .* exhausted"):
        moments.log_eta_quadrature(400, 1e-14)
    assert time.perf_counter() - start < 5.0


def _integrands(monkeypatch, module, call):
    """The argument tuples ``call`` hands to ``module.integrate_semi_infinite``."""
    seen = []

    def record(*args):
        seen.append(args)
        return integrate_semi_infinite(*args)

    with monkeypatch.context() as m:
        m.setattr(module, "integrate_semi_infinite", record)
        call()
    return seen


_INTEGRAND_FAMILIES = {
    # the moment, shifted-moment and Hurwitz integrals take panels of their
    # own, held to these scalar integrands bit for bit by the
    # test_*_route_bit_identical_to_* tests: both branches of the eta
    # integrand, t**n up to n = 65, log scale beyond, and eta_0 at 1e-14,
    # the Laguerre projection's g_0
    "eta": lambda patch: [(_eta_integrand(n),) for n in (0, 30, 65, 66, 100, 170)] + [
        (_eta_integrand(0), 1e-14)],
    "log_eta": lambda patch: [(_log_eta_integrand(n), 1e-12) for n in (200, 400)],
    "en_identity": lambda patch: [(_en_identity_integrand(n), 1e-11) for n in (0, 25, 60)],
    "laguerre_projection": lambda patch: _integrands(
        patch, moments, moments._laguerre_projection.__wrapped__),
    "hurwitz": lambda patch: [(_hurwitz_integrand(s, a), 1e-10)
                              for s, a in ((2.5, 1.3), (1.6, 1.0), (1.2, 1.0))],
    # factorial moments; incomplete gamma and the Laplace-E_n integrals
    "verify": lambda patch: (_integrands(patch, verify, verify.suite_numerics)
                             + _integrands(patch, verify, verify.suite_expint)),
    "weighted_gf": lambda patch: [
        args for z, x in ((0.15, 0.5), (0.1 + 0.05j, -1.0), (0.12 - 0.02j, 0.0))
        for args in _integrands(
            patch, bargmann, lambda: bargmann.weighted_generating_pair(z, x))],
}


def _rule_moments(pairs, centre_weight):
    """Degree k -> the symmetric panel rule's value of the integral of x^k on
    (-1, 1), minus the exact (1 + (-1)^k)/(k+1), summed in mpmath at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        xs = [mp.mpf(0)] + [mp.mpf(s * x) for x, _ in pairs for s in (-1, 1)]
        ws = [mp.mpf(centre_weight)] + [mp.mpf(w) for _, w in pairs for _ in (-1, 1)]
        return {k: float(mp.fsum(w * x ** k for x, w in zip(xs, ws))
                         - mp.mpf(1 + (-1) ** k) / (k + 1))
                for k in range(27)}


def test_kronrod_and_gauss_panel_rules():
    # nodes are stored as +-x pairs, so both rules are symmetric by layout
    # and their odd moments vanish; the even ones show the degree
    pairs = numerics._K15_PAIRS
    kronrod = _rule_moments([(x, wk) for x, wk, _ in pairs], numerics._K15_CENTER_W)
    gauss = _rule_moments([(x, wg) for x, _, wg in pairs if wg], numerics._G7_CENTER_W)
    xs = [x for x, _, _ in pairs]
    assert len(set(xs)) == 7 and all(0.0 < x < 1.0 for x in xs)
    # the Kronrod-only nodes interlace with the Gauss ones
    assert [wg > 0.0 for _, _, wg in sorted(pairs)] == [
        False, True, False, True, False, True, False]
    # the double-precision constants leave a few u of the exact moments;
    # degree 0 says each rule's weights sum to 2, the length of (-1, 1)
    assert all(abs(kronrod[k]) <= 1e-15 for k in range(23))
    assert abs(kronrod[24]) > 1e-10
    assert all(abs(gauss[k]) <= 1e-15 for k in range(14))
    assert abs(gauss[14]) > 1e-10


def _mp_integral(f):
    # the integral of the double-precision integrand f over (0, inf) by
    # mpmath's tanh-sinh rule, split so a peak near t = n (eta, n <= 400)
    # sits inside one piece.  Where t ** n overflows, exp(-t) has long
    # underflowed, so those samples count as 0.
    mp = pytest.importorskip("mpmath")

    def g(t):
        try:
            return f(float(t))
        except OverflowError:
            return 0.0

    with mp.workdps(20):
        value, err = mp.quad(g, [0, 1, 4, 16, 64, 256, 1024, mp.inf], error=True)
    value = complex(value) if isinstance(value, mp.mpc) else float(value)
    return value, float(err)


@pytest.mark.parametrize("family", sorted(_INTEGRAND_FAMILIES))
def test_integrand_families_meet_tol_against_mpmath(monkeypatch, family):
    # every in-repo integrand lands within its requested relative tol of an
    # mpmath reference.  lerch_phi_integral is held to mpmath in
    # tests/test_lerch.py
    calls = _INTEGRAND_FAMILIES[family](monkeypatch)
    assert calls
    for args in calls:
        tol = args[1] if len(args) > 1 else 1e-12
        got = integrate_semi_infinite(*args).value
        ref, ref_err = _mp_integral(args[0])
        assert ref_err <= 1e-2 * tol * abs(ref)
        assert abs(got - ref) <= tol * abs(ref)


def _reference_integrate(f, tol=1e-12):
    """integrate_semi_infinite without its panel-node cache and its gated
    re-sum: node arithmetic inline, every panel re-summed on every step."""

    def node_at_one(a, b):
        # whether a K15 node of the panel (a, b) rounds to u = 1
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        nodes = (mid + half * x for x in (0.0, *(p[0] for p in numerics._K15_PAIRS)))
        return any(1.0 - u == 0.0 for u in nodes)

    def panel(a, b):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        try:
            u = mid
            r = 1.0 - u
            centre = f(u / r) / (r * r)
            kronrod = numerics._K15_CENTER_W * centre
            gauss = numerics._G7_CENTER_W * centre
            for x, wk, wg in numerics._K15_PAIRS:
                dx = half * x
                u = mid - dx
                r = 1.0 - u
                pair = f(u / r) / (r * r)
                u = mid + dx
                r = 1.0 - u
                pair += f(u / r) / (r * r)
                kronrod += wk * pair
                gauss += wg * pair
        except (OverflowError, ZeroDivisionError) as exc:
            raise AccuracyError(f"integrand overflowed at t={u / r!r}") from exc
        err = abs(half * (kronrod - gauss))
        if not math.isfinite(err):
            raise AccuracyError("integrand produced non-finite values")
        return half * kronrod, err

    budget = numerics._MAX_EVALS
    panels, frozen, seq, evals = [], [], 0, 0
    for i in range(8):
        val, err = panel(i / 8, (i + 1) / 8)
        evals += numerics._PANEL_EVALS
        numerics.heapq.heappush(panels, (-err, seq, i / 8, (i + 1) / 8, val))
        seq += 1
    while True:
        counted = panels + frozen
        total = sum(p[4] for p in counted)
        total_err = sum(-p[0] for p in counted)
        result = numerics.IntegralResult(total, total_err, evals)
        if total_err <= tol * abs(total):
            return result
        if frozen and sum(-p[0] for p in frozen) > tol * abs(total):
            raise AccuracyError(
                f"refinement floor reached (error estimate {total_err:.3e})", result=result)
        if evals >= budget:
            raise AccuracyError(
                f"node budget {budget} exhausted (error estimate {total_err:.3e})", result=result)
        popped = numerics.heapq.heappop(panels)
        _, _, a, b, _ = popped
        mid = 0.5 * (a + b)
        if b - a < 1e-15 or node_at_one(mid, b):
            frozen.append(popped)
            continue
        for lo, hi in ((a, mid), (mid, b)):
            val, err = panel(lo, hi)
            evals += numerics._PANEL_EVALS
            numerics.heapq.heappush(panels, (-err, seq, lo, hi, val))
            seq += 1


def _power_tail(t):
    # (1+t)^-1.3: the bisection runs toward u = 1 until splitting a panel
    # would put a node at u = 1, where t = u/(1-u) divides by zero
    return (1.0 + t) ** -1.3


_IDENTITY_CASES = {
    # name: (integrate_semi_infinite's arguments, text the outcome holds)
    "floor_converges": ((lambda t: t ** -0.3 * math.exp(-t), 1e-12), "IntegralResult"),
    "floor_raises": ((lambda t: t ** -0.7 * math.exp(-t), 1e-10), "refinement floor reached"),
    "overflow_power": ((lambda t: t ** 120 * math.exp(-t),), "integrand overflowed at t="),
    "overflow_division": ((lambda t: 1.0 / (t - t),), "integrand overflowed at t="),
    "non_finite": ((lambda t: (t ** 60 * t ** 60) * math.exp(-t),), "non-finite"),
    "complex": ((lambda t: (1 + 2j) * math.exp(-t),), "IntegralResult"),
    "u_equals_one": ((_power_tail,), "refinement floor reached"),
}


def _assert_identical_to_reference(args, warm=True):
    want = _outcome(_reference_integrate, *args)
    numerics._panel_table.cache_clear()
    assert _outcome(integrate_semi_infinite, *args) == want  # cold node cache
    if warm:
        assert _outcome(integrate_semi_infinite, *args) == want
    return want


def _outcome(integrate, f, *args):
    """Every node f sees, in order, and the result or the raised error's
    text, cause and attached result, as reprs."""
    nodes = []

    def recorded(t):
        nodes.append(t)
        return f(t)

    try:
        res = integrate(recorded, *args)
    except AccuracyError as exc:
        return nodes, str(exc), repr(exc.__cause__), repr(exc.result)
    return nodes, repr(res)


@pytest.mark.parametrize("family", sorted(_INTEGRAND_FAMILIES))
def test_integrand_families_bit_identical_to_reference(monkeypatch, family):
    # the node cache and the gated re-sum change no node f sees, no value,
    # error estimate or node count, and no error text
    calls = _INTEGRAND_FAMILIES[family](monkeypatch)
    assert calls
    for args in calls:
        _assert_identical_to_reference(args)


@pytest.mark.parametrize("case", sorted(_IDENTITY_CASES))
def test_edge_cases_bit_identical_to_reference(case):
    args, text = _IDENTITY_CASES[case]
    assert text in _assert_identical_to_reference(args)[1]


@pytest.mark.parametrize("case, cause", [
    ("overflow_power", OverflowError), ("overflow_division", ZeroDivisionError)])
def test_overflow_message_names_a_node_where_f_raises(case, cause):
    f = _IDENTITY_CASES[case][0][0]
    message = _outcome(integrate_semi_infinite, f)[1]
    with pytest.raises(cause):
        f(float(message.rsplit("t=", 1)[1]))


@pytest.mark.parametrize("p", [1.05, 1.1, 1.2, 1.3, 1.4, 1.5])
@pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-14])
def test_panel_with_a_node_at_u_equals_one_is_frozen(p, tol):
    # a slowly decaying tail drives the bisection toward u = 1; the panel
    # whose split would put a node there is frozen like a too-narrow one,
    # so f never sees t = inf and the call ends at the floor, at once
    nodes = []

    def f(t):
        nodes.append(t)
        return (1.0 + t) ** -p

    start = time.perf_counter()
    with pytest.raises(AccuracyError, match="refinement floor reached") as exc:
        integrate_semi_infinite(f, tol)
    assert time.perf_counter() - start < 1.0
    assert all(map(math.isfinite, nodes))
    assert exc.value.result.nodes_used == len(nodes)


def test_budget_exhaustion_bit_identical_to_reference(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_EVALS", 10 * numerics._PANEL_EVALS)
    want = _assert_identical_to_reference((lambda t: math.exp(-t),))
    assert want[1].startswith("node budget 150 exhausted")


def test_hopeless_call_bit_identical_to_reference():
    # log eta_400 at 1e-14 exhausts the full budget with its error near tol,
    # where the gate re-sums on most steps
    want = _assert_identical_to_reference((_log_eta_integrand(400), 1e-14), warm=False)
    assert want[1].startswith(f"node budget {numerics._MAX_EVALS} exhausted")


def _route_outcome(monkeypatch, call, module=moments):
    """What ``call`` returns, or its error's text, cause and attached result,
    with every IntegralResult that ``module``'s quadrature returned, as reprs."""
    results = []

    def record(*args):
        results.append(numerics._integrate_panels(*args))
        return results[-1]

    with monkeypatch.context() as m:
        m.setattr(module, "_integrate_panels", record)
        try:
            value = call()
        except (AccuracyError, ConfigurationError) as exc:
            return str(exc), repr(exc.__cause__), repr(getattr(exc, "result", None))
    return repr(value), repr(results)


def _scalar_outcome(f, tol, finish):
    try:
        res = integrate_semi_infinite(f, tol)
    except (AccuracyError, ConfigurationError) as exc:
        return str(exc), repr(exc.__cause__), repr(getattr(exc, "result", None))
    return repr(finish(res.value)), repr([res])


def _clear_panel_caches():
    numerics._panel_table.cache_clear()


@pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-13, 1e-14, math.nan])
def test_moment_route_bit_identical_to_eta_integrand(monkeypatch, tol):
    # eta_quadrature's panels give the value, error estimate and node count,
    # or the error, of the scalar integrand through integrate_semi_infinite
    _clear_panel_caches()
    kinds = set()  # 2 for a value, 3 for an error
    for n in range(171):
        want = _scalar_outcome(_eta_integrand(n), tol, lambda v: v)
        assert _route_outcome(monkeypatch, lambda: moments.eta_quadrature(n, tol)) == want, n
        kinds.add(len(want))
    assert kinds == ({3} if math.isnan(tol) else {2})


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-14, math.nan])
def test_moment_route_bit_identical_to_log_eta_integrand(monkeypatch, tol):
    _clear_panel_caches()
    outcomes = []
    for n in [*range(0, 400, 7), 400]:
        shift = math.lgamma(n + 1)
        want = _scalar_outcome(_log_eta_integrand(n), tol, lambda v: shift + math.log(v))
        assert _route_outcome(monkeypatch, lambda: moments.log_eta_quadrature(n, tol)) == want, n
        outcomes.append(want[0])
    if tol == 1e-14:  # the sweep meets the budget's give-up
        assert outcomes[-1].startswith(f"node budget {numerics._MAX_EVALS} exhausted")


@pytest.mark.parametrize("tol", [1e-9, 1e-11, 1e-13, math.nan])
def test_moment_route_bit_identical_to_en_identity_integrand(monkeypatch, tol):
    # the shifted moment runs on eta's linear panels with its own factors;
    # en_integral_identity itself takes tol 1e-11
    _clear_panel_caches()
    for n in range(61):
        want = _scalar_outcome(_en_identity_integrand(n), tol, lambda v: v)
        if tol == 1e-11:
            got = _route_outcome(monkeypatch, lambda: moments.en_integral_identity(n)[0])
        else:
            got = _route_outcome(monkeypatch, lambda: moments._moment_integral(
                n, tol, moments._shifted_node).value)
        assert got == want, n


def _table_nodes(node, a, b):
    """(factors, (wk, wg)) at the 15 nodes of _panel_table(node, a, b), centre first."""
    centre, pairs = numerics._panel_table(node, a, b)
    rows = [(centre[:-2], centre[-2:])]
    for row in pairs:
        half = (len(row) - 2) // 2
        rows += [(row[:half], row[-2:]), (row[half:-2], row[-2:])]
    return rows


def _lerch_node_value(z, s, a):
    z, p, na = complex(z), s - 1.0, -a
    return lambda t, e, d, j: t ** p * math.exp(na * t) / (1.0 - z * e) / j


def _hurwitz_node_value(s, a):
    p, na = s - 1.0, -a
    return lambda t, e, d, j: t ** p * math.exp(na * t) * (1.0 / d - 1.0 / t) / j


_NODE_ROUTES = {
    # name: (node function, scalar integrand, the route's node value from the
    # node's factors in the route's order of operations)
    **{f"linear-{n}": (moments._linear_node, _eta_integrand(n),
                       lambda t, e, d, j, p=float(n): t ** p * e / d / j) for n in (0, 30, 65)},
    **{f"shifted-{n}": (moments._shifted_node, _en_identity_integrand(n),
                        lambda t, e, d, j, p=float(n): t ** p * e / d / j) for n in (0, 1, 30, 60)},
    "log-100": (moments._log_node, _eta_integrand(100),
                lambda lt, t, m, j: math.exp(100.0 * lt - t - m - 0.0) / j),
    **{f"log-eta-{n}": (moments._log_node, _log_eta_integrand(n),
                        lambda lt, t, m, j, p=float(n), c=math.lgamma(n + 1):
                        math.exp(p * lt - t - m - c) / j) for n in (0, 400)},
    **{name: (lerch._exp_node, _lerch_integrand(*args), _lerch_node_value(*args))
       for name, args in (("lerch", (0.5 + 0.3j, 2.5, 1.3)), ("lerch-near-one", (-0.999, 1.0, 1e-3)))},
    **{name: (lerch._exp_node, _hurwitz_integrand(*args), _hurwitz_node_value(*args))
       for name, args in (("hurwitz", (2.5, 1.3)), ("hurwitz-small-a", (1.2, 1e-3)))},
}


@pytest.mark.parametrize("route", list(_NODE_ROUTES))
def test_node_tables_give_the_scalar_node_values(route):
    # every node value a route computes from its node function's row of the
    # one panel table is its scalar integrand's, and every row carries the
    # K15 and G7 weights of its node, on the dyadic panels
    # (1 - 2^-k, 1 - 2^-(k+1)) out to t of about 65 000, where the
    # integrator's sweeps seldom go; from t = 746 on the linear ones are 0.0
    node, f, value = _NODE_ROUTES[route]
    weights = [(numerics._K15_CENTER_W, numerics._G7_CENTER_W)] + [
        (wk, wg) for _, wk, wg in numerics._K15_PAIRS for _ in range(2)]
    for k in range(16):
        a, b = 1.0 - 2.0 ** -k, 1.0 - 2.0 ** -(k + 1)
        bare, rows = _table_nodes(numerics._bare, a, b), _table_nodes(node, a, b)
        assert [w for _, w in rows] == [w for _, w in bare] == weights
        for ((t, j), _), (factors, _) in zip(bare, rows, strict=True):
            assert factors[-1] == j
            assert repr(value(*factors)) == repr(f(t) / j), (k, t)


@pytest.mark.parametrize("integral", [
    lambda: moments._moment_integral(5, 1e-12, moments._linear_node),
    lambda: moments._moment_integral(300, 1e-12, moments._log_node, math.lgamma(301)),
    lambda: integrate_semi_infinite(lambda t: t ** 3 * math.exp(-t) / (1.0 + t)),
], ids=["linear", "log", "generic"])
def test_an_integral_caches_only_the_panels_it_sums(integral):
    # the loop's freeze test reads the table of the panel it sums next, so a
    # cold call leaves one table per panel summed, and none for the test alone
    _clear_panel_caches()
    panels = integral().nodes_used // numerics._PANEL_EVALS
    assert numerics._panel_table.cache_info().currsize == panels < 512


_LERCH_EDGES = {
    # name: (z, s, a), text the outcome holds
    "overflow": ((0.5, 200.0, 1e-3), "integrand overflowed at t="),
    "s_one": ((0.5, 1, 1), "+0j)"),
    "near_minus_one": ((-0.999, 4.0, 1e-3), "(999999999999."),
    "imaginary_z": ((0.999j, 1.0, 1e-3), "j)"),
    "huge_a": ((0.5, 2.0, 1e300), "0j"),
    "infinite_a": ((0.5, 2.0, math.inf), "0j"),
    "u_one": ((0.5, 2.0, 1e-200), "refinement floor reached"),  # frozen where a node rounds to u = 1
}


def _lerch_cases(count, seed):
    # |z| <= 0.999, s in [1, 4], a in [1e-3, 100] log-uniform
    rng = random.Random(seed)
    return [(disk_point(rng, 0.999), 1.0 + 3.0 * rng.random(), 10.0 ** rng.uniform(-3.0, 2.0))
            for _ in range(count)]


def _assert_lerch_route(monkeypatch, z, s, a):
    want = _scalar_outcome(_lerch_integrand(z, s, a), 1e-10, lambda v: v / math.gamma(s))
    assert _route_outcome(monkeypatch, lambda: lerch.lerch_phi_integral(z, s, a), lerch) == want
    return want


def test_lerch_route_bit_identical_to_its_integrand(monkeypatch):
    # lerch_phi_integral's panels give the value, error estimate and node
    # count, or the error, of the scalar integrand through integrate_semi_infinite
    _clear_panel_caches()
    for z, s, a in _lerch_cases(400, 37):
        assert len(_assert_lerch_route(monkeypatch, z, s, a)) == 2, (z, s, a)
    for args, text in _LERCH_EDGES.values():
        assert text in _assert_lerch_route(monkeypatch, *args)[0], args


def _hurwitz_cases(count, seed):
    # s in (1, 21], a in [1e-3, 1e3] and tol in [1e-13, 1e-8], log-uniform
    rng = random.Random(seed)
    return [(1.0 + 1e-5 + 20.0 * rng.random(), 10.0 ** rng.uniform(-3.0, 3.0),
             10.0 ** rng.uniform(-13.0, -8.0)) for _ in range(count)]


_HURWITZ_EDGES = {
    # name: (s, a, tol), text the outcome holds
    "near_one": ((1.000002, 1.0, 1e-10), "500000.577"),  # V tends to Euler's gamma as s -> 1 at a = 1
    "u_one": ((1.5, 1e-200, 1e-10), "refinement floor reached"),  # frozen where a node rounds to u = 1
    "overflow": ((100.0, 1.0, 1e-10), "integrand overflowed at t="),
    "nan_tol": ((2.0, 1.0, math.nan), "tol must be > 0, got nan"),
    "integers": ((2, 1, 1e-10), "1.64493406684"),
    "s_just_above_one": ((1.000002, 1e-3, 1e-8), "501000.5"),
}


def _hurwitz_finish(s, a):
    # the route's sum of its two positive terms: the integral over Gamma(s)
    # and the added-back a^(1-s)/(s-1)
    return lambda v: v / math.gamma(s) + a ** (1.0 - s) / (s - 1.0)


def _assert_hurwitz_route(monkeypatch, s, a, tol):
    want = _scalar_outcome(_hurwitz_integrand(s, a), tol, _hurwitz_finish(s, a))
    assert _route_outcome(
        monkeypatch, lambda: lerch.hurwitz_zeta_integral(s, a, tol), lerch) == want
    return want


def test_hurwitz_route_bit_identical_to_its_integrand(monkeypatch):
    # hurwitz_zeta_integral's panels give the value, error estimate and node
    # count, or the error, of the scalar integrand through integrate_semi_infinite;
    # no case of the sweep is refused
    _clear_panel_caches()
    for s, a, tol in _hurwitz_cases(400, 29):
        want = _assert_hurwitz_route(monkeypatch, s, a, tol)
        assert len(want) == 2 and float(want[0]) > 0.0, (s, a, tol)
    for args, text in _HURWITZ_EDGES.values():
        assert text in _assert_hurwitz_route(monkeypatch, *args)[0], args


def test_budget_raise_bit_identical_on_every_cached_factor_route(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_EVALS", 10 * numerics._PANEL_EVALS)
    _clear_panel_caches()
    budget = "node budget 150 exhausted"
    assert _assert_lerch_route(monkeypatch, 0.5 + 0.3j, 2.0, 1e-3)[0].startswith(budget)
    assert _assert_hurwitz_route(monkeypatch, 2.5, 1.3, 1e-13)[0].startswith(budget)
    want = _scalar_outcome(_en_identity_integrand(30), 1e-11, lambda v: v)
    assert want[0].startswith(budget)
    assert _route_outcome(monkeypatch, lambda: moments.en_integral_identity(30)) == want


def test_laguerre_projection_takes_the_eta_route(monkeypatch):
    # g_0 is eta_0 at 1e-14 on the moment route; h_0 stays a scalar integral
    g0 = integrate_semi_infinite(_eta_integrand(0), 1e-14).value
    assert repr(moments._laguerre_projection.__wrapped__()[0]) == repr(g0)


class TestWirtinger:
    def test_analytic_function_annihilated(self):
        assert abs(wirtinger_fd(lambda z: z, 0.3 + 0.7j)) < 1e-9

    def test_conjugate_derivative_is_one(self):
        assert wirtinger_fd(lambda z: z.conjugate(), 1 + 2j) == pytest.approx(1.0, abs=1e-9)

    def test_product_rule_conjugate_times_analytic(self):
        import cmath
        z0 = 0.3 + 0.1j
        got = wirtinger_fd(lambda z: z.conjugate() * cmath.exp(z), z0)
        assert got == pytest.approx(cmath.exp(z0), abs=1e-6)

    def test_polynomials_to_degree_5(self):
        rng = random.Random(11)
        for _ in range(10):
            coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)]

            def f(z, c=coeffs):
                acc = 0j
                for a in reversed(c):
                    acc = acc * z + a
                return acc

            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert abs(wirtinger_fd(f, z)) < 1e-8

    def test_step_validation(self):
        with pytest.raises(ConfigurationError):
            wirtinger_fd(lambda z: z, 0j, h=0.1)


def test_csum_matches_fsum():
    vals = [1e16, 1.0, -1e16, 1e-8]
    assert csum(vals) == math.fsum(vals)
    assert csum([1 + 1j, 1e-17 + 0j]).real == math.fsum([1.0, 1e-17])


def test_csum_bit_identical_to_fsum_of_generators():
    rng = random.Random(11)
    floats = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20) for _ in range(200)]
    complexes = [complex(a, b) for a, b in zip(floats, reversed(floats))] + [3.0]
    assert csum(floats) == math.fsum(t for t in floats)
    assert csum(complexes) == complex(math.fsum(t.real for t in complexes),
                                      math.fsum(t.imag for t in complexes))
    assert csum(iter(complexes)) == csum(complexes)


@pytest.mark.parametrize("terms", [
    [-0.0, -0.0], [complex(-0.0, -0.0)], [complex(0.0, -0.0), -0.0], [-0.0, complex(-0.0, -0.0)],
    [complex(-0.0, 0.0), complex(0.0, -0.0)], [2, 0.5, complex(1.5, -0.0)], [-1e308, 1e308, 1j],
    [1e16, 1 + 1e-8j, -1e16, -0.0], []])
def test_csum_signed_zeros_and_mixed_input(terms):
    # the formula csum used first: a list comprehension per part
    if any(isinstance(t, complex) for t in terms):
        expected = complex(math.fsum([t.real for t in terms]), math.fsum([t.imag for t in terms]))
    else:
        expected = math.fsum(terms)
    got = csum(terms)
    assert type(got) is type(expected) and repr(got) == repr(expected)
