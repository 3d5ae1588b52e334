import math
import random
import time

import pytest

from hfock import expint, moments, space, verify
from hfock.errors import (AccuracyError, ConfigurationError, DomainError,
                          PrecisionLossError)
from hfock.numerics import disk_point


class TestQuadratureRoute:
    @pytest.mark.parametrize("n,key", [(0, "eta0"), (1, "eta1"), (2, "eta2"),
                                       (3, "eta3"), (5, "eta5"), (10, "eta10")])
    def test_golden_values(self, gold, n, key):
        assert moments.eta_quadrature(n, 1e-12) == pytest.approx(gold[key], rel=1e-11)

    def test_log_route_matches_closed_form_large_n(self):
        for n in (150, 200, 300):
            assert moments.log_eta_quadrature(n, 1e-12) == pytest.approx(
                moments.log_eta(n), abs=1e-9)

    @pytest.mark.parametrize("n", [66, 83, 100])
    def test_log_scale_integrand_orders(self, n):
        # t**n overflows on the far nodes from n = 66 on
        cf = moments.eta_closed_form(n)
        assert abs(moments.eta_quadrature(n, 1e-12) - cf) <= 1e-10 * cf

    def test_order_bound(self):
        with pytest.raises(ConfigurationError):
            moments.eta_quadrature(401)


class TestClosedForm:
    def test_eta0_is_one_minus_e_e1(self, gold):
        assert moments.eta_closed_form(0) == pytest.approx(
            1.0 - math.e * gold["e1_of_1"], abs=1e-15)

    def test_eta1(self, gold):
        assert moments.eta_closed_form(1) == pytest.approx(gold["eta1"], abs=1e-15)

    def test_eta5_between_both_bounds(self):
        v = moments.eta_closed_form(5)
        assert math.factorial(5) / (2 ** 5 * 8) <= v <= math.factorial(4) / 5

    def test_residuals_in_unit_over_n(self):
        res = moments.residual_sequence(200)
        for n, r in enumerate(res, start=1):
            assert 0.0 < r <= 1.0 / n

    def test_residual_matches_direct_expression(self):
        res = moments.residual_sequence(101)
        for n in range(1, 101):
            direct = math.e * (n + 2) * expint.en(n + 1, 1.0) - 1.0
            assert abs(res[n] - direct) <= 1e-13

    def test_step_identity(self):
        # eta_{n+1} = e Gamma(n+1) E_{n+1}(1) - eta_n
        for n in range(31):
            lhs = moments.eta_closed_form(n + 1)
            rhs = math.e * math.gamma(n + 1) * expint.en(n + 1, 1.0) \
                - moments.eta_closed_form(n)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_eta1_series_identity(self):
        # eta_1 = -2 e gamma - 2 e sum (-1)^k/(k k!) - 1
        s = math.fsum((-1.0) ** k / (k * math.factorial(k)) for k in range(1, 60))
        val = -2.0 * math.e * expint.EULER_GAMMA - 2.0 * math.e * s - 1.0
        assert moments.eta_closed_form(1) == pytest.approx(val, abs=1e-13)

    def test_linear_range_ends_at_170(self):
        moments.eta_closed_form(170)
        with pytest.raises(ConfigurationError):
            moments.eta_closed_form(171)
        assert math.isfinite(moments.log_eta(171))
        assert math.isfinite(moments.log_eta(5000))


class TestBinomialRoute:
    def test_n0_matches_eta0(self, gold):
        assert moments.eta_binomial(0) == pytest.approx(gold["eta0"], abs=1e-14)

    def test_n1_matches_eta1(self, gold):
        assert moments.eta_binomial(1) == pytest.approx(gold["eta1"], abs=1e-14)

    def test_n10_cross_route(self):
        assert moments.eta_binomial(10) == pytest.approx(
            moments.eta_quadrature(10, 1e-12), rel=1e-8)

    @pytest.mark.parametrize("n", range(21))
    def test_against_closed_form(self, n):
        cf = moments.eta_closed_form(n)
        assert abs(moments.eta_binomial(n) - cf) <= 1e-8 * cf

    def test_precision_cap(self):
        with pytest.raises(PrecisionLossError):
            moments.eta_binomial(26)


class TestMomentTable:
    def test_single_entry(self, gold):
        t = moments.eta_table(0)
        assert t.eta[0] == pytest.approx(gold["eta0"], abs=1e-14)
        assert not t.overflow[0]

    def test_bounds_hold_to_30(self):
        assert verify.run("bounds", nmax=30)["n_failed"] == 0

    def test_overflow_flag_past_170(self):
        t = moments.eta_table(300)
        assert all(math.isfinite(v) for v in t.log_eta)
        assert not any(t.overflow[: 171])
        assert all(t.overflow[171:])
        assert all(math.isnan(t.eta[n]) for n in range(171, 301))

    def test_monotone_log_from_2(self):
        assert verify.run("bounds", nmax=170)["n_failed"] == 0
        # the head of the sequence dips: eta_0 > eta_1 < eta_2
        logs = moments.log_eta_sequence(2)
        assert logs[0] > logs[1] < logs[2]

    def test_csv_shape(self):
        import io
        buf = io.StringIO()
        moments.eta_table(3).write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "n,eta,log_eta,abs_err,route"
        assert len(lines) == 5


def _rebuilt_for_one_size(n_max):
    """eta_0, r_1 .. r_{n_max} and log eta_0 .. log eta_{n_max}, recomputed from scratch."""
    r = [2.0 * math.e * expint.e1(1.0) - 1.0]
    for n in range(1, n_max):
        r.append(1.0 / (n + 1) - (n + 2) * r[-1] / (n * (n + 1)))
    eta0 = 1.0 - math.e * expint.e1(1.0)
    logs = [math.log(eta0)] + [math.log(r[n - 1]) + math.lgamma(n) for n in range(1, n_max + 1)]
    return eta0, r[:n_max], logs


class TestSharedTable:
    @pytest.mark.parametrize("n_max", [0, 1, 63, 64, 65, 170, 1000, 4097, moments.N_MAX])
    def test_accessors_bit_identical_to_rebuild(self, n_max):
        eta0, r, logs = _rebuilt_for_one_size(n_max)
        if n_max >= 1:
            assert moments.residual_sequence(n_max) == tuple(r)
        assert moments.log_eta_sequence(n_max) == tuple(logs)
        assert moments.log_eta(n_max) == logs[n_max]
        if n_max <= moments.LINEAR_LIMIT:
            expected = eta0 if n_max == 0 else r[n_max - 1] * math.gamma(n_max)
            assert moments.eta_closed_form(n_max) == expected

    def test_gram_kernel_does_not_rebuild_the_table(self, monkeypatch):
        # building the moment table from scratch evaluates E1(1): the count bounds the rebuilds
        calls = []
        e1 = expint.e1
        monkeypatch.setattr(expint, "e1", lambda x: calls.append(x) or e1(x))
        rng = random.Random(5)
        space.gram_kernel([disk_point(rng, 2.0) for _ in range(100)])
        assert len(calls) <= 20


class TestFactorialSum:
    def test_first_term(self, gold):
        assert moments.eta_factorial_sum(0) == pytest.approx(gold["eta0"], abs=1e-14)
        assert moments.eta_factorial_sum(0) < 1.0

    @pytest.mark.parametrize("n_terms", [100, 1000])
    def test_tail_bound(self, n_terms):
        s = moments.eta_factorial_sum(n_terms)
        assert 1.0 - 1.1 / n_terms < s <= 1.0

    def test_monotone(self):
        vals = [moments.eta_factorial_sum(n) for n in (0, 1, 2, 5, 10, 100, 500, 1000)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestGeneratingFunction:
    def test_at_zero(self, gold):
        assert moments.generating_series(0.0) == pytest.approx(gold["eta0"], abs=1e-14)
        assert moments.generating_closed_form(0.0).real == pytest.approx(
            gold["eta0"], abs=1e-14)

    def test_at_one_closed_form(self, gold):
        expected = 1.0 - 2.0 * math.e ** 2 * gold["e1_of_2"]
        assert moments.generating_closed_form(1.0).real == pytest.approx(expected, abs=1e-13)
        assert moments.generating_series(1.0).real == pytest.approx(expected, abs=1e-10)

    def test_inside_disk(self):
        gap = abs(moments.generating_series(-0.5) - moments.generating_closed_form(-0.5))
        assert gap <= 1e-10

    @pytest.mark.parametrize("z", [5.0, 2.5, 1.0 + 1.0j, 2 + 2j, -0.85, 0.9j,
                                   0.5 + 0.5j, 1j, 3 - 1j, -0.7 + 0.2j])
    def test_identity_outside_disk(self, z):
        gap = abs(moments.generating_series(z) - moments.generating_closed_form(z))
        assert gap <= 1e-9

    def test_route_overlap(self):
        import cmath
        # ring where the direct series and the accelerated form both converge
        for r, th in ((0.6, 0.4), (0.8, 1.2), (0.9, 5.9)):
            z = cmath.rect(r, th)
            assert abs(moments._series_direct(z)
                       - moments._series_accelerated(z)) <= 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            moments.generating_series(-1.5)
        with pytest.raises(DomainError):
            moments.generating_closed_form(-1.0)
        # valid pre-condition but outside both validated evaluation regions
        with pytest.raises(AccuracyError):
            moments.generating_series(-0.97)


class TestIntegralIdentity:
    def test_base_case_is_e1(self, gold):
        lhs, rhs = moments.en_integral_identity(0)
        assert rhs == pytest.approx(gold["e1_of_1"], abs=1e-14)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_n1_is_e2(self, gold):
        lhs, rhs = moments.en_integral_identity(1)
        assert rhs == pytest.approx(gold["e2_of_1"], abs=1e-14)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("n", [5, 10, 25, 40, 60])
    def test_higher_orders(self, n):
        lhs, rhs = moments.en_integral_identity(n)
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestCrossRoutes:
    def test_quadrature_vs_closed_form_30(self):
        for n in range(31):
            cf = moments.eta_closed_form(n)
            assert abs(moments.eta_quadrature(n, 1e-12) - cf) <= 1e-10 * cf

    def test_both_witness_routes_within_time_bound(self):
        t0 = time.perf_counter()
        for n in range(31):
            moments.eta_quadrature(n, 1e-12)
        for n in range(21):
            moments.eta_binomial(n)
        assert time.perf_counter() - t0 < 2.0
