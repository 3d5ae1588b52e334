import cmath
import math
import random
import sys
import threading
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

    @pytest.mark.parametrize("n", [171, 400, 401])
    def test_order_bound(self, n):
        # linear values stop at 170, as in eta_closed_form
        with pytest.raises(ConfigurationError):
            moments.eta_quadrature(n)


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
        assert [row["eta"] for row in t.rows()] == [t.eta[0]]

    def test_bounds_hold_to_30(self):
        assert verify.run("bounds", nmax=30)["n_failed"] == 0

    def test_overflow_flag_past_170(self):
        t = moments.eta_table(300)
        assert all(math.isfinite(v) for v in t.log_eta)
        rows = list(t.rows())
        # eta prints null exactly where the linear value overflows, n > 170
        assert [row["n"] for row in rows if row["eta"] is None] == list(range(171, 301))
        assert all(math.isfinite(row["eta"]) for row in rows[:171])
        assert all(math.isnan(t.eta[n]) for n in range(171, 301))
        assert {row["route"] for row in rows} == {"closed-form"}

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
    """The table's columns through order n_max, recomputed from scratch:
    eta_0, r_1 .. r_{n_max}, log eta_0 .. log eta_{n_max}, the ratios
    1/eta_0, eta_0/eta_1 .. eta_{n_max-1}/eta_{n_max}, eta_n/n!,
    eta_n^(-1/2) and log n!."""
    r = [2.0 * math.e * expint.e1(1.0) - 1.0]
    for n in range(1, n_max):
        r.append(1.0 / (n + 1) - (n + 2) * r[-1] / (n * (n + 1)))
    eta0 = 1.0 - math.e * expint.e1(1.0)
    logs = [math.log(eta0)] + [math.log(r[n - 1]) + math.lgamma(n) for n in range(1, n_max + 1)]
    ratios = [math.exp(-logs[0])] + [math.exp(logs[n - 1] - logs[n]) for n in range(1, n_max + 1)]
    over_fact = [math.exp(logs[n] - math.lgamma(n + 1)) for n in range(n_max + 1)]
    inv_sqrt = [math.exp(-0.5 * v) for v in logs]
    log_fact = [math.lgamma(n + 1) for n in range(n_max + 1)]
    return moments._Columns(eta0, r[:n_max], logs, ratios, over_fact, inv_sqrt, log_fact)


# the columns over n = 0 .. N, compared through each size read
_ORDER_COLUMNS = ("log_eta", "ratios", "over_fact", "inv_sqrt_eta", "log_factorial")


_SIZES = [0, 1, 63, 64, 65, 170, 1000, 4097, moments.N_MAX]
# the orders a table grown on demand can hold: 256, 512, ... capped at N_MAX
_DOUBLING_ORDERS = sorted({min(moments._FIRST_ORDER * 2 ** k, moments.N_MAX)
                           for k in range(moments.N_MAX.bit_length())})


@pytest.fixture
def empty_table(monkeypatch):
    """No moment table yet, and no accessor results cached from an earlier one."""
    monkeypatch.setattr(moments, "_TABLE", moments._EMPTY_TABLE)
    moments.residual_sequence.cache_clear()
    moments.log_eta_sequence.cache_clear()


class TestSharedTable:
    @pytest.mark.parametrize("n_max", _SIZES)
    def test_accessors_bit_identical_to_rebuild(self, empty_table, n_max):
        # grown from no table through each smaller size of the list to n_max
        want = _rebuilt_for_one_size(n_max)
        for size in [s for s in _SIZES if s <= n_max]:
            if size >= 1:
                assert moments.residual_sequence(size) == tuple(want.r[:size])
            assert moments.log_eta_sequence(size) == tuple(want.log_eta[:size + 1])
            assert moments.log_eta(size) == want.log_eta[size]
            table = moments._table(size)
            for name in _ORDER_COLUMNS:
                assert getattr(table, name)[:size + 1] == tuple(getattr(want, name)[:size + 1])
            if size <= moments.LINEAR_LIMIT:
                expected = want.eta0 if size == 0 else want.r[size - 1] * math.gamma(size)
                assert moments.eta_closed_form(size) == expected

    def test_threads_growing_at_once_publish_correct_tables(self, empty_table):
        # four threads on two cores, switching often, each grow the table
        # through the sizes in their own order
        want = _rebuilt_for_one_size(moments.N_MAX)
        wrong = []

        def grow(sizes):
            for n in sizes:
                t = moments._table(n)
                if t.r[:n] != tuple(want.r[:n]) or any(
                        getattr(t, name)[:n + 1] != tuple(getattr(want, name)[:n + 1])
                        for name in _ORDER_COLUMNS):
                    wrong.append(n)

        orders = [_SIZES, _SIZES[::-1], _SIZES[1::2] + _SIZES[::2], _SIZES[::2] + _SIZES[1::2]]
        threads = [threading.Thread(target=grow, args=(sizes,)) for sizes in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_gram_kernel_grows_the_table_by_doubling(self, empty_table, monkeypatch):
        # every table the readers get is a publication; from no table, each is
        # one doubling step, so the steps bound their number
        published = []
        table = moments._table

        def watched(n):
            t = table(n)
            if not any(t is p for p in published):
                published.append(t)
            return t

        monkeypatch.setattr(moments, "_table", watched)
        rng = random.Random(5)
        space.gram_kernel([disk_point(rng, 2.0) for _ in range(100)])
        for z in (100.0, 300.0):  # efun reads orders 737 and 2174
            space.efun(z)
        moments.eta_factorial_sum(moments.N_MAX)
        orders = [len(t.log_eta) - 1 for t in published]
        assert orders == sorted(set(orders)) and set(orders) <= set(_DOUBLING_ORDERS)
        assert orders[-1] == moments.N_MAX and len(orders) <= len(_DOUBLING_ORDERS)


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


_rng = random.Random(2718)
_SERIES_DRAWS = [(_rng.random(), _rng.uniform(-math.pi, math.pi)) for _ in range(6)]
# |z| > 0.92 with |z/(1+z)| <= 0.9: the accelerated route
_WIDE_DRAWS = [(1.2, 0.3), (-0.2, 1.0), (4.0, -4.0), (0.1, -1.5), (6.5, 0.0)]


def _fsum_complex(terms):
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def _series_by_term_loop(z):
    """generating_series as it was first written: one exp and lgamma per term."""
    if abs(z) <= 0.92:
        logs = moments.log_eta_sequence(2000)
        terms = []
        zp = 1.0 + 0j
        for n in range(len(logs)):
            t = zp * math.exp(logs[n] - math.lgamma(n + 1))
            if n % 2 == 1:
                t = -t
            terms.append(t)
            if n > 8 and abs(t) < 1e-18:
                break
            zp *= z
        return _fsum_complex(terms)
    w = z / (1.0 + z)
    g = moments._laguerre_projection()
    terms = []
    wp = 1.0 + 0j
    for k in range(320):
        t = g[k] * wp
        terms.append(t)
        if k > 8 and abs(t) < 1e-18 * max(1.0, abs(terms[0])):
            break
        wp *= w
    return _fsum_complex(terms) / (1.0 + z)


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

    @pytest.mark.parametrize("z", [0.92, -0.92, cmath.rect(0.92, 2.0), 9.0,
                                   cmath.rect(0.9, 1.0) / (1.0 - cmath.rect(0.9, 1.0))]
                             + [cmath.rect(0.92 * math.sqrt(u), th) for u, th in _SERIES_DRAWS]
                             + [complex(re, im) for re, im in _WIDE_DRAWS])
    def test_bit_identical_to_term_loop(self, z):
        # the direct route reads eta_n/n! from the moment table and the
        # accelerated one sets its stop once; every value keeps its bits
        assert moments.generating_series(z) == _series_by_term_loop(complex(z))

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
