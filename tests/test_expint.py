import math

import pytest

from hfock import expint, golden
from hfock.errors import AccuracyError, ConfigurationError, DomainError
from hfock.numerics import integrate_semi_infinite


def test_gamma_constant_pinned_to_golden_file():
    assert expint.EULER_GAMMA == float(golden.decimal("euler_gamma"))


class TestE1:
    def test_value_at_one(self, gold):
        assert expint.e1(1.0) == pytest.approx(gold["e1_of_1"], abs=1e-14)

    def test_value_at_two(self, gold):
        assert expint.e1(2.0) == pytest.approx(gold["e1_of_2"], abs=1e-14)

    def test_series_identity_at_one(self):
        # E1(1) = -gamma - sum (-1)^n / (n! n)
        s = math.fsum((-1.0) ** n / (math.factorial(n) * n) for n in range(1, 60))
        assert expint.e1(1.0) == pytest.approx(-expint.EULER_GAMMA - s, abs=1e-14)

    def test_large_argument_bracket(self):
        scaled = expint.en_scaled(1, 100.0)  # e^100 E_1(100)
        assert 1.0 / 101.0 < scaled <= 1.0 / 100.0

    def test_complex_argument(self, gold):
        z = 2.0 + 0j
        assert expint.e1(z) == pytest.approx(gold["e1_of_2"], abs=1e-13)
        val = expint.e1(1.5 + 2.5j)
        assert expint.e1(1.5 - 2.5j) == pytest.approx(val.conjugate(), abs=1e-14)

    def test_branch_boundary_consistency(self):
        for x in (1.2, 1.4, 1.5, 1.6, 1.9):
            series = expint._e1_series(x)
            cf = math.exp(-x) * expint._en_lentz_scaled(1, x)
            assert series == pytest.approx(cf, rel=1e-13)

    def test_method_report(self):
        assert expint.e1_method(0.5) == "series"
        assert expint.e1_method(7.0) == "continued-fraction"
        assert expint.en_method(0, 2.0) == "closed-form"
        assert expint.en_method(1, 0.5) == "series"
        assert expint.en_method(7, 7.0) == "continued-fraction"
        assert expint.en_method(12, 7.0) == "recurrence"
        assert expint.en_method(5, 0.5) == "recurrence"

    @pytest.mark.parametrize("x", [0.0, -1.0, -2 + 1j])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            expint.e1(x)


class TestEnFamily:
    def test_order_zero(self):
        assert expint.en(0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_order_two_at_one(self, gold):
        assert expint.en(2, 1.0) == pytest.approx(gold["e2_of_1"], abs=1e-14)

    def test_order_five_bracket(self):
        assert 1.0 / 6.0 < math.e * expint.en(5, 1.0) <= 1.0 / 5.0

    def test_family_prefix(self, gold):
        fam = expint.en_family(2, 1.0)
        assert fam[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert fam[1] == pytest.approx(gold["e1_of_1"], abs=1e-14)
        assert fam[2] == pytest.approx(gold["e2_of_1"], abs=1e-14)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 10.0])
    def test_recurrence_residual(self, x):
        fam = expint.en_family(201, x)
        emx = math.exp(-x)
        for n in range(1, 200):
            assert abs(n * fam[n + 1] - emx + x * fam[n]) <= 1e-15 * emx

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 10.0])
    def test_two_sided_bounds(self, x):
        scaled = expint.en_family_scaled(200, x)
        for n in range(1, 201):
            assert 1.0 / (x + n) < scaled[n] <= 1.0 / (x + n - 1.0)

    def test_family_matches_en_entrywise(self):
        # en() anchors its continued fraction per requested order, so entries
        # agree with a long family pass to rounding, not bit for bit
        fam = expint.en_family(40, 7.3)
        for n in (0, 1, 5, 17, 40):
            assert fam[n] == pytest.approx(expint.en(n, 7.3), rel=5e-14)

    def test_large_order_small_argument(self):
        assert expint.en(500, 0.25) == pytest.approx(
            math.exp(-0.25) * expint.en_scaled(500, 0.25), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            expint.en(3, 0.0)


class TestIncompleteGamma:
    def test_m1(self):
        assert expint.incomplete_gamma_int(1, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_m2(self):
        assert expint.incomplete_gamma_int(2, 1.0) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-14)
        assert expint.incomplete_gamma_int(2, 1.0) == pytest.approx(0.735758882342885, abs=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 13, 19])
    def test_against_quadrature(self, m):
        # Gamma(m, 1) equals the tail integral of u^{m-1} e^{-u} past 1
        quad = integrate_semi_infinite(
            lambda t: (1.0 + t) ** (m - 1) * math.exp(-1.0 - t), 1e-13).value
        assert expint.incomplete_gamma_int(m, 1.0) == pytest.approx(quad, rel=1e-11)

    def test_negative_order_definition(self):
        for k in range(2, 21):
            assert expint.en_negative_order_at_1(k) == expint.incomplete_gamma_int(k - 1, 1.0)

    def test_bounds(self):
        with pytest.raises(ConfigurationError):
            expint.incomplete_gamma_int(0, 1.0)
        with pytest.raises(ConfigurationError):
            expint.incomplete_gamma_int(171, 1.0)


class TestLaplaceEn:
    def test_n1_a1_is_log2(self):
        assert expint.laplace_en(1, 1.0) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_removable_limit_at_zero(self):
        assert expint.laplace_en(1, 0.0) == 1.0
        assert expint.laplace_en(4, 0.0) == 0.25
        assert expint.laplace_en(1, 1e-9) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n,a", [(1, 1.0), (2, 1.0), (5, 0.25), (3, -0.5), (8, 3.0)])
    def test_against_quadrature(self, n, a):
        quad = integrate_semi_infinite(
            lambda t: math.exp(-(a + 1.0) * t) * expint.en_scaled(n, t) if t > 0 else 0.0,
            1e-10).value
        assert expint.laplace_en(n, a) == pytest.approx(quad, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("a", [0.6, 0.8, 0.95])
    def test_branch_overlap(self, n, a):
        series = expint.laplace_en(n, a)
        sign = 1.0 if n % 2 == 1 else -1.0
        closed = sign * (math.log1p(a)
                         + math.fsum((-a) ** k / k for k in range(1, n))) / a ** n
        assert abs(series - closed) <= 1e-11

    def test_series_near_the_term_cap(self):
        # about 410 000 terms, inside the 2 000 000-term cap
        assert expint.laplace_en(1, -0.9999) == pytest.approx(
            math.log1p(-0.9999) / -0.9999, rel=1e-12)

    @pytest.mark.parametrize("n,a", [(1, -0.999999), (2, 1.0 - 1e-7)])
    def test_series_past_the_term_cap_raises(self, n, a):
        with pytest.raises(AccuracyError):
            expint.laplace_en(n, a)

    def test_domain(self):
        with pytest.raises(DomainError):
            expint.laplace_en(2, -1.0)
        with pytest.raises(ConfigurationError):
            expint.laplace_en(0, 1.0)
