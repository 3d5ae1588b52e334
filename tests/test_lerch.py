import cmath
import math
import random
import sys

import pytest

from hfock import expint, lerch, space
from hfock.errors import AccuracyError, ConfigurationError, DomainError
from hfock.numerics import disk_point, integrate_semi_infinite


class TestPhi:
    def test_value_at_origin(self):
        for n in (1, 2, 7):
            assert lerch.phi(n, 0.0) == complex(1.0 / n)

    def test_dirichlet_point(self, gold):
        assert lerch.phi(1, 0.5).real == pytest.approx(gold["phi1_at_half"], abs=1e-13)

    def test_negative_branch_matches_laplace(self):
        assert lerch.phi(2, -0.9).real == pytest.approx(expint.laplace_en(2, 0.9), rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("a", [0.25, 0.5, 0.9, 2.0])
    def test_negative_axis_vs_quadrature(self, n, a):
        if a < 1.0:
            val = lerch.phi(n, -a).real
        else:
            val = expint.laplace_en(n, a)
        quad = integrate_semi_infinite(
            lambda t: math.exp(-(a + 1.0) * t) * expint.en_scaled(n, t) if t > 0 else 0.0,
            1e-10).value
        assert abs(val - quad) <= 1e-8

    def test_negative_axis_past_the_laplace_term_cap_raises(self):
        with pytest.raises(AccuracyError):
            lerch.phi(1, -0.9999999)

    def test_boundary_rejection(self):
        with pytest.raises(DomainError):
            lerch.phi(1, 0.9999999)
        with pytest.raises(ConfigurationError):
            lerch.phi(0, 0.3)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_negative_axis_branch_within_16_ulps(self, mp_gram, n):
        # laplace_en's real fsum route; lerch_phi(x, 1, n) at its default
        # tolerance misses the same values by up to 2.7e3 u
        for i in range(41):
            x = -0.5 - 0.49 * i / 40
            ref = float(mp_gram.phi(n, x).real)
            assert abs(lerch.phi(n, x).real - ref) <= 16 * 2.0 ** -53 * abs(ref), x

    def test_log_identity_on_interval(self):
        for i in range(37):
            x = -0.9 + 1.8 * i / 36.0
            if abs(x) < 1e-9:
                continue
            assert abs((lerch.phi(1, x) * x).real + math.log1p(-x)) <= 1e-11


class TestPhiTilde:
    def test_unit_at_origin(self):
        for n in (1, 4, 9):
            assert lerch.phi_tilde(n, 0.0) == complex(1.0)

    def test_scaled_dirichlet_value(self, gold):
        assert lerch.phi_tilde(1, 0.5).real == pytest.approx(gold["phi1_at_half"], abs=1e-13)


# up to |z| = 0.999, where the series runs to some 40 000 terms
_MP_POINTS = [cmath.rect(r, t) for r in (0.3, 0.9, 0.999) for t in (0.0, 2.9)]
_MP_TOLS = (1e-10, 1e-13, 1e-16)


def _mp_bound(tol, ref):
    """Truncation leaves less than ``tol``; rounding adds a few ulps of the value."""
    return tol + 8.0 * sys.float_info.epsilon * abs(ref)


class TestLerchPhi:
    def test_at_zero(self):
        assert lerch.lerch_phi(0.0, 2.5, 3.0) == complex(3.0 ** -2.5)

    def test_reduces_to_phi_at_s_one(self):
        # off the Laplace interval phi is this series, bit for bit
        rng = random.Random(8)
        for _ in range(50):
            z = cmath.rect(0.9 * math.sqrt(rng.random()), 2 * math.pi * rng.random())
            n = rng.randrange(1, 6)
            assert lerch.lerch_phi(z, 1.0, float(n)) == lerch.phi(n, z)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
    def test_against_mpmath(self, s):
        mp = pytest.importorskip("mpmath")
        for z in _MP_POINTS:
            for a in (0.5, 3.0):
                with mp.workdps(40):
                    ref = complex(mp.lerchphi(z, s, a))
                for tol in _MP_TOLS:
                    got = lerch.lerch_phi(z, s, a, tol)
                    assert abs(got - ref) <= _mp_bound(tol, ref), (z, a, tol)

    def test_phi_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for z in _MP_POINTS + [-0.7, -0.999]:
            for n in (1, 2, 5):
                with mp.workdps(40):
                    ref = complex(mp.lerchphi(z, 1, n))
                for tol in _MP_TOLS:
                    assert abs(lerch.phi(n, z, tol) - ref) <= _mp_bound(tol, ref), (z, n, tol)

    def test_integral_against_mpmath_off_the_real_axis(self):
        # at the route's own tolerance; its integrand divides a real by a
        # complex number, whose last bits depend on the division used
        mp = pytest.importorskip("mpmath")
        rng = random.Random(12)
        for _ in range(8):
            z = disk_point(rng, 0.9)
            s, a = 1.0 + 2.0 * rng.random(), 0.5 + 2.5 * rng.random()
            assert z.imag != 0.0
            with mp.workdps(40):
                ref = complex(mp.lerchphi(z, s, a))
            got = lerch.lerch_phi_integral(z, s, a)
            assert abs(got - ref) <= 1e-10 * abs(ref), (z, s, a)

    def test_series_vs_integral(self):
        got = lerch.lerch_phi(0.5, 2.0, 1.0)
        via_integral = lerch.lerch_phi_integral(0.5, 2.0, 1.0)
        assert abs(got - via_integral) <= 1e-8

    def test_domains(self):
        with pytest.raises(DomainError):
            lerch.lerch_phi(0.5, -1.0, 1.0)
        with pytest.raises(DomainError):
            lerch.lerch_phi(0.5, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            lerch.lerch_phi_integral(0.5, 0.5, 1.0)


class TestHurwitzZeta:
    def test_basel_value(self, gold):
        assert lerch.hurwitz_zeta(2.0, 1.0, 1e-11) == pytest.approx(
            gold["zeta_2_1"], abs=1e-10)

    def test_index_shift(self):
        lhs = lerch.hurwitz_zeta(2.0, 2.0, 1e-11)
        assert lhs == pytest.approx(math.pi ** 2 / 6.0 - 1.0, abs=1e-10)

    @pytest.mark.parametrize("s", [2.0, 3.0])
    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_series_vs_integral(self, s, a):
        assert abs(lerch.hurwitz_zeta(s, a, 1e-11)
                   - lerch.hurwitz_zeta_integral(s, a, 1e-11)) <= 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            lerch.hurwitz_zeta(1.0, 1.0)


class TestDirichletKernel:
    def test_half_point(self, gold):
        series, closed = lerch.dirichlet_kernel_pair(math.sqrt(0.5), math.sqrt(0.5))
        assert series.real == pytest.approx(gold["phi1_at_half"], abs=1e-12)
        assert closed.real == pytest.approx(gold["phi1_at_half"], abs=1e-14)

    def test_origin_limit(self):
        series, closed = lerch.dirichlet_kernel_pair(0.0, 0.7)
        assert series == closed == complex(1.0)

    def test_complex_pair(self):
        series, closed = lerch.dirichlet_kernel_pair(0.6, 0.7j)
        assert abs(series - closed) <= 1e-11


class TestCompleteMonotonicity:
    def test_phi_families(self):
        grid = [0.1 + 0.1 * i for i in range(50)]
        for n in (1, 2, 3):
            rep = lerch.phi_cm_evidence(n, grid)
            assert rep.passed
            assert rep.min_signed[0] > 0.0  # f itself positive
            assert rep.min_signed[1] > 0.0  # f decreasing

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):  # not uniform
            lerch.cm_evidence(lambda a: a, [0.1, 0.2, 0.4] + [0.5 + 0.1 * i for i in range(7)])
        with pytest.raises(ConfigurationError):  # shorter than the 8 points order 6 needs
            lerch.cm_evidence(lambda a: a, [0.1 * i for i in range(7)])

    def test_detects_violations(self):
        rep = lerch.cm_evidence(math.sin, [0.5 * i for i in range(30)])
        assert not rep.passed


class TestGramPhi:
    def test_origin_singleton(self):
        g = lerch.gram_phi(3, [0.0])
        assert g.entries[0, 0].real == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert g.is_psd()

    def test_duplicate_point(self):
        g = lerch.gram_phi(1, [0.4 + 0.2j, 0.4 + 0.2j])
        assert g.min_eig == pytest.approx(0.0, abs=1e-12)
        assert g.is_psd()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_psd(self, n):
        rng = random.Random(n)
        pts = [cmath.rect(0.95 * math.sqrt(rng.random()), 2 * math.pi * rng.random())
               for _ in range(30)]
        assert lerch.gram_phi(n, pts).is_psd()

    def test_radius_guard(self):
        with pytest.raises(ConfigurationError):
            lerch.gram_phi(1, [0.9995])

    @pytest.mark.parametrize("radius", [0.95, 0.999])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_entries_and_trace_against_mpmath(self, mp_gram, n, radius):
        rng = random.Random(n)
        pts = [disk_point(rng, radius) for _ in range(9)] + [radius]
        mp_gram.check(lerch.gram_phi(n, pts), lambda q: mp_gram.phi(n, q))


class TestMlAudit:
    @pytest.mark.parametrize("n", [1, 3])
    def test_phi_tilde_order_one(self, n):
        rep = lerch.ml_audit("phi_tilde", n)
        by_name = {c["name"]: c for c in rep["conditions"]}
        assert by_name["unit-value-and-positive-slope"]["status"] == "pass"
        assert by_name["unit-value-and-positive-slope"]["details"]["slope_at_0"] == \
            pytest.approx(n / (n + 1), abs=1e-16)
        assert by_name["gram-psd-sampling"]["status"] == "pass"
        assert by_name["complete-monotonicity-evidence"]["status"] == "evidence"

    def test_moment_normalized_kernel(self, gold):
        rep = lerch.ml_audit("eta0_K")
        by_name = {c["name"]: c for c in rep["conditions"]}
        det = by_name["unit-value-and-positive-slope"]["details"]
        assert det["value_at_0"] == pytest.approx(1.0, abs=1e-12)
        assert det["slope_at_0"] == pytest.approx(gold["eta0"] / gold["eta1"], rel=1e-13)
        assert rep["passed_i_ii"]
        assert by_name["complete-monotonicity-evidence"]["status"] == "evidence"

    def test_unknown_kernel(self):
        with pytest.raises(ConfigurationError):
            lerch.ml_audit("other")

    @pytest.mark.parametrize("kernel, n", [("phi_tilde", 2), ("eta0_K", 1)])
    def test_gram_against_mpmath(self, mp_gram, monkeypatch, kernel, n):
        grams = []
        diagonal_gram = space._diagonal_gram
        monkeypatch.setattr(space, "_diagonal_gram",
                            lambda *args: grams.append(diagonal_gram(*args)) or grams[-1])
        monkeypatch.setattr(lerch, "_AUDIT_POINTS", 12)
        rep = lerch.ml_audit(kernel, n, seed=3)
        (g,) = grams
        details = {c["name"]: c for c in rep["conditions"]}["gram-psd-sampling"]["details"]
        assert (details["min_eig"], details["trace"]) == (g.min_eig, g.trace)
        if kernel == "phi_tilde":
            mp_gram.check(g, lambda q: n * mp_gram.phi(n, q))
        else:
            mp_gram.check(g, lambda q: mp_gram.eta0 * mp_gram.efun(q))
