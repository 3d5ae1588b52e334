import cmath
import math
import random
import sys

import pytest

from hfock import expint, lerch, space
from hfock.errors import ConfigurationError, DomainError
from hfock.numerics import disk_point, integrate_semi_infinite


class TestPhi:
    def test_value_at_origin(self):
        for n in (1, 2, 7):
            assert lerch.phi(n, 0.0) == complex(1.0 / n)

    def test_dirichlet_point(self, gold):
        assert lerch.phi(1, 0.5).real == pytest.approx(gold["phi1_at_half"], abs=1e-13)

    def test_negative_branch_matches_laplace(self):
        # phi is laplace_en at -z, bit for bit, on and off the real axis
        assert lerch.phi(2, -0.9) == complex(expint.laplace_en(2, 0.9))
        assert lerch.phi(3, 0.3 + 0.4j) == expint.laplace_en(3, -0.3 - 0.4j)

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

    def test_negative_axis_edge_matches_the_oracle(self, mp_oracle, laplace_bound):
        # -0.9999999 is off phi's disk; laplace_en takes it, at the same bound
        with pytest.raises(DomainError):
            lerch.phi(1, -0.9999999)
        for value, z in ((lerch.phi(1, -0.999999), -0.999999),
                         (expint.laplace_en(1, 0.9999999), -0.9999999)):
            ref = float(mp_oracle.phi(1, z).real)
            assert abs(value - ref) <= laplace_bound(1) * abs(ref), z

    def test_boundary_rejection(self):
        with pytest.raises(DomainError):
            lerch.phi(1, 0.9999999)
        with pytest.raises(DomainError):
            lerch.phi(1, math.nan)
        with pytest.raises(ConfigurationError):
            lerch.phi(0, 0.3)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_negative_axis_branch_within_16_ulps(self, mp_oracle, n):
        # laplace_en's real fsum route; lerch_phi(x, 1, n) at its default
        # tolerance misses the same values by up to 2.7e3 u
        for i in range(41):
            x = -0.5 - 0.49 * i / 40
            ref = float(mp_oracle.phi(n, x).real)
            assert abs(lerch.phi(n, x).real - ref) <= 16 * 2.0 ** -53 * abs(ref), x

    def test_log_identity_on_interval(self):
        # the Lerch series against -log(1 - x); phi is that closed form for |x| >= 1/2
        for i in range(37):
            x = -0.9 + 1.8 * i / 36.0
            if abs(x) < 1e-9:
                continue
            assert abs((lerch.lerch_phi(x, 1.0, 1.0) * x).real + math.log1p(-x)) <= 1e-11

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20, 35, 50])
    def test_matches_the_oracle(self, mp_oracle, laplace_bound, n):
        # phi on the disk up to radius 1 - 1e-6 in every direction, denser near the
        # split |z|^n = 1/2 where the closed form cancels most; laplace_en on real
        # a from -0.999999 to 1e100 (or where a^n overflows, below that)
        rng = random.Random(f"phi-oracle:{n}")
        split = 2.0 ** (-1.0 / n)
        radii = [1.0 - 10.0 ** (-6.0 * rng.random()) for _ in range(12)]
        radii += [math.sqrt(rng.random()) for _ in range(12)]
        radii += [min(split * (1.0 + 0.02 * (rng.random() - 0.3)), 1.0 - 1e-6) for _ in range(16)]
        for r in radii:
            z = cmath.rect(r, math.pi * (2.0 * rng.random() - 1.0))
            ref = complex(mp_oracle.phi(n, z))
            assert abs(lerch.phi(n, z) - ref) <= laplace_bound(n) * abs(ref), z
        top = min(100.0, 300.0 / n)
        alphas = [-(1.0 - 10.0 ** (-6.0 * rng.random())) for _ in range(8)]
        alphas += [10.0 ** (top * rng.random()) for _ in range(8)] + [-split, split, 1.0]
        for a in alphas:
            ref = float(mp_oracle.phi(n, -a).real)
            assert abs(expint.laplace_en(n, a) - ref) <= laplace_bound(n) * abs(ref), a

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

    def test_reduces_to_phi_at_s_one(self, laplace_bound):
        # within lerch_phi's tail tolerance and rounding, plus phi's own bound
        rng = random.Random(8)
        for _ in range(50):
            z = cmath.rect(0.9 * math.sqrt(rng.random()), 2 * math.pi * rng.random())
            n = rng.randrange(1, 6)
            value = lerch.phi(n, z)
            assert abs(lerch.lerch_phi(z, 1.0, float(n)) - value) <= (
                _mp_bound(1e-13, value) + laplace_bound(n) * abs(value)), (z, n)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
    def test_against_mpmath(self, mp_oracle, s):
        for z in _MP_POINTS:
            for a in (0.5, 3.0):
                ref = complex(mp_oracle.lerch_phi(z, s, a))
                for tol in _MP_TOLS:
                    got = lerch.lerch_phi(z, s, a, tol)
                    assert abs(got - ref) <= _mp_bound(tol, ref), (z, a, tol)

    def test_phi_against_mpmath(self, mp_oracle):
        # the bound of the tightest tolerance phi used to take
        for z in _MP_POINTS + [-0.7, -0.999]:
            for n in (1, 2, 5):
                ref = complex(mp_oracle.lerch_phi(z, 1, n))
                assert abs(lerch.phi(n, z) - ref) <= _mp_bound(1e-16, ref), (z, n)

    def test_integral_against_mpmath_off_the_real_axis(self, mp_oracle):
        # at the route's own tolerance; its integrand divides a real by a
        # complex number, whose last bits depend on the division used
        rng = random.Random(12)
        for _ in range(8):
            z = disk_point(rng, 0.9)
            s, a = 1.0 + 2.0 * rng.random(), 0.5 + 2.5 * rng.random()
            assert z.imag != 0.0
            ref = complex(mp_oracle.lerch_phi(z, s, a))
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
        with pytest.raises(DomainError):
            lerch.lerch_phi(0.5, math.nan, 1.0)
        with pytest.raises(DomainError):
            lerch.lerch_phi(0.5, 1.0, math.nan)
        with pytest.raises(ConfigurationError):
            lerch.lerch_phi(0.5, 1.0, 1.0, tol=0.0)
        with pytest.raises(ConfigurationError):
            lerch.lerch_phi_integral(0.5, 0.5, 1.0)

    @pytest.mark.parametrize("z, a", [(0.5, 1e-170), (0.0, 1e-170), (0.5, 1e-155)])
    def test_tiny_shift_raises(self, z, a):
        # a^2 underflows to 0, or to a subnormal whose reciprocal is inf
        with pytest.raises(DomainError):
            lerch.lerch_phi(z, 2.0, a)

    @pytest.mark.parametrize("z, s, a", [(0.5, 2.0, 1e200), (0.0, 2.0, 1e200), (0.5, 1100.0, 2.0)])
    def test_overflowing_shift_raises(self, z, s, a):
        # a^s past the double range: the guard's DomainError, not Python's OverflowError
        with pytest.raises(DomainError, match="overflows"):
            lerch.lerch_phi(z, s, a)


# the one disk check: each route refuses |z| > 1 - 1e-6, and a NaN z, in the same words
@pytest.mark.parametrize("where, call", [
    ("phi", lambda z: lerch.phi(1, z)),
    ("Lerch series", lambda z: lerch.lerch_phi(z, 1.0, 1.0)),
    ("lerch_phi_integral", lambda z: lerch.lerch_phi_integral(z, 1.0, 1.0)),
    ("Lerch series", lambda z: lerch._lerch_denominators(abs(z), 1.0, 1.0, 1e-13)),
], ids=["phi", "lerch_phi", "lerch_phi_integral", "guard"])
@pytest.mark.parametrize("z", [1.0 - 5e-7, -0.9999995j, 1.5 + 2j, complex(math.nan, 0.0),
                               complex(0.0, math.nan), complex(math.inf, 0.0)],
                         ids=["edge", "edge-imag", "far", "nan", "nan-imag", "inf"])
def test_disk_refusal_is_one_rule(where, call, z):
    with pytest.raises(DomainError) as exc:
        call(z)
    assert str(exc.value) == f"{where}: |z| = {abs(z):.8f} is off the disk |z| <= 1 - 1e-06"


@pytest.mark.parametrize("a", [0.0, -1.0, -0.5, math.nan])
def test_lerch_phi_shift_is_refused_by_the_guard(a):
    # a^s of a negative a would be complex; the guard refuses it before any term
    for z in (0.5, 0.0):
        with pytest.raises(DomainError, match=rf"^Lerch series: a must be > 0, got {a}$"):
            lerch.lerch_phi(z, 1.5, a)


# the Hurwitz route refuses each (s, a) outside its one domain, in words that name it
@pytest.mark.parametrize("s, a", [
    (1.0, 1.0), (1.0 + 1e-6, 1.0), (0.5, 2.0), (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
    (2.0, 0.0), (2.0, -1.0), (2.0, math.nan), (2.0, -math.inf), (2.0, 1e-300), (700.0, 0.3)])
def test_hurwitz_routes_share_one_domain(s, a):
    with pytest.raises(DomainError, match="^hurwitz_zeta_integral: "):
        lerch.hurwitz_zeta_integral(s, a)


def _scan_denominators(r, s, a, tol):
    # _lerch_denominators as first written: its tail test at every order up to the cut
    if not 0.0 <= r <= 1.0 - lerch.DISK_MARGIN:
        raise DomainError(f"Lerch series: |z| = {r:.8f} is off the disk |z| <= 1 - {lerch.DISK_MARGIN}")
    if not tol > 0.0:
        raise ConfigurationError(f"Lerch series: tol must be > 0, got {tol}")
    if not s > 0.0:  # added with the guard's refusal: s = NaN at a = 1 would scan forever
        raise DomainError(f"Lerch series: s must be > 0, got {s}")
    try:
        dens = [a ** s]
        if not dens[0] >= 2.0 ** -1022:
            raise DomainError(f"Lerch series: a^s = {dens[0]} at s={s}, a={a} is below 2^-1022")
        while True:
            k = len(dens)
            den = (k + a) ** s
            if r ** k / (den * (1.0 - r)) < tol:
                return dens
            dens.append(den)
    except OverflowError:
        raise DomainError(f"Lerch series: (k+a)^s overflows at s={s}, a={a}") from None


def _outcome(f, *args):
    try:
        return f(*args)
    except (ConfigurationError, DomainError) as exc:
        return type(exc), str(exc)


class TestLerchDenominators:
    def test_search_matches_the_linear_scan(self):
        # r from 0 to 1 - 1e-6, s in (1e-3, 300], a in (1e-3, 1e3]; draws whose
        # cut may pass 20 000 orders are skipped, to keep the scan short
        rng = random.Random(33)
        seen = set()
        for _ in range(1500):
            r = rng.choice([0.0, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6, rng.uniform(0.0, 1.0 - 1e-6)])
            s = math.exp(rng.uniform(math.log(1e-3), math.log(300.0)))
            a = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            tol = rng.choice([1e-300, 1e-13, 1e-3, 10.0])
            # the tail test passes once r^k < tol (1-r) (1+a)^s; (k+a)^s overflows past e^(709.8/s)
            need = math.log(tol) + math.log1p(-r) + s * math.log1p(a)
            if r > 0.0 and need < 0.0 and min(need / math.log(r), math.exp(min(709.8 / s, 20.0))) > 2e4:
                continue
            expected = _outcome(_scan_denominators, r, s, a, tol)
            assert _outcome(lerch._lerch_denominators, r, s, a, tol) == expected, (r, s, a, tol)
            if isinstance(expected, list):
                seen.add("K = 1" if len(expected) == 1 else "K > 1000" if len(expected) > 1000 else "K")
            elif "below" in expected[1]:
                seen.add("a^s below 2^-1022")
            else:
                seen.add("a^s overflows")
        assert seen == {"K = 1", "K", "K > 1000", "a^s below 2^-1022", "a^s overflows"}

    @pytest.mark.parametrize("r, s, a, tol", [
        (1.0 - 1e-6 + 1e-12, 1.0, 1.0, 1e-13), (math.nan, 1.0, 1.0, 1e-13), (0.5, 1.0, 1.0, 0.0),
        (0.5, 1.0, 1.0, math.nan), (0.5, math.nan, 2.0, 1e-13), (0.5, 200.0, 0.01, 1e-13),
        # (k+a)^s overflows before the tail test passes: at k = 1, and at k = 10
        (0.5, 300.0, 10.5, 1e-300), (1.0 - 1e-6, 300.0, 1.0, 1e-300)])
    def test_refusals_match_the_linear_scan(self, r, s, a, tol):
        expected = _outcome(_scan_denominators, r, s, a, tol)
        assert isinstance(expected, tuple)
        assert _outcome(lerch._lerch_denominators, r, s, a, tol) == expected

    @pytest.mark.parametrize("s", [math.nan, 0.0, -1.0])
    def test_refuses_s_not_positive(self, s):
        # at a = 1, a^s = 1.0 ** nan = 1.0 passes the a^s test; the search
        # would then double k without end, since every stop test reads NaN
        with pytest.raises(DomainError, match=r"s must be > 0, got"):
            lerch._lerch_denominators(0.5, s, 1.0, 1e-13)


def _assert_zeta_integral_meets_its_tol(mp_oracle, s, a, tol=1e-10):
    """hurwitz_zeta_integral(s, a, tol) held to mp_oracle within its stated
    relative bound, ``tol``."""
    ref = float(mp_oracle.hurwitz_zeta(s, a))
    assert abs(lerch.hurwitz_zeta_integral(s, a, tol) - ref) <= tol * ref, (s, a)


class TestHurwitzZeta:
    def test_basel_value(self, gold):
        value = lerch.hurwitz_zeta_integral(2.0, 1.0)
        assert value == pytest.approx(gold["zeta_2_1"], rel=1e-10)

    def test_index_shift(self):
        lhs = lerch.hurwitz_zeta_integral(2.0, 2.0)
        assert lhs == pytest.approx(math.pi ** 2 / 6.0 - 1.0, rel=1e-10)

    @pytest.mark.parametrize("s", [1.0 + 1.3e-6, 1.0 + 3.2e-6, 1.01, 1.2, 1.5, 4.0, 8.0, 10.0, 20.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 30.0, 1000.0])
    def test_integral_meets_its_tol_near_one(self, mp_oracle, s, a):
        # the subtracted t^(s-2) e^(-at) leaves a positive, bounded integrand
        # for every s > 1, and its integral tends to a finite limit as s -> 1
        _assert_zeta_integral_meets_its_tol(mp_oracle, s, a)

    @pytest.mark.parametrize("s, a", [(20.0, 1000.0), (10.0, 1000.0), (4.0, 1000.0), (8.0, 30.0)])
    def test_integral_meets_its_tol_at_large_a(self, mp_oracle, s, a):
        # large a, where zeta(s, a) is far below 1/(s-1): a sum that adds back
        # 1/(s-1) cancels here, but the route's two positive terms cannot
        _assert_zeta_integral_meets_its_tol(mp_oracle, s, a)

    def test_integral_meets_its_tol_on_a_seeded_sweep(self, mp_oracle):
        # s in (1, 21], a in [1e-3, 1e3] log-uniform; s up to 21 stays below
        # the overflow of t ** (s-1) at the far nodes.  All 300 are answered
        rng = random.Random(39)
        for _ in range(300):
            _assert_zeta_integral_meets_its_tol(
                mp_oracle, 1.0 + 1e-5 + 20.0 * rng.random(), 10.0 ** rng.uniform(-3.0, 3.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            lerch.hurwitz_zeta_integral(1.0, 1.0)

    @pytest.mark.parametrize("call, error", [
        (lambda: lerch.hurwitz_zeta_integral(math.nan, 1.0), DomainError),
        (lambda: lerch.hurwitz_zeta_integral(math.inf, 1.0), DomainError),
        (lambda: lerch.hurwitz_zeta_integral(2.0, math.nan), DomainError),
        (lambda: lerch.hurwitz_zeta_integral(2.0, 0.0), DomainError),
        (lambda: lerch.hurwitz_zeta_integral(2.0, -1.0), DomainError),
        (lambda: lerch.hurwitz_zeta_integral(2.0, 1.0, math.nan), ConfigurationError),
    ], ids=["integral-s", "integral-s-inf", "integral-a", "integral-a-zero",
            "integral-a-negative", "integral-tol"])
    def test_nan_arguments_raise(self, call, error):
        # NaN fails every guard, so no nan is returned and a nan tol cannot
        # run the integrator to its budget; nor can s = inf, or a shift a <= 0
        with pytest.raises(error):
            call()

    def test_tiny_shift_raises(self):
        # a^s = 1e-600 underflows
        with pytest.raises(DomainError):
            lerch.hurwitz_zeta_integral(2.0, 1e-300)


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

    def test_nan_point_raises(self):
        with pytest.raises(DomainError):
            lerch.dirichlet_kernel_pair(math.nan, 1.0)


class TestCompleteMonotonicity:
    def test_phi_families(self):
        for n in (1, 2, 3):
            rep = lerch.cm_evidence(lambda a: expint.laplace_en(n, a))
            assert rep.passed
            assert rep.min_signed[0] > 0.0  # f itself positive
            assert rep.min_signed[1] > 0.0  # f decreasing

    def test_detects_violations(self):
        rep = lerch.cm_evidence(math.sin)
        assert not rep.passed
        # a NaN minimum compares false with -1e-10 and must not pass either
        rep = lerch.cm_evidence(lambda a: math.nan if a < 0.15 else 1.0)
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
        with pytest.raises(ConfigurationError):
            lerch.gram_phi(1, [math.nan, 0.5])

    @pytest.mark.parametrize("radius", [0.95, 0.999])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_entries_and_trace_against_mpmath(self, mp_oracle, n, radius):
        rng = random.Random(n)
        pts = [disk_point(rng, radius) for _ in range(9)] + [radius]
        g = lerch.gram_phi(n, pts)
        assert g.min_eig >= 0.0
        mp_oracle.check_gram(g, lambda z, w: mp_oracle.phi(n, z * w.conjugate()))


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
    def test_gram_against_mpmath(self, mp_oracle, monkeypatch, kernel, n):
        grams = []
        diagonal_gram = space._diagonal_gram
        monkeypatch.setattr(space, "_diagonal_gram",
                            lambda *args: grams.append(diagonal_gram(*args)) or grams[-1])
        monkeypatch.setattr(lerch, "_AUDIT_POINTS", 12)
        rep = lerch.ml_audit(kernel, n, seed=3)
        (g,) = grams
        details = {c["name"]: c for c in rep["conditions"]}["gram-psd-sampling"]["details"]
        assert (details["min_eig"], details["trace"]) == (g.min_eig, g.trace)
        assert g.min_eig >= 0.0
        if kernel == "phi_tilde":
            mp_oracle.check_gram(g, lambda z, w: n * mp_oracle.phi(n, z * w.conjugate()))
        else:
            mp_oracle.check_gram(g, lambda z, w: mp_oracle.eta(0) * mp_oracle.kernel(z, w))
