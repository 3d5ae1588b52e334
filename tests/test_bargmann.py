import cmath
import math
import random

import numpy as np
import pytest

from hfock import bargmann, moments, space
from hfock.errors import AccuracyError, ConfigurationError, DomainError, PrecisionLossError
from hfock.numerics import csum, gauss_hermite

# The routines below are the Bargmann evaluators as first written, with every
# coefficient computed per term; the tables that replaced them keep each bit.


def _fsum_complex(terms):
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def _ldexp_safe(m, e):
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _ref_hermite_psi(n_max, x):
    ln0 = -0.25 * math.log(math.pi) - 0.5 * x * x
    exp0 = int(math.floor(ln0 / math.log(2.0)))
    v_prev, v_cur, scale = 0.0, math.exp(ln0 - exp0 * math.log(2.0)), exp0
    out = [_ldexp_safe(v_cur, scale)]
    for n in range(n_max):
        v_next = x * math.sqrt(2.0 / (n + 1)) * v_cur - math.sqrt(n / (n + 1)) * v_prev
        v_prev, v_cur = v_cur, v_next
        m = max(abs(v_prev), abs(v_cur))
        if m > 2.0 ** 400:
            v_prev, v_cur, scale = v_prev * 2.0 ** -800, v_cur * 2.0 ** -800, scale + 800
        elif 0.0 < m < 2.0 ** -400:
            v_prev, v_cur, scale = v_prev * 2.0 ** 800, v_cur * 2.0 ** 800, scale - 800
        out.append(_ldexp_safe(v_cur, scale))
    return out


def _ref_weighted_powers(z, log_c):
    out, zp = [], 1.0 + 0j
    for lc in log_c:
        out.append(zp * math.exp(lc))
        zp *= z
    return out


def _ref_bargmann_cut(z, tol):
    if z == 0:
        return 0
    a = math.sqrt(2.0) * abs(z)
    for n in range(1000):
        bound = 0.5 * math.log(8.0) + math.log(2.0) + (n + 1) * math.log(a) \
            - 0.5 * math.lgamma(n + 2)
        if n + 2 > 8.0 * abs(z) ** 2 and bound < math.log(tol):
            return n
    raise ConfigurationError("truncation bound not reached")


def _ref_bargmann_kernel(z, x, tol=1e-12):
    n_trunc = _ref_bargmann_cut(z, tol)
    coeff = _ref_weighted_powers(z, [-0.5 * v for v in moments.log_eta_sequence(n_trunc)])
    return _fsum_complex([c * p for c, p in zip(coeff, _ref_hermite_psi(n_trunc, x))])


def _ref_kernel_l2_norm_sq(z):
    rule = gauss_hermite(200)
    xs = rule.nodes
    psi = np.empty((61, xs.size))
    psi[0] = bargmann.PI_QUARTER_INV
    psi[1] = bargmann.PI_QUARTER_INV * math.sqrt(2.0) * xs
    for n in range(1, 60):
        psi[n + 1] = xs * math.sqrt(2.0 / (n + 1)) * psi[n] - math.sqrt(n / (n + 1)) * psi[n - 1]
    coeff = np.array(_ref_weighted_powers(z, [-0.5 * v for v in moments.log_eta_sequence(60)]))
    return float(np.dot(rule.weights, np.abs(coeff @ psi) ** 2))


_rng = random.Random(3141)
# |z|, |x| <= 3, and the point whose sum cancels 4e7-fold
_KERNEL_DRAWS = [(cmath.rect(3.0 * math.sqrt(_rng.random()), _rng.uniform(-math.pi, math.pi)),
                  _rng.uniform(-3.0, 3.0)) for _ in range(12)] + [(2.75, -2.65), (3.0, 3.0)]


class TestHermitePsi:
    def test_ground_state_at_origin(self):
        psi = bargmann.hermite_psi(1, 0.0)
        assert psi[0] == pytest.approx(math.pi ** -0.25, rel=1e-15)
        assert psi[1] == 0.0

    def test_gauss_hermite_inner_products(self):
        rule = gauss_hermite(60)
        mat = bargmann._psi_scaled_matrix(5, rule.nodes)
        g33 = float(np.dot(rule.weights, mat[3] * mat[3]))
        g35 = float(np.dot(rule.weights, mat[3] * mat[5]))
        assert g33 == pytest.approx(1.0, abs=1e-12)
        assert abs(g35) <= 1e-12

    @pytest.mark.parametrize("x", [-8.0, -1.3, 0.0, 0.4, 2.7, 19.0, 33.0])
    def test_uniform_envelope(self, x):
        psi = bargmann.hermite_psi(300, x)
        assert float(np.max(np.abs(psi))) <= 1.0

    def test_forbidden_region_traversal(self):
        # psi_0(40) underflows double precision entirely, but the recurrence
        # must still come back with the right mid-order values
        psi = bargmann.hermite_psi(1000, 40.0)
        assert psi[0] == 0.0
        assert float(np.max(np.abs(psi))) > 1e-3
        assert float(np.max(np.abs(psi))) <= 1.0

    def test_three_term_recurrence(self):
        x = 1.7
        psi = bargmann.hermite_psi(80, x)
        scale = float(np.max(np.abs(psi)))
        for n in range(1, 80):
            resid = psi[n + 1] - x * math.sqrt(2.0 / (n + 1)) * psi[n] \
                + math.sqrt(n / (n + 1)) * psi[n - 1]
            assert abs(resid) <= 1e-13 * scale

    @pytest.mark.parametrize("x", [0.0, 5.0, 23.57, 27.5, 40.0, -33.0])
    def test_bit_identical_to_per_step_square_roots(self, x):
        # from x of about 23.5 on, psi_0 is below 2^-400 and the mantissa pair
        # is scaled by 2^-800 as it grows; at 23.57 it is also scaled back up
        # by 2^800, each four times
        assert bargmann.hermite_psi(1000, x) == _ref_hermite_psi(1000, x)

    def test_bit_identical_on_a_seeded_sweep(self):
        # x on [-40, 40] and near +-23.7, where v_cur can drop below 2^-400 at a sign
        # change soon after a rescale while v_prev stays above: at 23.56577776681374
        # (steps 289 and 300) and -23.686875965065617 (steps 306 and 360)
        rng = random.Random(34)
        xs = [rng.uniform(-40.0, 40.0) for _ in range(40)] + \
            [rng.choice((-1.0, 1.0)) * rng.uniform(23.5, 24.0) for _ in range(20)] + \
            [23.56577776681374, -23.686875965065617]
        for x in xs:
            got = bargmann.hermite_psi(1000, x)
            assert list(map(float.hex, got)) == list(map(float.hex, _ref_hermite_psi(1000, x))), x

    def test_order_cap(self):
        with pytest.raises(ConfigurationError):
            bargmann.hermite_psi(1001, 0.0)

    @pytest.mark.parametrize("x", [40.5, math.nan])
    def test_argument_cap(self, x):
        with pytest.raises(ConfigurationError):
            bargmann.hermite_psi(5, x)


class TestBargmannKernel:
    def test_at_z_zero(self, gold):
        x = 0.37
        expected = bargmann.hermite_psi(0, x)[0] / math.sqrt(gold["eta0"])
        assert bargmann.bargmann_kernel(0.0, x) == pytest.approx(expected, rel=1e-14)

    def test_even_in_z_at_x_zero(self):
        # odd Hermite functions vanish at the origin
        v1 = bargmann.bargmann_kernel(1.0, 0.0)
        v2 = bargmann.bargmann_kernel(-1.0, 0.0)
        assert v1 == pytest.approx(v2, rel=1e-13)

    def test_brute_force_partial_sum(self):
        z, x = 0.5, 1.0
        psi = bargmann.hermite_psi(80, x)
        logs = moments.log_eta_sequence(80)
        brute = csum([z ** n * math.exp(-0.5 * logs[n]) * psi[n] for n in range(81)])
        assert bargmann.bargmann_kernel(z, x) == pytest.approx(brute, abs=1e-10)

    @pytest.mark.parametrize("z, x", _KERNEL_DRAWS)
    def test_bit_identical_to_per_term_coefficients(self, z, x):
        assert bargmann.bargmann_kernel(z, x) == _ref_bargmann_kernel(complex(z), x)

    @pytest.mark.parametrize("tol", [1e-3, 1e-12, 1e-300])
    def test_cut_bit_identical_to_per_order_lgamma_search(self, monkeypatch, tol):
        # |z| up to 6.8, the largest real z whose powers stay finite to the
        # cut at tol 1e-12; at 1e-300 the cuts reach order 999, and from
        # |z| = 4 on the powers overflow before them.  Each search starts
        # from no table, so from |z| = 6 on it grows the table past order
        # 256 before its first order, floor(8 |z|^2) - 1
        cuts = []
        psi = bargmann.hermite_psi
        monkeypatch.setattr(bargmann, "hermite_psi", lambda n, x: cuts.append(n) or psi(n, x))
        for r in (0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 6.5, 6.7, 6.8):
            for angle, x in ((0.0, 0.3), (0.7, -5.0), (math.pi / 2, 3.0), (2.5, 0.0),
                             (math.pi, 1.1)):
                z = cmath.rect(r, angle)
                want = _ref_bargmann_kernel(z, x, tol)
                monkeypatch.setattr(moments, "_TABLE", moments._EMPTY_TABLE)
                if cmath.isfinite(want):
                    assert bargmann.bargmann_kernel(z, x, tol) == want
                else:
                    with pytest.raises(AccuracyError):
                        bargmann.bargmann_kernel(z, x, tol)
                assert cuts.pop() == _ref_bargmann_cut(z, tol)

    def test_cut_past_order_1000_raises(self):
        with pytest.raises(ConfigurationError, match="truncation bound not reached"):
            _ref_bargmann_cut(9.9, 1e-300)
        with pytest.raises(ConfigurationError, match="truncation bound not reached"):
            bargmann.bargmann_kernel(9.9, 0.0, 1e-300)

    @pytest.mark.parametrize("z, x", [(0.5 + 0.2j, 0.3), (1 - 1j, 1.5), (2.9j, -3.0)])
    def test_against_mpmath(self, mp_oracle, z, x):
        ref = complex(mp_oracle.bargmann_kernel(z, x))
        assert abs(bargmann.bargmann_kernel(z, x) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 3: the cancelling sum is 1.2e-8 off, relative, without raising"))
    def test_cancelling_sum_meets_tol_or_raises(self, mp_oracle):
        ref = complex(mp_oracle.bargmann_kernel(2.75, -2.65))
        try:
            got = bargmann.bargmann_kernel(2.75, -2.65)
        except (AccuracyError, PrecisionLossError):
            return
        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_overflowing_powers_raise(self):
        # z^n overflows from n of about 364, before the cut near 392
        with pytest.raises(AccuracyError):
            bargmann.bargmann_kernel(7.0, 0.0)

    def test_nan_point_raises(self):
        with pytest.raises(ConfigurationError):
            bargmann.bargmann_kernel(1.0, math.nan)


class TestL2Identity:
    def test_at_zero(self, gold):
        assert bargmann.kernel_l2_norm_sq(0.0) == pytest.approx(1.0 / gold["eta0"], rel=1e-12)

    @pytest.mark.parametrize("z", [0.5, 1.0, 1.5])
    def test_matches_efun(self, z):
        got = bargmann.kernel_l2_norm_sq(z)
        want = space.efun(z * z).real
        assert abs(got - want) <= 1e-8 * want

    def test_depends_only_on_modulus(self):
        got = bargmann.kernel_l2_norm_sq(1.5j)
        want = space.efun(2.25).real
        assert abs(got - want) <= 1e-8 * want

    def test_rotation_invariance(self):
        base = bargmann.kernel_l2_norm_sq(1.2)
        for k in range(1, 8):
            v = bargmann.kernel_l2_norm_sq(cmath.rect(1.2, k * math.pi / 4))
            assert abs(v - base) <= 1e-10 * base

    @pytest.mark.parametrize("z", [0.0, 0.7 - 0.2j, 1.5j, cmath.rect(2.0, 2.5)])
    def test_bit_identical_to_per_call_matrix(self, z):
        # twice: the second call reads the matrix the first one built
        for _ in range(2):
            assert bargmann.kernel_l2_norm_sq(z) == _ref_kernel_l2_norm_sq(complex(z))

    def test_argument_caps(self):
        with pytest.raises(ConfigurationError):
            bargmann.kernel_l2_norm_sq(2.5)


class TestClassicalGeneratingFunction:
    def test_at_zero(self):
        x = 0.9
        lhs, rhs = bargmann.hermite_generating_pair(0.0, x)
        expected = math.pi ** -0.25 * math.exp(-0.5 * x * x)
        assert lhs == pytest.approx(expected, rel=1e-14)
        assert rhs == pytest.approx(expected, rel=1e-14)

    def test_real_point(self):
        lhs, rhs = bargmann.hermite_generating_pair(1.0, 0.0)
        assert rhs == pytest.approx(math.pi ** -0.25 * math.exp(-0.5), rel=1e-14)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_imaginary_point(self):
        lhs, rhs = bargmann.hermite_generating_pair(1j, 1.0)
        assert abs(lhs - rhs) <= 1e-10

    def test_random_points(self):
        rng = random.Random(2)
        for _ in range(50):
            z = cmath.rect(3.0 * math.sqrt(rng.random()), 2 * math.pi * rng.random())
            x = rng.uniform(-5, 5)
            lhs, rhs = bargmann.hermite_generating_pair(z, x)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


class TestWeightedGeneratingFunction:
    def test_at_zero_collapses_to_first_moment(self, gold):
        x = 0.7
        lhs, rhs = bargmann.weighted_generating_pair(0.0, x)
        expected = gold["eta0"] * math.pi ** -0.25 * math.exp(-0.5 * x * x)
        assert lhs == pytest.approx(expected, rel=1e-13)
        assert rhs == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("z", [0.05, -0.12, 0.15, 0.1 + 0.05j])
    @pytest.mark.parametrize("x", [0.0, 0.7, -2.0])
    def test_asymptotic_agreement(self, z, x):
        lhs, rhs = bargmann.weighted_generating_pair(z, x)
        assert abs(lhs - rhs) <= 1e-7 * (1.0 + abs(rhs))

    def test_outside_validated_disk(self):
        # the coefficient series is asymptotic; its optimal-truncation floor
        # exceeds the documented gap beyond |z| ~ 0.15
        with pytest.raises(DomainError):
            bargmann.weighted_generating_pair(0.5, 0.0)

    def test_divergent_integral_direction(self):
        with pytest.raises(DomainError):
            bargmann.weighted_generating_pair(0.1j, 0.0)
