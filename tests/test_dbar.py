import cmath
import math
import random

import numpy as np
import pytest

from hfock import dbar, space
from hfock.errors import ConfigurationError, ValidationError
from hfock.numerics import disk_point


def _random_series(rng, degree):
    return space.EntireSeries(
        tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree + 1)))


class TestEvaluation:
    def test_conjugate_monomial(self):
        u = dbar.PolyanalyticSeries(((0j,), (1.0,)))  # conj(z)
        assert u(1 + 2j) == pytest.approx(1 - 2j, abs=1e-15)

    def test_modulus_squared(self):
        u = dbar.PolyanalyticSeries(((0j, 0j), (0j, 1.0)))  # conj(z) * z
        assert u(2j) == pytest.approx(4.0 + 0j, abs=1e-15)

    def test_against_brute_force(self):
        rng = random.Random(4)
        rows = tuple(tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                           for _ in range(5)) for _ in range(2))
        u = dbar.PolyanalyticSeries(rows)
        z = 0.3 + 0.4j
        brute = sum(rows[k][j] * z.conjugate() ** k * z ** j
                    for k in range(2) for j in range(5))
        assert abs(u(z) - brute) <= 1e-13


def _laguerre(n, x):
    """L^(1)_{n-1}(x) by its three-term recurrence, in Python floats."""
    prev, poly = 1.0, 2.0 - x
    for k in range(1, n - 1):
        prev, poly = poly, ((2 * k + 2 - x) * poly - (k + 1) * prev) / (k + 1)
    return prev if n == 1 else poly


class TestPolyFockKernel:
    def test_order_one_is_exponential(self):
        z, w = 0.4 - 1.1j, 0.9 + 0.3j
        assert dbar.poly_fock_kernel(1, z, w) == pytest.approx(
            cmath.exp(z * w.conjugate()), rel=1e-14)

    def test_order_two_diagonal(self):
        z = 1 + 1j
        assert dbar.poly_fock_kernel(2, z, z) == pytest.approx(
            2.0 * math.exp(2.0), rel=1e-14)

    def test_order_two_zero_line(self):
        # 2 - |z - w|^2 vanishes when the points are sqrt(2) apart
        assert abs(dbar.poly_fock_kernel(2, 0.0, math.sqrt(2.0))) <= 1e-14

    def test_order_two_gram_psd(self):
        rng = random.Random(77)
        pts = [cmath.rect(1.5 * math.sqrt(rng.random()), 2 * math.pi * rng.random())
               for _ in range(20)]
        g = space.build_gram(pts, lambda zi, zj: dbar.poly_fock_kernel(2, zi, zj))
        assert g.is_psd()

    def test_order_cap(self):
        with pytest.raises(ConfigurationError):
            dbar.poly_fock_kernel(21, 0.0, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bit_identical_to_formula(self, n):
        # the scalar definition in plain Python arithmetic: cmath.exp times
        # the Laguerre recurrence at |z - w|^2
        rng = random.Random(n)
        for _ in range(50):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            expected = cmath.exp(z * w.conjugate()) * _laguerre(n, abs(z - w) ** 2)
            assert _same_bits([dbar.poly_fock_kernel(n, z, w)], [expected])

    @pytest.mark.parametrize("n", range(1, 21))
    def test_diagonal_is_order_times_exponential(self, n):
        # L^(1)_{n-1}(0) = C(n, n - 1) = n, so K_n(z, z) = n exp(|z|^2)
        rng = random.Random(200 + n)
        for r in (0.0, 0.3, 1.0, 1.7, 2.9):
            z = cmath.rect(r, rng.uniform(-math.pi, math.pi))
            v = dbar.poly_fock_kernel(n, z, z)
            assert v.imag == 0.0
            assert v.real == pytest.approx(n * math.exp(abs(z) ** 2), rel=1e-14)


def _formula(n, z, w):
    """The order-n kernel as plain Python scalar arithmetic."""
    d2 = abs(z - w) ** 2
    poly = math.fsum((-1.0) ** k / math.factorial(k) * math.comb(n, k + 1) * d2 ** k
                     for k in range(n))
    return cmath.exp(z * w.conjugate()) * poly


def _same_bits(a, b):
    """Bitwise equality of complex arrays: real and imaginary parts, signed zeros included."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _order2(z, w):
    return dbar.poly_fock_kernel(2, z, w)


class TestPolyFockKernelArrays:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_arrays_match_scalar_calls_and_formula(self, n):
        rng = random.Random(100 + n)
        # |z - w|^2 at each positive root of the polynomial factor, where the
        # sum cancels (|z - w| = sqrt(2) for n = 2), and at random spacings
        coeffs = [(-1.0) ** k / math.factorial(k) * math.comb(n, k + 1) for k in range(n)]
        roots = [r.real for r in np.roots(coeffs[::-1]) if abs(r.imag) < 1e-9 and r.real > 0]
        zs, ws = [], []
        for _ in range(300):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            d2 = rng.choice(roots) if roots and rng.random() < 0.5 else rng.uniform(0, 8)
            zs.append(z)
            ws.append(z + cmath.rect(math.sqrt(d2), rng.uniform(-math.pi, math.pi)))
        for z, w in ((0j, 0j), (complex(-0.0, 0.0), complex(0.0, -0.0)),
                     (complex(0.0, -0.0), complex(-0.0, -0.0)), (1.5 - 0.5j, 1.5 - 0.5j),
                     (1.25 + 0j, -1.25 + 0j), (0.75j, -0.75j)):
            zs.append(z)
            ws.append(w)
        got = dbar.poly_fock_kernel(n, np.array(zs), np.array(ws))
        scalar = [dbar.poly_fock_kernel(n, z, w) for z, w in zip(zs, ws)]
        assert all(type(v) is complex for v in scalar)
        assert _same_bits(got, scalar)
        if n <= 2:
            assert _same_bits(got, [_formula(n, z, w) for z, w in zip(zs, ws)])
            return
        assert _same_bits(got, [cmath.exp(z * w.conjugate()) * _laguerre(n, abs(z - w) ** 2)
                                for z, w in zip(zs, ws)])
        # orders >= 3: within 128 u exp(Re z conj w) sum_k |c_k| |z - w|^{2k}
        mp = pytest.importorskip("mpmath")
        ctx = mp.MPContext()
        ctx.dps = 40
        for z, w, v in zip(zs, ws, scalar):
            mz, mw = ctx.mpc(z), ctx.mpc(w)
            x = abs(mz - mw) ** 2
            terms = [(-1) ** k * math.comb(n, k + 1) * x ** k / ctx.factorial(k)
                     for k in range(n)]
            e = ctx.exp(mz * ctx.conj(mw))
            scale = abs(e) * ctx.fsum(abs(t) for t in terms)
            assert abs(ctx.mpc(v) - e * ctx.fsum(terms)) <= 128 * 2.0 ** -53 * scale, (z, w)

    def test_broadcasts_a_scalar_against_an_array(self):
        ws = np.array([0.5 + 0.5j, -1.0, 2j])
        assert _same_bits(dbar.poly_fock_kernel(3, 0.25 - 1j, ws),
                          [dbar.poly_fock_kernel(3, 0.25 - 1j, complex(w)) for w in ws])

    def test_overflow_raises_like_the_scalar_formula(self):
        with pytest.raises(OverflowError):
            _formula(2, 27 + 0j, 27 + 0j)
        with pytest.raises(OverflowError):
            dbar.poly_fock_kernel(2, 27.0, 27.0)
        with pytest.raises(OverflowError):
            dbar.poly_fock_kernel(2, np.array([0.0, 27.0]), np.array([0.0, 27.0]))
        # |z - w|^2 overflows, which the order-1 value alone would not show
        with pytest.raises(OverflowError):
            _formula(1, 1e155 + 0j, 0j)
        with pytest.raises(OverflowError):
            dbar.poly_fock_kernel(1, np.array([0.0, 1e155]), 0.0)

    def test_never_returns_inf(self):
        # exp(709.5) is finite, twice it is not: the plain formula returns inf here
        z = math.sqrt(709.5)
        assert math.isinf(_formula(2, complex(z), complex(z)).real)
        with pytest.raises(OverflowError):
            dbar.poly_fock_kernel(2, z, z)
        with pytest.raises(OverflowError):
            dbar.poly_fock_kernel(2, np.array([z, 0.0]), np.array([z, 0.0]))

    def test_large_exponents_keep_their_bits(self):
        # Re(z conj w) in (700, 709.7], where cmath.exp rescales past log(DBL_MAX / 4)
        rng = random.Random(7)
        zs, ws = [], []
        while len(zs) < 200:
            z = cmath.rect(math.sqrt(rng.uniform(700.0, 709.7)), rng.uniform(-math.pi, math.pi))
            w = z + cmath.rect(rng.uniform(0.0, 0.01), rng.uniform(-math.pi, math.pi))
            try:
                finite = cmath.isfinite(_formula(2, z, w))
            except OverflowError:
                finite = False
            if finite:
                zs.append(z)
                ws.append(w)
        expected = [_formula(2, z, w) for z, w in zip(zs, ws)]
        assert _same_bits(dbar.poly_fock_kernel(2, np.array(zs), np.array(ws)), expected)
        assert _same_bits([dbar.poly_fock_kernel(2, z, w) for z, w in zip(zs, ws)], expected)

    def test_rejects_non_finite_points(self):
        with pytest.raises(ConfigurationError):
            dbar.poly_fock_kernel(2, complex(math.nan, 0.0), 0.0)
        with pytest.raises(ConfigurationError):
            dbar.poly_fock_kernel(2, np.array([0.0, math.inf]), 0.0)

    # at orders >= 3 an overflowing recurrence step turns into inf - inf =
    # nan; the kernel must raise its own errors instead.  At 1e100 the
    # products d2 * L_k overflow, at 1e155 |z - w|^2 does, and at 27
    # exp(z conj w) does.
    @pytest.mark.parametrize("n", [3, 5, 20])
    @pytest.mark.parametrize("z, w, error", [
        (math.inf, 0.0, ConfigurationError), (complex(math.nan, 0.0), 0.0, ConfigurationError),
        (complex(0.0, -math.inf), 1.0, ConfigurationError), (1e100, 0.0, OverflowError),
        (1e155, -1e155, OverflowError), (27.0, 27.0, OverflowError)])
    def test_high_orders_raise_on_non_finite_and_overflow(self, n, z, w, error):
        with pytest.raises(error):
            dbar.poly_fock_kernel(n, z, w)
        with pytest.raises(error):
            dbar.poly_fock_kernel(n, np.array([0.5, z]), np.array([0.5j, w]))


class TestOrderTwoGram:
    @staticmethod
    def _entry_loop(points):
        m = len(points)
        M = np.zeros((m, m), dtype=complex)
        for i in range(m):
            for j in range(i, m):
                v = dbar.poly_fock_kernel(2, points[i], points[j])
                M[i, j] = v
                M[j, i] = v.conjugate()
        return M

    @staticmethod
    def _symmetrised_min_eig(M):
        # eigvalsh reads one triangle, so on an exactly Hermitian matrix
        # min_eig_hermitian must give the bits of this symmetrised eigensolve
        return float(np.linalg.eigvalsh(0.5 * (M + M.conj().T))[0])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_entry_loop_on_verify_point_sets(self, seed):
        # the point set of the order-2 check in `hfock verify dbar --seed <seed>`
        local = random.Random(seed + 7)
        pts = [disk_point(local, 1.5) for _ in range(20)]
        g = space.build_gram(pts, _order2)
        M = self._entry_loop(pts)
        assert _same_bits(g.entries, M)
        assert g.min_eig == self._symmetrised_min_eig(M)

    def test_matches_entry_loop_at_200_points(self):
        rng = random.Random(200)
        pts = [disk_point(rng, 1.5) for _ in range(200)]
        g = space.build_gram(pts, _order2)
        M = self._entry_loop(pts)
        assert _same_bits(g.entries, M)
        assert g.trace == float(M.trace().real)
        assert g.min_eig == self._symmetrised_min_eig(M)

    def test_entry_fn_called_once_on_the_upper_triangle(self):
        calls = []

        def entry_fn(z, w):
            calls.append((z, w))
            return _order2(z, w)

        pts = [0.5, 1j, -0.25 + 0.5j, 0.0]
        space.build_gram(pts, entry_fn)
        assert len(calls) == 1
        z, w = calls[0]
        iu, ju = np.triu_indices(len(pts))
        assert (z == np.array(pts)[iu]).all() and (w == np.array(pts)[ju]).all()

    def test_rejects_an_entry_fn_that_is_not_elementwise(self):
        with pytest.raises(ValidationError):
            space.build_gram([0.5, 1j], lambda z, w: 1.0 + 0j)

    def test_entries_and_trace_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        ctx = mp.MPContext()
        ctx.dps = 40
        rng = random.Random(1234)
        pts = [disk_point(rng, 1.5) for _ in range(200)]
        g = space.build_gram(pts, _order2)
        tol = 8192 * 2.0 ** -53
        mpts = [ctx.mpc(p) for p in pts]
        diag = [2 * ctx.exp(abs(p) ** 2) for p in mpts]
        trace = ctx.fsum(diag)
        assert abs(g.trace - trace) <= tol * trace
        for _ in range(200):
            i, j = rng.randrange(200), rng.randrange(200)
            z, w = mpts[i], mpts[j]
            ref = complex(ctx.exp(z * ctx.conj(w)) * (2 - abs(z - w) ** 2))
            assert abs(complex(g.entries[i, j]) - ref) <= tol * math.sqrt(diag[i] * diag[j]), (i, j)



class TestAssembly:
    def test_constant_datum(self):
        u = dbar.assemble_solution(space.EntireSeries((1.0,)), space.EntireSeries((0j,)))
        assert u.order == 2
        assert u.rows[1] == (1.0 + 0j,)
        assert u(1 + 2j) == pytest.approx(1 - 2j, abs=1e-15)

    def test_exponential_datum_coefficients(self):
        w = 0.5 + 0.25j
        f = space.EntireSeries.exponential(w, 20)
        u = dbar.assemble_solution(f, space.EntireSeries((0j,)))
        for j in (0, 1, 5, 20):
            assert u.rows[1][j] == pytest.approx(
                w.conjugate() ** j / math.factorial(j), rel=1e-13)

    def test_mixed_grid(self):
        u = dbar.assemble_solution(space.EntireSeries((0.0, 1.0)),
                                   space.EntireSeries((1.0, 1.0)))
        assert u.rows[0] == (1 + 0j, 1 + 0j)
        assert u.rows[1] == (0j, 1 + 0j)


class TestResidual:
    def test_conjugate_solution(self):
        f = space.EntireSeries((1.0,))
        u = dbar.assemble_solution(f, space.EntireSeries((0j,)))
        rep = dbar.dbar_residual(u, f, [1 + 2j, 0.5, -1j], 1e-5)
        assert rep.max_residual <= 1e-9
        assert rep.symbolic_zero

    def test_exponential_datum(self):
        f = space.EntireSeries.exponential(0.5, 25)
        u = dbar.assemble_solution(f, space.EntireSeries((0j,)))
        samples = [cmath.rect(1.5, 0.63 * k) for k in range(10)]
        rep = dbar.dbar_residual(u, f, samples, 1e-5)
        assert rep.max_residual <= 1e-6

    def test_wrong_order_flagged(self):
        # u = conj(z)^2 has residual 2 conj(z) against the constant datum 1
        u = dbar.PolyanalyticSeries(((0j,), (0j,), (1.0,)))
        f = space.EntireSeries((1.0,))
        rep = dbar.dbar_residual(u, f, [1.0, 0.5 + 0.5j], 1e-5)
        assert rep.max_residual > 1e-6
        assert not rep.symbolic_zero

    def test_random_pairs(self):
        rng = random.Random(31)
        for _ in range(20):
            f = _random_series(rng, rng.randrange(0, 7))
            u0 = _random_series(rng, rng.randrange(0, 7))
            u = dbar.assemble_solution(f, u0)
            samples = [cmath.rect(2.0 * math.sqrt(rng.random()),
                                  2 * math.pi * rng.random()) for _ in range(10)]
            rep = dbar.dbar_residual(u, f, samples, 1e-5)
            assert rep.max_residual <= 1e-6
            assert rep.symbolic_zero

    def test_perturbed_row_detected(self):
        rng = random.Random(13)
        f = _random_series(rng, 4)
        u = dbar.assemble_solution(f, _random_series(rng, 4))
        rows = [list(r) for r in u.rows]
        rows[1][2] += 1e-3
        bad = dbar.PolyanalyticSeries(tuple(tuple(r) for r in rows))
        samples = [cmath.rect(1.0, 0.9 * k) for k in range(7)]
        rep = dbar.dbar_residual(bad, f, samples, 1e-5)
        assert rep.max_residual > 1e-6
        assert not rep.symbolic_zero


class TestWeightMass:
    def test_constant(self):
        assert dbar.weight_mass(space.EntireSeries((1.0,))) == pytest.approx(math.pi)
        assert dbar.weight_mass(space.EntireSeries((1.0,)), include_pi=False) == 1.0

    def test_monomial(self):
        assert dbar.weight_mass(space.EntireSeries((0.0, 1.0))) == pytest.approx(math.pi)

    def test_exponential_datum_limit(self):
        f = space.EntireSeries.exponential(1.0, 30)
        assert dbar.weight_mass(f, include_pi=False) == pytest.approx(math.e, abs=1e-10)


class TestBudget:
    def test_zero_candidate(self):
        rep = dbar.weighted_budget_check(space.EntireSeries((0j,)),
                                         space.EntireSeries((1.0,)))
        assert rep.ok and rep.ratio == 0.0

    def test_unit_pair(self, gold):
        rep = dbar.weighted_budget_check(space.EntireSeries((1.0,)),
                                         space.EntireSeries((1.0,)))
        assert rep.lhs == pytest.approx(math.pi * gold["eta0"], rel=1e-13)
        assert rep.budget == pytest.approx(3.0 * math.pi, rel=1e-15)
        assert rep.ok

    def test_constructed_violation(self, gold):
        scale = math.sqrt(3.1 / gold["eta0"])
        rep = dbar.weighted_budget_check(space.EntireSeries((scale,)),
                                         space.EntireSeries((1.0,)))
        assert not rep.ok
        assert rep.ratio == pytest.approx(3.1 / 3.0, rel=1e-12)
