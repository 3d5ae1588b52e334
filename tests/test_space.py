import cmath
import math
import random

import pytest

from hfock import moments, space
from hfock.errors import (AccuracyError, ConfigurationError, PrecisionLossError,
                          ValidationError)
from hfock.numerics import disk_point


def _random_series(rng, degree):
    return space.EntireSeries(
        tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree + 1)))


class TestEfun:
    def test_at_zero(self, gold):
        assert space.efun(0.0) == pytest.approx(1.0 / gold["eta0"], rel=1e-14)

    def test_at_one_growth_window(self, gold):
        v = space.efun(1.0).real
        assert math.e <= v <= 8.0 * math.e ** 2
        assert v == pytest.approx(gold["efun_at_1"], rel=1e-13)

    def test_alternating_argument(self, gold):
        assert space.efun(-1.0).real == pytest.approx(gold["efun_at_minus_1"], abs=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 3.0, 5.0])
    def test_growth_sandwich(self, r):
        v = space.efun(r).real
        assert math.exp(r) <= v <= 8.0 * math.exp(2.0 * r)

    def test_tail_certificate_tightens(self, gold):
        rough = space.efun(1.0, tol=1e-6).real
        assert rough == pytest.approx(gold["efun_at_1"], abs=1e-5)

    def test_truncation_order_from_a_table_grown_on_demand(self, monkeypatch):
        # the order each radius gets from lgamma(n + 2) tabulated in full at once
        full = [math.lgamma(n + 2) for n in range(4000)]

        def first_passing(r, tol):
            for n, lg in enumerate(full):
                if math.log(8.0) + (n + 1) * math.log(2.0 * r) - lg + 2.0 * r < math.log(tol):
                    return n
            return None

        monkeypatch.setattr(moments, "_TABLE", moments._EMPTY_TABLE)
        sizes = []
        for r in (0.3, 5.0, 30.0, 100.0, 300.0, 520.0, 560.0):
            for tol in (1e-12, 1e-3):
                want = first_passing(r, tol)
                if want is None:
                    with pytest.raises(AccuracyError):
                        space._trunc_index(r, tol)
                else:
                    assert space._trunc_index(r, tol) == want
                sizes.append(len(moments._TABLE.log_factorial) - 1)
        # orders 235, 737 and 2174 grow the moment table by doubling; the cut
        # at 560 fails at order 4000, which the table of order 4096 holds
        assert sorted(set(sizes)) == [256, 1024, 4096]
        assert moments._TABLE.log_factorial[1:4001] == tuple(full)


class TestKernel:
    def test_zero_section_is_constant(self, gold):
        for z in (0.0, 1.0, 2 - 1j, 5j):
            assert space.kernel(z, 0.0) == pytest.approx(1.0 / gold["eta0"], rel=1e-14)

    def test_diagonal_real_and_bounded_below(self):
        for z in (0.3, 1 + 1j, -2j):
            v = space.kernel(z, z)
            assert abs(v.imag) <= 1e-12 * v.real
            assert v.real >= math.exp(abs(z) ** 2)

    def test_hermitian_symmetry(self):
        v1 = space.kernel(1.0, 1j)
        v2 = space.kernel(1j, 1.0)
        assert v1 == pytest.approx(v2.conjugate(), abs=1e-14)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 3: efun(-3) cancels, and kernel(1.5, -2) is 9.1e-11 off, "
        "relative, without raising"))
    def test_cancelling_sum_meets_tol_or_raises(self, mp_oracle):
        ref = complex(mp_oracle.kernel(1.5, -2))
        try:
            got = space.kernel(1.5, -2)
        except (AccuracyError, PrecisionLossError):
            return
        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_ml_normalization(self):
        assert space.kernel(0.7j, 0.0, ml_normalized=True) == pytest.approx(1.0, rel=1e-14)


class TestInnerProduct:
    def test_basis_elements_are_unit(self):
        for n in (0, 1, 7, 40):
            e_n = space.EntireSeries.basis_element(n)
            assert space.h_inner(e_n, e_n) == pytest.approx(1.0, abs=1e-12)

    def test_monomials_orthogonal_exactly(self):
        # disjoint supports never meet, mirroring the vanishing angular integral
        assert space.h_inner(space.EntireSeries.monomial(3),
                             space.EntireSeries.monomial(5)) == 0

    def test_one_plus_z(self, gold):
        f = space.EntireSeries((1.0, 1.0))
        got = space.h_inner(f, f).real
        assert got == pytest.approx(gold["eta0"] + gold["eta1"], rel=1e-14)
        # the same number is the weighted integral of 1/(1+t), a happy identity
        assert got == pytest.approx(gold["int_exp_over_one_plus_t"], rel=1e-13)

    def test_orthonormality_grid(self):
        for n in range(0, 41, 8):
            for m in range(0, 41, 8):
                val = space.h_inner(space.EntireSeries.basis_element(n),
                                    space.EntireSeries.basis_element(m))
                assert abs(val - (1.0 if n == m else 0.0)) <= 1e-12


class TestQuadratureNorm:
    def test_constant(self, gold):
        f = space.EntireSeries((1.0,))
        assert space.norm_sq_by_quadrature(f) == pytest.approx(
            space.h_inner(f, f).real, rel=1e-10)
        assert space.norm_sq_by_quadrature(f) == pytest.approx(gold["eta0"], rel=1e-10)

    def test_cubic_monomial(self, gold):
        assert space.norm_sq_by_quadrature(space.EntireSeries.monomial(3)) == pytest.approx(
            gold["eta3"], rel=1e-10)

    def test_scaling(self, gold):
        f = space.EntireSeries((0.0, 2.0))
        assert space.norm_sq_by_quadrature(f) == pytest.approx(4.0 * gold["eta1"], rel=1e-10)

    def test_degree_cap(self):
        with pytest.raises(ConfigurationError):
            space.norm_sq_by_quadrature(space.EntireSeries.monomial(51))


class TestReproducing:
    def test_constant(self):
        inner, direct = space.reproducing_check(space.EntireSeries((1.0,)), 2.3 - 1j)
        assert inner == pytest.approx(1.0, abs=1e-13)
        assert direct == 1.0

    def test_square_at_one_plus_i(self):
        inner, direct = space.reproducing_check(space.EntireSeries.monomial(2), 1 + 1j)
        assert direct == pytest.approx(2j, abs=1e-15)
        assert inner == pytest.approx(2j, abs=1e-12)

    def test_random_degree_10(self):
        rng = random.Random(5)
        for _ in range(25):
            f = _random_series(rng, 10)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            inner, direct = space.reproducing_check(f, z)
            assert abs(inner - direct) <= 1e-12 * (1.0 + abs(direct))

    @pytest.mark.parametrize("n, z", [(1000, 30), (300, 3)])
    def test_out_of_range_raises(self, n, z):
        # 30^1000 overflows f(z); 3^300 / eta_300 underflows K_z's coefficient
        with pytest.raises(AccuracyError, match="double range"):
            space.reproducing_check(space.EntireSeries.monomial(n), z)

    def test_origin_keeps_its_zero_coefficients(self):
        # K_0 = 1 / eta_0 exactly: its zero coefficients are no underflow
        inner, direct = space.reproducing_check(space.EntireSeries((0.5, 1.0, 2.0)), 0)
        assert direct == 0.5
        assert inner == pytest.approx(0.5, rel=1e-13)


def _value_and_bound(f, z):
    """|f(z)| and sqrt(K(z, z)) ||f||, which bounds it."""
    return abs(f(z)), math.sqrt(space.efun(abs(z) * abs(z)).real) * space.h_norm(f)


class TestPointwiseBound:
    def test_constant_at_three(self):
        value, bound = _value_and_bound(space.EntireSeries((1.0,)), 3.0 + 0j)
        assert value <= bound * (1.0 + 1e-10)

    def test_quintic_on_circle(self):
        value, bound = _value_and_bound(space.EntireSeries.monomial(5), 2.0 + 0j)
        assert value <= bound * (1.0 + 1e-10)

    def test_kernel_section_saturates(self):
        w = 1.1 - 0.6j
        logs = moments.log_eta_sequence(70)
        coeffs = tuple(w.conjugate() ** n * math.exp(-logs[n]) for n in range(71))
        value, bound = _value_and_bound(space.EntireSeries(coeffs), w)
        assert value <= bound * (1.0 + 1e-10)
        assert value / bound > 1.0 - 1e-9


class TestGram:
    def test_single_origin_point(self, gold):
        g = space.gram_kernel([0.0])
        assert g.min_eig == pytest.approx(1.0 / gold["eta0"], rel=1e-13)
        assert g.is_psd()

    def test_duplicate_points_rank_deficient(self):
        g = space.gram_kernel([1.0, 1.0])
        assert g.min_eig == pytest.approx(0.0, abs=1e-12)
        assert g.is_psd()

    def test_three_canonical_points(self):
        g = space.gram_kernel([0.0, 1.0, 1j])
        assert g.min_eig >= 0.0
        assert g.entries[0, 0].real == pytest.approx(space.efun(0.0).real, rel=1e-14)

    def test_random_50_points(self):
        rng = random.Random(12)
        pts = [cmath.rect(2.0 * math.sqrt(rng.random()), 2 * math.pi * rng.random())
               for _ in range(50)]
        assert space.gram_kernel(pts).is_psd()

    def test_point_cap(self):
        with pytest.raises(ConfigurationError):
            space.gram_kernel([0.1] * 201)

    @pytest.mark.parametrize("point", [math.nan, complex(0.0, math.inf)])
    def test_non_finite_point(self, point):
        with pytest.raises(ConfigurationError):
            space.gram_kernel([0.5, point])
        with pytest.raises(ConfigurationError):
            space.build_gram([0.5, point], lambda z, w: z * w.conj())

    @pytest.mark.parametrize("radius", [0.5, 2.0, 5.0, 20.0])
    def test_entries_and_trace_against_mpmath(self, mp_oracle, radius):
        rng = random.Random(int(10 * radius))
        pts = [disk_point(rng, radius) for _ in range(11)] + [radius]
        g = space.gram_kernel(pts)
        assert g.min_eig >= 0.0
        mp_oracle.check_gram(g, mp_oracle.kernel)

    def test_min_eig_nonnegative_at_radius_5(self):
        # eigvalsh of the rounded matrix gave -1.99e-2 here, against a trace of 9.5e13
        rng = random.Random(4)
        g = space.gram_kernel([disk_point(rng, 5.0) for _ in range(50)])
        assert g.min_eig >= 0.0

    def test_rejects_kernel_whose_diagonal_is_not_real(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            space.build_gram([1.0, 2.0], lambda z, w: z * w.conj() + 1j)

    @pytest.mark.parametrize("factor, raises", [(0.5, False), (2.0, True)])
    def test_diagonal_imaginary_part_at_the_threshold(self, factor, raises):
        # the diagonal values are 1 and 4 + i t, so the guard reads
        # 2 t > 1e-12 * max(1, 4): its threshold is t = 2e-12
        t = factor * 2e-12

        def entry(z, w):
            return z * w.conj() + 1j * t * (z == 2.0) * (w == 2.0)

        if raises:
            with pytest.raises(ValidationError, match="not Hermitian"):
                space.build_gram([1.0, 2.0], entry)
        else:
            assert space.build_gram([1.0, 2.0], entry).min_eig == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d0, off, error", [
        (1e-11j, 0.0, ValidationError),
        (complex(0.0, 1.7e308), 0.0, ValidationError),  # 2 Im overflows
        (1e-11j, math.nan, AccuracyError),
        (1e-11j, complex(0.0, math.inf), AccuracyError),
        (complex(math.nan, 1e-11), 0.0, AccuracyError),
        (complex(0.0, math.nan), 0.0, AccuracyError),
        (complex(math.inf, 1e-11), 0.0, AccuracyError),
        (complex(math.nan, 1.7e308), 0.0, AccuracyError),
    ])
    def test_guard_is_the_full_hermitian_check(self, d0, off, error):
        # build_gram checks the diagonal alone, and must raise ValidationError
        # exactly where max|M - M^H| > 1e-12 max(1, max|M|) does; a value that
        # is not finite raises AccuracyError before that check
        import numpy as np

        v = np.array([1.0 + d0, off, 1.0])  # entries (0, 0), (0, 1), (1, 1)
        if error is AccuracyError:
            with pytest.raises(AccuracyError, match="not a finite double"):
                space.build_gram([0.0, 1.0], lambda z, w: v)
            return
        M = np.array([[v[0].conjugate(), v[1]], [v[1].conjugate(), v[2].conjugate()]])
        with np.errstate(over="ignore"):
            drift = float(np.max(np.abs(M - M.conj().T)))
            assert drift > 1e-12 * max(1.0, float(np.max(np.abs(M))))
            with pytest.raises(ValidationError, match="not Hermitian"):
                space.build_gram([0.0, 1.0], lambda z, w: v)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_raises(self, bad):
        # a NaN min_eig would read as the verdict "indefinite"
        import numpy as np

        with pytest.raises(AccuracyError, match="not a finite double"):
            space.build_gram([0, 1], lambda z, w: np.array([1, bad, 1]))

    def test_more_points_than_terms_is_singular(self):
        # at radius 0.5 the kernel series is truncated after 13 terms
        rng = random.Random(3)
        g = space.gram_kernel([disk_point(rng, 0.5) for _ in range(14)])
        assert g.min_eig == 0.0
        assert g.is_psd()


class TestMembership:
    def test_basis_element(self, gold):
        f = space.EntireSeries.basis_element(3)
        assert space.h_norm(f) == pytest.approx(1.0, abs=1e-13)
        assert space.fock_norm(f) == pytest.approx(math.sqrt(6.0 / gold["eta3"]), rel=1e-13)

    def test_quadratic(self, gold):
        f = space.EntireSeries((1.0, 1.0, 1.0))
        expected = gold["eta0"] + gold["eta1"] + gold["eta2"]
        assert space.h_norm(f) ** 2 == pytest.approx(expected, rel=1e-13)

    def test_norm_domination(self):
        rng = random.Random(99)
        for _ in range(100):
            f = _random_series(rng, rng.randrange(0, 30))
            assert space.h_norm(f) <= space.fock_norm(f) * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", [200, 300])
    def test_fock_norm_of_a_high_monomial(self, n):
        # n! overflows a double, its root does not; lgamma's few-ulp error
        # at 863 (n = 200) shows as 2e-14 in the root
        exact = float(math.isqrt(math.factorial(n)))
        assert space.fock_norm(space.EntireSeries.monomial(n)) == pytest.approx(exact, rel=1e-13)

    def test_fock_norm_past_the_double_range_raises(self):
        with pytest.raises(AccuracyError, match="double range"):
            space.fock_norm(space.EntireSeries.monomial(400))


class TestWeightedSum:
    """Every norm and inner product sums through one log-scale helper."""

    def test_in_range_terms_keep_their_bits(self):
        # where every term is normal, the terms are exp(log eta_n) * (a_n
        # conj(b_n)), compensated-summed, as before the log-scale route
        rng = random.Random(23)
        for _ in range(50):
            f, g = (_random_series(rng, rng.randrange(0, 40)) for _ in range(2))
            logs = moments.log_eta_sequence(min(f.degree, g.degree))
            terms = [math.exp(lw) * (a * b.conjugate())
                     for lw, a, b in zip(logs, f.coeffs, g.coeffs) if a and b]
            expected = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
            assert space.h_inner(f, g) == expected
            assert space.h_norm(f) == math.sqrt(max(space.h_inner(f, f).real, 0.0))

    @pytest.mark.parametrize("call, exact", [
        (lambda: space.h_norm(space.EntireSeries.monomial(180)),
         lambda mp: mp.ctx.sqrt(mp.eta(180))),
        (lambda: space.h_norm(space.EntireSeries.monomial(100, 1e-170)),
         lambda mp: mp.ctx.sqrt(mp.eta(100)) * mp.ctx.mpf(1e-170)),
        (lambda: space.fock_norm(space.EntireSeries.monomial(200, 1e-200)),
         lambda mp: mp.ctx.sqrt(mp.ctx.factorial(200)) * mp.ctx.mpf(1e-200)),
        (lambda: space.h_inner(space.EntireSeries.monomial(150, 1e-160),
                               space.EntireSeries.monomial(150, 1e-170j)),
         lambda mp: -1j * mp.eta(150) * mp.ctx.mpf(1e-160) * mp.ctx.mpf(1e-170)),
    ], ids=["h_norm-180", "h_norm-tiny-coefficient", "fock_norm-tiny-coefficient",
            "h_inner-underflowing-product"])
    def test_value_held_to_mpmath_where_a_term_leaves_the_range(self, mp_oracle, call, exact):
        # ||z^180||^2 overflows though the norm does not; a coefficient
        # product of 1e-340 underflows though the norm or inner product is
        # a normal double.  Both take the log-scale route
        got = call()
        ref = exact(mp_oracle)
        assert abs(got - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("call", [
        lambda: space.h_norm(space.EntireSeries.monomial(400)),
        lambda: space.h_inner(space.EntireSeries.monomial(400), space.EntireSeries.monomial(400)),
        lambda: space.h_inner(space.EntireSeries.monomial(170, 1e100),
                              space.EntireSeries.monomial(170, 1e100)),
        lambda: space.h_inner(space.EntireSeries.monomial(0, 1e-200),
                              space.EntireSeries.monomial(0, 1e-200)),
    ], ids=["h_norm-400", "h_inner-400", "h_inner-large-coefficient", "h_inner-underflow"])
    def test_value_past_the_double_range_raises(self, call):
        # never OverflowError, inf or a silent 0.0
        with pytest.raises(AccuracyError, match="double range"):
            call()

