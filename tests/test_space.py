import cmath
import math
import random

import pytest

from hfock import moments, space
from hfock.errors import ConfigurationError, ValidationError
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

    @pytest.mark.parametrize("radius", [0.5, 2.0, 5.0, 20.0])
    def test_entries_and_trace_against_mpmath(self, mp_gram, radius):
        rng = random.Random(int(10 * radius))
        pts = [disk_point(rng, radius) for _ in range(11)] + [radius]
        mp_gram.check(space.gram_kernel(pts), mp_gram.efun)

    def test_min_eig_nonnegative_at_radius_5(self):
        # eigvalsh of the rounded matrix gave -1.99e-2 here, against a trace of 9.5e13
        rng = random.Random(4)
        g = space.gram_kernel([disk_point(rng, 5.0) for _ in range(50)])
        assert g.min_eig >= 0.0

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


def test_min_eig_rejects_asymmetric_input():
    import numpy as np
    from hfock.numerics import min_eig_hermitian
    with pytest.raises(ValidationError):
        min_eig_hermitian(np.array([[1.0, 2.0], [1.0, 1.0]]))
