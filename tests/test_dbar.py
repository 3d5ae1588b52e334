import cmath
import math
import random

import pytest

from hfock import dbar, space
from hfock.errors import ConfigurationError


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
        rng = random.Random(n)
        for _ in range(50):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            d2 = abs(z - w) ** 2
            poly = math.fsum((-1.0) ** k / math.factorial(k) * math.comb(n, k + 1) * d2 ** k
                             for k in range(n))
            assert dbar.poly_fock_kernel(n, z, w) == cmath.exp(z * w.conjugate()) * poly


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
        assert rep.flagged(1e-6)
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
        assert rep.flagged(1e-6)
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
