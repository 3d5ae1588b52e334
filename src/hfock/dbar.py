"""Polyanalytic series, the order-n Gaussian-space kernels, assembly of
order-2 solutions u = conj(z) f + u0 of du/d(conj z) = f, and residual
verification of candidate solutions.

Solutions are verified, never synthesized: given an analytic datum f and an
analytic u0, the assembled u solves the equation identically, and the
finite-difference residual measures only stencil error.  Any mismatch in the
conj(z) row shows up as a residual of the size of the perturbation.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple

from . import moments, space
from .errors import ConfigurationError, check_order
from .numerics import wirtinger_fd

_EXP_CMATH_CUTOFF = 700.0


class PolyanalyticSeries(namedtuple("PolyanalyticSeries", "rows")):
    """Coefficient grid ``rows[k][j]`` of sum_k sum_j conj(z)^k z^j a_{k,j}:
    at least one row, each a tuple of complex."""

    __slots__ = ()

    def __new__(cls, rows):
        if not rows:
            raise ConfigurationError("PolyanalyticSeries: need at least one row")
        return super().__new__(cls, tuple(tuple(complex(c) for c in row) for row in rows))

    @property
    def order(self) -> int:
        return len(self.rows)

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        zc = z.conjugate()
        acc = 0j
        zck = 1.0 + 0j
        for row in self.rows:
            acc += zck * space._horner(row, z)
            zck *= zc
        return acc


def poly_fock_kernel(n: int, z, w):
    """Reproducing kernel of the order-n polyanalytic Gaussian space:
    exp(z conj(w)) L^(1)_{n-1}(|z - w|^2), where the generalised Laguerre
    polynomial L^(1)_{n-1}(x) = sum_{k<n} ((-1)^k / k!) C(n, k+1) x^k.

    Elementwise over numpy arrays of points; a scalar call returns a complex,
    with the same bits as the array call.  The polynomial comes from its
    three-term recurrence (DLMF 18.9.1).  Orders 1 and 2 have the bits of
    the scalar formula ``cmath.exp(z * w.conjugate()) * (2.0 - abs(z - w) ** 2)``
    (factor 1.0 at order 1): both complex products are written out as Python
    forms them, signed zeros included, and |z - w| is ``hypot``.  Orders
    n >= 3 are within 128 u exp(Re z conj(w)) sum_k |c_k| |z - w|^{2k} of the
    exact value, u = 2^-53 and c_k the coefficients above.  Raises
    OverflowError where the value or |z - w|^2 overflows, and where it would
    return inf or nan.
    """
    n = check_order("poly_fock_kernel", "order", n, 1, 20)
    import numpy as np

    # numpy scalars for scalar points, so their arithmetic skips the array overhead
    z, w = np.complex128(z), np.complex128(w)
    scalar = z.ndim == w.ndim == 0
    zr, zi, wr, wi = z.real, z.imag, w.real, w.imag
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = np.float_power(np.hypot(zr - wr, zi - wi), 2.0)
        # L_0 = 1, L_1 = 2 - d2, (k+1) L_{k+1} = (2k+2 - d2) L_k - (k+1) L_{k-1}
        prev, poly = 1.0, 2.0 - d2
        for k in range(1, n - 1):
            prev, poly = poly, ((2 * k + 2 - d2) * poly - (k + 1) * prev) / (k + 1)
        if n == 1:
            poly = prev
        q = np.empty(d2.shape, dtype=complex)
        q.real = zr * wr - zi * -wi
        q.imag = zr * -wi + zi * wr
        # past log(DBL_MAX / 4) cmath.exp rescales; take those few from cmath itself
        big = q.real > _EXP_CMATH_CUTOFF
        slow = [cmath.exp(v) for v in q[big].tolist()]
        e = np.exp(q)
        del q
        if slow:
            e = np.asarray(e)
            e[big] = slow
        # exp * poly as Python multiplies a complex by a float
        re = e.real * poly - e.imag * 0.0
        im = e.real * 0.0 + e.imag * poly
        # an overflowing |z - w|^2 is caught even where the order-1 poly ignores it
        check = re + im * 0.0 + d2 * 0.0
    if not (math.isfinite(check) if scalar else np.isfinite(check).all()):
        if not (np.isfinite(z).all() and np.isfinite(w).all()):
            raise ConfigurationError("poly_fock_kernel: points must be finite")
        raise OverflowError("poly_fock_kernel: value overflows")
    if scalar:
        return complex(re, im)
    e.real, e.imag = re, im
    return e


def assemble_solution(f: space.EntireSeries, u0: space.EntireSeries) -> PolyanalyticSeries:
    """Order-2 solution u = conj(z) f(z) + u0(z) of du/d(conj z) = f."""
    width = max(f.degree, u0.degree) + 1
    row0 = tuple(u0.coeffs) + (0j,) * (width - len(u0.coeffs))
    row1 = tuple(f.coeffs) + (0j,) * (width - len(f.coeffs))
    return PolyanalyticSeries((row0, row1))


class ResidualReport(namedtuple("ResidualReport", "max_residual residuals symbolic_zero")):
    """``max_residual`` over the per-sample ``residuals``, and ``symbolic_zero``:
    whether the conj(z) row of u equals the datum f exactly."""

    __slots__ = ()


def dbar_residual(u: PolyanalyticSeries, f: space.EntireSeries,
                  samples, h: float = 1e-5) -> ResidualReport:
    """max |d u / d(conj z) - f| over the samples, by central differences.

    For u assembled from (f, u0) the symbolic residual is zero and the
    numeric one reflects the O(h^2) stencil; the report carries both views.
    """
    pts = [complex(zs) for zs in samples]
    if not pts:
        raise ConfigurationError("dbar_residual: need at least one sample")
    if not all(abs(p) <= 3.0 for p in pts):
        raise ConfigurationError("dbar_residual: samples must satisfy |z| <= 3")
    residuals = tuple(abs(wirtinger_fd(u, zs, h) - f(zs)) for zs in pts)
    symbolic = False
    if u.order == 2:
        width = max(len(u.rows[1]), len(f.coeffs))
        fc = tuple(f.coeffs) + (0j,) * (width - len(f.coeffs))
        ur = u.rows[1] + (0j,) * (width - len(u.rows[1]))
        symbolic = fc == ur
    return ResidualReport(max_residual=max(residuals), residuals=residuals,
                          symbolic_zero=symbolic)


def weight_mass(f: space.EntireSeries, include_pi: bool = True) -> float:
    """M(f) = integral of |f|^2 exp(-|z|^2) over the plane = pi sum n! |a_n|^2.

    ``include_pi=False`` gives the Gaussian-normalized value sum n! |a_n|^2
    (the squared norm in the normalized convention); both appear in the
    literature and the budget check below keeps the un-normalized one on
    both sides so the constant 3 is meaningful.  Summed as
    :func:`space.fock_norm`: 169! is returned, and a mass past the double
    range raises :class:`AccuracyError`.
    """
    m, k = space._weighted_sum(moments._table(f.degree).log_factorial, f.coeffs, f.coeffs)
    val = space._times_exp(m.real, k, "weight_mass")
    return math.pi * val if include_pi else val


class BudgetReport(namedtuple("BudgetReport", "lhs budget ratio ok")):
    """``lhs`` = pi ||u0||^2, ``budget`` = 3 M(f), their ``ratio``, and ``ok`` = lhs <= budget."""

    __slots__ = ()


def weighted_budget_check(u0: space.EntireSeries, f: space.EntireSeries) -> BudgetReport:
    """Check integral of |u0|^2 (1+|z|^2)^{-2} exp(-|z|^2) <= 3 M(f).

    Left side is pi times the squared space norm (both sides un-normalized);
    the ratio is exposed so any other threshold can be applied downstream.
    """
    lhs = math.pi * space.h_inner(u0, u0).real
    budget = 3.0 * weight_mass(f, include_pi=True)
    ratio = lhs / budget if budget > 0 else math.inf
    return BudgetReport(lhs=lhs, budget=budget, ratio=ratio, ok=lhs <= budget)
