"""Disk kernels phi_n(z) = sum_k z^k/(k+n), their Lerch relative, the Hurwitz
zeta's integral route, and numerical evidence for the moment-generating kernel
class.

``phi`` is ``expint.laplace_en(n, -z)`` on the disk |z| <= 1 - 1e-6.  That
Laplace representation phi_n(-a) = integral of exp(-a t) E_n(t) makes a ->
phi_n(-a) completely monotone; the finite-difference checks here probe that
property to bounded order on a = 0.1, 0.2, ..., 5.0, as evidence, not proof.
Every Lerch-series route (``lerch_phi``, the Grams of ``gram_phi`` and
``ml_audit``) sums through one guard, ``_lerch_denominators``, of z, s, a and
tol; ``phi`` and ``lerch_phi_integral`` share its disk check.  The two
integral routes, ``lerch_phi_integral`` and ``hurwitz_zeta_integral``, sum
their integrator panels from one node function of t, exp(-t) and
1 - exp(-t), read through the integrator's one panel cache, with the bits
of their scalar integrands.  The Hurwitz integrand, less its singular part
t^(s-2) e^(-a t), is positive on the whole half-line, so that route's
result meets its ``tol`` with no cancellation to guard.
"""
from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple

from . import expint, moments, space
from .errors import ConfigurationError, DomainError, check_order, check_tol
from .numerics import _integrate_panels, _overflowed, csum, disk_point

DISK_MARGIN = 1e-6
_CM_ORDER = 6  # highest finite difference cm_evidence checks
_CM_GRID = tuple(0.1 + 0.1 * i for i in range(50))  # the grid cm_evidence samples
_AUDIT_POINTS = 30  # sample size of ml_audit's Gram condition
_SERIES_TOL = 1e-13  # lerch_phi's default tolerance, which also cuts the phi_n Grams


def _check_disk(where: str, r: float) -> None:  # a NaN r is refused
    if not 0.0 <= r <= 1.0 - DISK_MARGIN:
        raise DomainError(f"{where}: |z| = {r:.8f} is off the disk |z| <= 1 - {DISK_MARGIN}")


def _lerch_denominators(r: float, s: float, a: float, tol: float) -> list[float]:
    """(k+a)^s for k < K, where K >= 1 is the first order whose tail bound
    sum_{j>=K} r^j/(j+a)^s <= r^K / ((K+a)^s (1-r)) is below ``tol``.

    The one guard of every Lerch-series route: it raises unless
    0 <= r <= 1 - DISK_MARGIN, tol > 0, s > 0, a > 0, a^s is a normal double
    and no (k+a)^s with k <= K overflows, NaN included, so every term is finite.

    K is found by doubling and then bisection on the predicate "(k+a)^s
    overflows, or r^k / ((k+a)^s (1-r)) < tol".  The predicate is monotone
    in k >= 1: (k+a)^s grows with k, and the exact bound falls by a factor
    (k+a)^s/(k+1+a)^s r <= r <= 1 - 1e-6 per order, far more than the few
    ulps by which each computed bound can stray.  So the search stops at
    the order where a scan from k = 1 would stop, with the same values.
    """
    _check_disk("Lerch series", r)
    check_tol("Lerch series", tol)
    if not s > 0.0:  # s = NaN with a = 1 would pass the a^s test: 1.0 ** nan is 1.0
        raise DomainError(f"Lerch series: s must be > 0, got {s}")
    if not a > 0.0:  # a^s of a negative a is complex
        raise DomainError(f"Lerch series: a must be > 0, got {a}")

    def stops(k: int) -> bool:
        try:
            return r ** k / ((k + a) ** s * (1.0 - r)) < tol
        except OverflowError:
            return True

    try:
        first = a ** s
        if not first >= space._MIN_NORMAL:
            raise DomainError(f"Lerch series: a^s = {first} at s={s}, a={a} is below 2^-1022")
        below, cut = 0, 1  # stops(k) is false for 1 <= k <= below and true at cut
        while not stops(cut):
            below, cut = cut, 2 * cut
        while cut - below > 1:
            mid = (below + cut) // 2
            if stops(mid):
                cut = mid
            else:
                below = mid
        # (cut+a)^s raises here where the search stopped on an overflow
        dens = [(k + a) ** s for k in range(cut + 1)]
    except OverflowError:
        raise DomainError(f"Lerch series: (k+a)^s overflows at s={s}, a={a}") from None
    dens.pop()
    return dens


def phi(n: int, z: complex) -> complex:
    """phi_n(z) = sum_k z^k / (k+n) for integer 1 <= n <= 10 000 on the disk
    |z| <= 1 - 1e-6, as ``expint.laplace_en(n, -z)``: its closed form where
    |z|^n >= 1/2, its series elsewhere, within the relative error bound it
    documents."""
    n = check_order("phi", "order", n, 1, expint._MAX_ORDER)
    z = complex(z)
    _check_disk("phi", abs(z))
    return complex(expint.laplace_en(n, -z))


def phi_tilde(n: int, z: complex) -> complex:
    """n * phi_n(z); takes the value 1 at the origin."""
    return n * phi(n, z)


def lerch_phi(z: complex, s: float, a: float, tol: float = _SERIES_TOL) -> complex:
    """Lerch transcendent sum_k z^k / (k+a)^s on |z| <= 1 - 1e-6, s > 0, a > 0,
    summed to the first order K whose tail bound |z|^K / ((K+a)^s (1-|z|))
    is below ``tol`` (which must be positive).  Its guard raises DomainError
    where a^s is below 2^-1022 or some (k+a)^s overflows."""
    z = complex(z)
    dens = _lerch_denominators(abs(z), s, a, tol)
    if z == 0:
        return complex(a ** -s)
    terms = []
    zp = 1.0 + 0j
    for den in dens:
        terms.append(zp / den)
        zp *= z
    return csum(terms)


def _exp_node(t, j):
    # the node function of both integral routes below, read through
    # numerics._panel_table: their factors that depend on none of s, a and z
    return t, math.exp(-t), -math.expm1(-t), j


def lerch_phi_integral(z: complex, s: float, a: float) -> complex:
    """Integral route (1/Gamma(s)) integral of t^{s-1} e^{-a t}/(1 - z e^{-t}),
    to relative tolerance 1e-10.

    Valid cross-check for s >= 1, where the integrand stays bounded at the
    origin; the adaptive integrator grades the mesh there on its own.  Its
    panels read e^{-t} through ``_exp_node`` and give the value or error of
    ``integrate_semi_infinite`` on the scalar integrand, bit for bit.
    """
    if not s >= 1.0:
        raise ConfigurationError(f"lerch_phi_integral: cross-check route needs s >= 1, got {s}")
    if not a > 0.0:
        raise DomainError(f"lerch_phi_integral: requires a > 0, got {a}")
    z = complex(z)
    _check_disk("lerch_phi_integral", abs(z))
    p, na, exp = s - 1.0, -a, math.exp

    def sums(table):  # t ** (s-1) * exp(-a t) / (1 - z exp(-t)) at each node
        (t, e, _, j, wk, wg), pairs = table
        try:
            centre = t ** p * exp(na * t) / (1.0 - z * e) / j
            kronrod = wk * centre
            gauss = wg * centre
            for t, e, _, j, tp, ep, _, jp, wk, wg in pairs:
                pair = t ** p * exp(na * t) / (1.0 - z * e) / j
                t = tp
                pair += t ** p * exp(na * t) / (1.0 - z * ep) / jp
                kronrod += wk * pair
                gauss += wg * pair
        except (OverflowError, ZeroDivisionError) as exc:
            raise _overflowed(t) from exc
        return kronrod, gauss

    return _integrate_panels(sums, _exp_node, 1e-10).value / math.gamma(s)


def hurwitz_zeta_integral(s: float, a: float, tol: float = 1e-10) -> float:
    """zeta(s, a) = (1/Gamma(s)) integral of t^{s-1} e^{-a t} / (1 - e^{-t}) for
    s > 1 + 1e-6, a > 0.  The singular part t^{s-2} e^{-a t} is subtracted on
    the whole half-line and its integral, exactly Gamma(s) a^{1-s}/(s-1),
    added back (DLMF 25.11.25, 25.11.27): the rest
    V = integral of t^{s-1} e^{-a t} (1/(1 - e^{-t}) - 1/t), positive and
    bounded, is integrated to relative tolerance ``tol``, and the result is
    V/Gamma(s) + a^{1-s}/(s-1).  Both terms are positive, so the result's
    relative bound is ``tol``.  Its panels read 1 - e^{-t} through
    ``_exp_node``, and give the value or error of ``integrate_semi_infinite``
    on the scalar integrand, bit for bit.

    Raises DomainError where a^s is below 2^-1022.  t ** (s-1) overflows at
    the far nodes for s above about 42 at a = 1e-3, 65 at a = 1 and 95 at
    a = 1000, and the call raises :class:`AccuracyError`."""
    if not 1.0 + 1e-6 < s < math.inf:
        raise DomainError(f"hurwitz_zeta_integral: requires finite s > 1, got {s}")
    if not a > 0.0:
        raise DomainError(f"hurwitz_zeta_integral: requires a > 0, got {a}")
    if a < 1.0 and a ** s < space._MIN_NORMAL:
        raise DomainError(f"hurwitz_zeta_integral: a^s = {a ** s} at s={s}, a={a} is below 2^-1022")
    p, na, exp = s - 1.0, -a, math.exp

    def sums(table):  # t ** (s-1) * exp(-a t) * (1/(1 - exp(-t)) - 1/t) at each node
        (t, _, d, j, wk, wg), pairs = table
        try:
            centre = t ** p * exp(na * t) * (1.0 / d - 1.0 / t) / j
            kronrod = wk * centre
            gauss = wg * centre
            for t, _, d, j, tp, _, dp, jp, wk, wg in pairs:
                pair = t ** p * exp(na * t) * (1.0 / d - 1.0 / t) / j
                t = tp
                pair += t ** p * exp(na * t) * (1.0 / dp - 1.0 / t) / jp
                kronrod += wk * pair
                gauss += wg * pair
        except (OverflowError, ZeroDivisionError) as exc:
            raise _overflowed(t) from exc
        return kronrod, gauss

    v = _integrate_panels(sums, _exp_node, tol).value
    return v / math.gamma(s) + a ** (1.0 - s) / (s - 1.0)


def dirichlet_kernel_pair(z: complex, w: complex) -> tuple[complex, complex]:
    """(Lerch series, closed form) of k_1(z, w) = phi_1(z conj(w)).

    Closed form: -log(1 - q)/q at q = z conj(w), the kernel of the classical
    Dirichlet space on the disk.  The series is ``lerch_phi``: ``phi`` is this
    closed form wherever |q| >= 1/2."""
    q = complex(z) * complex(w).conjugate()
    if q == 0:
        return complex(1.0), complex(1.0)
    series = lerch_phi(q, 1.0, 1.0)
    closed = -cmath.log(1.0 - q) / q
    return series, closed


class CMReport(namedtuple("CMReport", "order_checked min_signed")):
    """Finite-difference complete-monotonicity evidence on ``_CM_GRID``: per
    j <= ``order_checked``, ``min_signed`` holds the grid min of (-1)^j diff^j f."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(m >= -1e-10 for m in self.min_signed)


def cm_evidence(f) -> CMReport:
    """Check (-1)^j diff^j_h f >= -1e-10 for j = 0..6 over ``_CM_GRID``.

    ``f`` maps the grid points a = 0.1, 0.2, ..., 5.0 to floats.  This is a
    necessary condition of bounded order for complete monotonicity, so the
    outcome is evidence, never a proof.
    """
    values = [float(f(a)) for a in _CM_GRID]
    mins = []
    diffs = values
    for j in range(_CM_ORDER + 1):
        mins.append(min((-1.0) ** j * d for d in diffs))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return CMReport(order_checked=_CM_ORDER, min_signed=tuple(mins))


def gram_phi(n: int, points) -> space.GramMatrix:
    """Gram matrix of k_n(z, w) = phi_n(z conj(w)) over points in the disk."""
    n = check_order("gram_phi", "order", n, 1, expint._MAX_ORDER)
    pts = [complex(p) for p in points]
    if any(abs(p) > 1.0 - 1e-3 for p in pts):
        raise ConfigurationError("gram_phi: points must satisfy |z| <= 1 - 1e-3")
    return space._diagonal_gram(pts, lambda r: _phi_log_coeffs(n, r))


def _phi_log_coeffs(n: int, r: float):
    """log c_k = -log(k+n) of phi_n for k < K, K the cut of ``lerch_phi``'s
    tail rule at |z conj w| = r and its default tolerance."""
    import numpy as np

    return -np.log(_lerch_denominators(r, 1.0, n, _SERIES_TOL))


def _audit_condition(name, status, details):
    return {"name": name, "status": status, "details": details}


def ml_audit(kernel: str, n: int = 1, seed: int = 0) -> dict:
    """Audit the kernel-class conditions for ``phi_tilde`` (given order) or
    ``eta0_K`` (the moment-normalized reproducing kernel).

    Conditions: i) value 1 and positive slope at the origin, ii) positive
    semidefiniteness of the Gram over 30 seeded points, iii) finite-difference
    complete monotonicity of the radial restriction.  iii) is reported as
    ``evidence`` regardless of outcome detail: bounded-order differences
    cannot certify the class.
    """
    rng = random.Random(seed)
    conditions = []
    # n phi_n and eta_0 K: the coefficient rule of phi_n or K, shifted by log n or log eta_0
    if kernel == "phi_tilde":
        value0 = phi_tilde(n, 0.0).real
        slope0 = n * (1.0 / (n + 1))  # first Taylor coefficient of n phi_n
        pts = [disk_point(rng, 0.95) for _ in range(_AUDIT_POINTS)]
        log_scale, log_coeffs = math.log(n), lambda r: _phi_log_coeffs(n, r)
        cm = cm_evidence(lambda a: n * expint.laplace_en(n, a))
        label = f"phi_tilde({n})"
    elif kernel == "eta0_K":
        eta0 = moments.eta_closed_form(0)
        eta1 = moments.eta_closed_form(1)
        value0 = eta0 * space.efun(0.0).real
        slope0 = eta0 / eta1
        pts = [disk_point(rng, 2.0) for _ in range(_AUDIT_POINTS)]
        log_scale, log_coeffs = moments.log_eta(0), space._kernel_log_coeffs
        cm = cm_evidence(lambda a: eta0 * space.efun(-a).real)
        label = "eta0_K"
    else:
        raise ConfigurationError(f"ml_audit: unknown kernel {kernel!r}")
    gram = space._diagonal_gram(pts, lambda r: [log_scale + c for c in log_coeffs(r)])

    ok_i = abs(value0 - 1.0) <= 1e-12 and slope0 > 0.0
    conditions.append(_audit_condition(
        "unit-value-and-positive-slope",
        "pass" if ok_i else "fail",
        {"value_at_0": value0, "slope_at_0": slope0}))
    ok_ii = gram.is_psd()
    conditions.append(_audit_condition(
        "gram-psd-sampling",
        "pass" if ok_ii else "fail",
        {"points": _AUDIT_POINTS, "min_eig": gram.min_eig, "trace": gram.trace}))
    conditions.append(_audit_condition(
        "complete-monotonicity-evidence",
        "evidence",
        {"order_checked": cm.order_checked,
         "differences_nonnegative": cm.passed,
         "min_signed": list(cm.min_signed)}))
    return {"kernel": label, "conditions": conditions,
            "passed_i_ii": ok_i and ok_ii}
