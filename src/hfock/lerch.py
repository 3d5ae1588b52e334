"""Disk kernels phi_n(z) = sum_k z^k/(k+n), their Lerch and Hurwitz-zeta
relatives, and numerical evidence for the moment-generating kernel class.

phi_n extends to the real interval (-1, inf) through its Laplace
representation phi_n(-a) = integral of exp(-a t) E_n(t), which also makes
a -> phi_n(-a) completely monotone; the finite-difference checks here probe
that property to bounded order as evidence, not proof.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from . import expint, moments, space
from .errors import ConfigurationError, DomainError
from .numerics import csum, disk_point, integrate_semi_infinite

DISK_MARGIN = 1e-6
_CM_ORDER = 6  # highest finite difference cm_evidence checks
_AUDIT_POINTS = 30  # sample size of ml_audit's Gram condition


def _lerch_denominators(r: float, s: float, a: float, tol: float) -> list[float]:
    """(k+a)^s for k < K, where K >= 1 is the first order whose tail bound
    sum_{j>=K} r^j/(j+a)^s <= r^K / ((K+a)^s (1-r)) is below ``tol``."""
    dens = [a ** s]
    while True:
        k = len(dens)
        den = (k + a) ** s
        if r ** k / (den * (1.0 - r)) < tol:
            return dens
        dens.append(den)


def phi(n: int, z: complex, tol: float = 1e-13) -> complex:
    """phi_n(z) = sum_k z^k / (k+n) on the disk |z| <= 1 - 1e-6.

    Real z in (-1, -0.5] goes to ``expint.laplace_en(n, -z)``, which sums the
    same series in real arithmetic with ``math.fsum`` down to terms below
    1e-18: within a few ulps there, where ``lerch_phi`` at its absolute
    default tolerance 1e-13 misses by up to some thousand.  Elsewhere it is
    the Lerch series ``lerch_phi(z, 1, n, tol)``.
    """
    if n < 1:
        raise ConfigurationError(f"phi: order must be >= 1, got {n}")
    z = complex(z)
    r = abs(z)
    if z.imag == 0.0 and -1.0 < z.real <= -0.5:
        return complex(expint.laplace_en(n, -z.real))
    if r > 1.0 - DISK_MARGIN:
        raise DomainError(
            f"phi: |z| = {r:.8f} too close to 1; the series is unsupported there, "
            "use the Laplace integral representation instead")
    if z == 0:
        return complex(1.0 / n)
    return lerch_phi(z, 1.0, n, tol)


def phi_tilde(n: int, z: complex) -> complex:
    """n * phi_n(z); takes the value 1 at the origin."""
    return n * phi(n, z)


def lerch_phi(z: complex, s: float, a: float, tol: float = 1e-13) -> complex:
    """Lerch transcendent sum_k z^k / (k+a)^s on |z| <= 1 - 1e-6, s > 0, a > 0,
    summed to the first order K whose tail bound |z|^K / ((K+a)^s (1-|z|))
    is below ``tol``."""
    if s <= 0.0:
        raise DomainError(f"lerch_phi: requires s > 0, got {s}")
    if a <= 0.0:
        raise DomainError(f"lerch_phi: requires a > 0, got {a}")
    z = complex(z)
    r = abs(z)
    if r > 1.0 - DISK_MARGIN:
        raise DomainError(f"lerch_phi: |z| = {r:.8f} too close to 1")
    if z == 0:
        return complex(a ** -s)
    terms = []
    zp = 1.0 + 0j
    for den in _lerch_denominators(r, s, a, tol):
        terms.append(zp / den)
        zp *= z
    return csum(terms)


def lerch_phi_integral(z: complex, s: float, a: float) -> complex:
    """Integral route (1/Gamma(s)) integral of t^{s-1} e^{-a t}/(1 - z e^{-t}),
    to relative tolerance 1e-10.

    Valid cross-check for s >= 1, where the integrand stays bounded at the
    origin; the adaptive integrator grades the mesh there on its own.
    """
    if s < 1.0:
        raise ConfigurationError(f"lerch_phi_integral: cross-check route needs s >= 1, got {s}")
    if a <= 0.0:
        raise DomainError(f"lerch_phi_integral: requires a > 0, got {a}")
    z = complex(z)
    if abs(z) > 1.0 - DISK_MARGIN:
        raise DomainError("lerch_phi_integral: |z| too close to 1")

    def integrand(t):
        return t ** (s - 1.0) * math.exp(-a * t) / (1.0 - z * math.exp(-t))

    res = integrate_semi_infinite(integrand, 1e-10)
    return res.value / math.gamma(s)


def hurwitz_zeta(s: float, a: float, tol: float = 1e-12) -> float:
    """zeta(s, a) = sum_k (k+a)^{-s} for s > 1, by series plus integral tail.

    After K explicit terms the remainder is replaced by the midpoint integral
    (K - 1/2 + a)^{1-s}/(s-1); K grows until the correction's own error bound
    s (K-1+a)^{-s-1} / 24 is below tol/2.
    """
    if s <= 1.0 + 1e-6:
        raise DomainError(f"hurwitz_zeta: requires s > 1, got {s}")
    if a <= 0.0:
        raise DomainError(f"hurwitz_zeta: requires a > 0, got {a}")
    if tol <= 0.0:
        raise ConfigurationError("hurwitz_zeta: tol must be > 0")
    k_terms = 64
    while True:
        bound = s * (k_terms - 1.0 + a) ** (-s - 1.0) / 24.0
        if bound <= 0.5 * tol or k_terms >= 4_000_000:
            break
        k_terms *= 2
    head = math.fsum((k + a) ** -s for k in range(k_terms))
    tail = (k_terms - 0.5 + a) ** (1.0 - s) / (s - 1.0)
    return head + tail


def hurwitz_zeta_integral(s: float, a: float, tol: float = 1e-10) -> float:
    """Quadrature of (1/Gamma(s)) integral of t^{s-1} / (e^{a t} (1 - e^{-t}))."""
    if s <= 1.0 + 1e-6:
        raise DomainError(f"hurwitz_zeta_integral: requires s > 1, got {s}")

    def integrand(t):
        return t ** (s - 1.0) * math.exp(-a * t) / -math.expm1(-t)

    res = integrate_semi_infinite(integrand, tol)
    return res.value / math.gamma(s)


def dirichlet_kernel_pair(z: complex, w: complex) -> tuple[complex, complex]:
    """(series, closed form) of k_1(z, w) = phi_1(z conj(w)).

    Closed form: -log(1 - q)/q at q = z conj(w), the kernel of the classical
    Dirichlet space on the disk.
    """
    q = complex(z) * complex(w).conjugate()
    if abs(q) > 1.0 - DISK_MARGIN:
        raise DomainError("dirichlet_kernel_pair: |z conj(w)| too close to 1")
    if q == 0:
        return complex(1.0), complex(1.0)
    series = phi(1, q)
    closed = -cmath.log(1.0 - q) / q
    return series, closed


@dataclass(frozen=True)
class CMReport:
    """Finite-difference complete-monotonicity evidence on a uniform grid."""

    order_checked: int
    min_signed: tuple[float, ...]  # min over the grid of (-1)^j * diff^j f, per j
    violations: tuple[tuple[int, int, float], ...]  # (order, grid index, value)

    @property
    def passed(self) -> bool:
        return not self.violations


def cm_evidence(f, a_grid) -> CMReport:
    """Check (-1)^j diff^j_h f >= -1e-10 for j = 0..6 over the grid.

    ``a_grid`` must be uniformly spaced and increasing; ``f`` maps grid
    points to floats.  This is a necessary condition of bounded order for
    complete monotonicity, so the outcome is evidence, never a proof.
    """
    grid = [float(a) for a in a_grid]
    if len(grid) < _CM_ORDER + 2:
        raise ConfigurationError(f"cm_evidence: grid shorter than {_CM_ORDER + 2} points")
    steps = [b - a for a, b in zip(grid, grid[1:])]
    h = steps[0]
    if h <= 0 or any(abs(s - h) > 1e-9 * h for s in steps):
        raise ConfigurationError("cm_evidence: grid must be uniform and increasing")
    values = [float(f(a)) for a in grid]
    mins, violations = [], []
    diffs = values
    for j in range(_CM_ORDER + 1):
        signed = [(-1.0) ** j * d for d in diffs]
        mins.append(min(signed))
        for i, v in enumerate(signed):
            if v < -1e-10:
                violations.append((j, i, v))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return CMReport(order_checked=_CM_ORDER, min_signed=tuple(mins),
                    violations=tuple(violations))


def phi_cm_evidence(n: int, a_grid) -> CMReport:
    """CM evidence for a -> phi_n(-a) (a Laplace transform of E_n >= 0).

    Evaluation goes through the Laplace form, which covers the whole grid
    a > -1 regardless of the series' unit-disk restriction.
    """
    return cm_evidence(lambda a: expint.laplace_en(n, a), a_grid)


def gram_phi(n: int, points) -> space.GramMatrix:
    """Gram matrix of k_n(z, w) = phi_n(z conj(w)) over points in the disk."""
    if n < 1:
        raise ConfigurationError(f"gram_phi: order must be >= 1, got {n}")
    pts = [complex(p) for p in points]
    if any(abs(p) > 1.0 - 1e-3 for p in pts):
        raise ConfigurationError("gram_phi: points must satisfy |z| <= 1 - 1e-3")
    return _scaled_phi_gram(n, pts, 0.0)


def _scaled_phi_gram(n: int, points, log_scale: float) -> space.GramMatrix:
    """Factored Gram matrix of exp(log_scale) phi_n(z conj w): c_k = exp(log_scale)/(k+n),
    truncated by phi's own tail rule and default tolerance."""
    return space._diagonal_gram(
        points, lambda r: log_scale - np.log(_lerch_denominators(r, 1.0, n, 1e-13)))


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
    if kernel == "phi_tilde":
        value0 = phi_tilde(n, 0.0).real
        slope0 = n * (1.0 / (n + 1))  # first Taylor coefficient of n phi_n
        pts = [disk_point(rng, 0.95) for _ in range(_AUDIT_POINTS)]
        gram = _scaled_phi_gram(n, pts, math.log(n))
        cm = cm_evidence(lambda a: n * expint.laplace_en(n, a),
                         [0.1 + 0.1 * i for i in range(50)])
        label = f"phi_tilde({n})"
    elif kernel == "eta0_K":
        eta0 = moments.eta_closed_form(0)
        eta1 = moments.eta_closed_form(1)
        value0 = eta0 * space.efun(0.0).real
        slope0 = eta0 / eta1
        pts = [disk_point(rng, 2.0) for _ in range(_AUDIT_POINTS)]
        # c_k = eta_0 / eta_k, cut where efun's tail meets kernel's default 1e-12
        gram = space._diagonal_gram(pts, lambda r: moments.log_eta(0) - np.array(
            moments.log_eta_sequence(space._trunc_index(r, 1e-12))))
        cm = cm_evidence(lambda a: eta0 * space.efun(-a).real,
                         [0.1 + 0.1 * i for i in range(50)])
        label = "eta0_K"
    else:
        raise ConfigurationError(f"ml_audit: unknown kernel {kernel!r}")

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
