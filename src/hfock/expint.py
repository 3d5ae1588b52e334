"""Exponential integrals E_n, integer-order incomplete gamma, and the
Laplace transform of E_n.

E_n(x) = integral of exp(-x t) / t^n over t in (1, inf).  The family obeys
n E_{n+1}(x) = exp(-x) - x E_n(x) and the two-sided bound
1/(x+n) < exp(x) E_n(x) <= 1/(x+n-1) for x > 0, n >= 1.
"""
from __future__ import annotations

import cmath
import math

from .errors import AccuracyError, ConfigurationError, DomainError

# 40-digit literal; pinned against the golden-values file by the test suite,
# never computed at runtime.
EULER_GAMMA = 0.5772156649015328606065120900824024310422

E1_SERIES_RADIUS = 1.5

_MAX_ORDER = 10_000
_LAPLACE_TERMS = 2_000_000


def _e1_series(x):
    # E1(x) = -gamma - log(x) + sum_{k>=1} (-1)^(k+1) x^k / (k k!)
    log = cmath.log if isinstance(x, complex) else math.log
    term = 1.0 + 0j if isinstance(x, complex) else 1.0
    terms = []
    for k in range(1, 200):
        term *= -x / k
        contrib = -term / k
        terms.append(contrib)
        if abs(contrib) < 1e-18 * max(1.0, abs(terms[0])):
            break
    s = sum(terms[::-1])
    return -EULER_GAMMA - log(x) + s


def _en_lentz_scaled(n, x, max_iter=500):
    # modified Lentz evaluation of the continued fraction for e^x E_n(x):
    # E_n(x) = e^{-x} / (x + n - 1*n/(x + n + 2 - 2(n+1)/(x + n + 4 - ...)))
    tiny = 1e-300
    b = x + n
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, max_iter):
        a = -i * (n - 1 + i)
        b += 2.0
        d = a * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ConfigurationError(f"continued fraction for E_{n} failed to converge at x={x}")


def e1(x):
    """E_1 for real x > 0 or complex x with Re(x) > 0.

    Power series inside |x| <= 1.5, modified Lentz continued fraction
    outside; relative error <= 1e-14 on the real line and <= 1e-12 for
    complex arguments with |x| <= 20.
    """
    re = x.real if isinstance(x, complex) else x
    if re <= 0.0:
        raise DomainError(f"e1: requires Re(x) > 0, got {x}")
    if abs(x) <= E1_SERIES_RADIUS:
        return _e1_series(x)
    exp = cmath.exp if isinstance(x, complex) else math.exp
    return exp(-x) * _en_lentz_scaled(1, x)


def e1_method(x) -> str:
    """Which branch :func:`e1` selects for this argument."""
    return "series" if abs(x) <= E1_SERIES_RADIUS else "continued-fraction"


def en_family_scaled(n_max: int, x: float):
    """e^x E_0(x) .. e^x E_{n_max}(x) for real x > 0 in one pass.

    The scaled family never under- or overflows (values sit in
    (1/(x+n), 1/(x+n-1)] for n >= 1).  One continued-fraction anchor is
    placed at order m = ceil(x); below it the recurrence runs downward
    (s_k = (1 - k s_{k+1})/x, contraction k/x <= 1) and above it upward
    (s_k = (1 - x s_{k-1})/(k-1), contraction x/(k-1) <= 1), so adjacent
    orders stay recurrence-consistent to rounding level everywhere.
    """
    if x <= 0.0:
        raise DomainError(f"en_family_scaled: requires x > 0, got {x}")
    if not 0 <= n_max <= _MAX_ORDER:
        raise ConfigurationError(
            f"en_family_scaled: n_max must be in [0, {_MAX_ORDER}], got {n_max}")
    values = [0.0] * (n_max + 1)
    values[0] = 1.0 / x
    if n_max == 0:
        return values
    if x <= E1_SERIES_RADIUS:
        values[1] = math.exp(x) * _e1_series(x)
    else:
        values[1] = _en_lentz_scaled(1, x)
    if n_max == 1:
        return values
    anchor = min(max(2, math.ceil(x)), n_max)
    if x > E1_SERIES_RADIUS and anchor > 2:
        values[anchor] = _en_lentz_scaled(anchor, x)
        for k in range(anchor - 1, 1, -1):
            values[k] = (1.0 - k * values[k + 1]) / x
    else:
        anchor = 1
    for k in range(anchor + 1, n_max + 1):
        values[k] = (1.0 - x * values[k - 1]) / (k - 1)
    return values


def en_scaled(n: int, x: float) -> float:
    """e^x E_n(x); the form the two-sided bounds and stable integrands want."""
    return en_family_scaled(n, x)[n]


def en_family(n_max: int, x: float):
    """E_0(x) .. E_{n_max}(x) for real x > 0 in one pass."""
    emx = math.exp(-x) if x < 745.0 else 0.0
    return [emx * s for s in en_family_scaled(n_max, x)]


def en(n: int, x: float) -> float:
    """E_n(x) for integer n >= 0 and real x > 0."""
    return en_family(n, x)[n]


def en_method(n: int, x: float) -> str:
    """Which evaluation route :func:`en` takes for this (n, x).

    One of ``closed-form`` (n = 0), ``series`` / ``continued-fraction``
    (n = 1, by argument size), or for n >= 2 either ``continued-fraction``
    (the anchor order near ceil(x)) or ``recurrence``.
    """
    if n == 0:
        return "closed-form"
    if n == 1:
        return e1_method(x)
    anchor = min(max(2, math.ceil(x)), n)
    if x > E1_SERIES_RADIUS and anchor > 2 and n == anchor:
        return "continued-fraction"
    return "recurrence"


def incomplete_gamma_int(m: int, x: float) -> float:
    """Upper incomplete gamma Gamma(m, x) at integer m in [1, 170].

    Closed form (m-1)! exp(-x) sum_{j<m} x^j/j!, summed left to right with
    the exponential folded into each term for stability at large x.
    """
    if not 1 <= m <= 170:
        raise ConfigurationError(f"incomplete_gamma_int: m must be in [1, 170], got {m}")
    if x <= 0.0:
        raise DomainError(f"incomplete_gamma_int: requires x > 0, got {x}")
    logx = math.log(x)
    terms = [math.exp(j * logx - x - math.lgamma(j + 1)) for j in range(m)]
    return math.gamma(m) * math.fsum(terms)


def en_negative_order_at_1(k: int) -> float:
    """E_{2-k}(1) for k >= 2, defined through Gamma(k-1, 1)."""
    if k < 2:
        raise ConfigurationError(f"en_negative_order_at_1: requires k >= 2, got {k}")
    return incomplete_gamma_int(k - 1, 1.0)


def laplace_en(n: int, a: float) -> float:
    """Laplace transform of E_n: integral of exp(-a t) E_n(t) over (0, inf).

    Closed form ((-1)^(n-1)/a^n) (log(1+a) + sum_{k<n} (-a)^k / k) for a >= 1.
    For |a| < 1 that expression cancels to its own leading order and sheds
    roughly n log10(1/a) digits, so the convergent series
    sum_{k>=0} (-a)^k / (k+n) is used there instead; past 2 000 000 terms
    (|a| > about 1 - 1.35e-5) it raises :class:`AccuracyError`.  At a = 0 it returns 1/n.
    """
    if n < 1:
        raise ConfigurationError(f"laplace_en: requires n >= 1, got {n}")
    if a <= -1.0:
        raise DomainError(f"laplace_en: requires a > -1, got {a}")
    if a == 0.0:
        return 1.0 / n
    if abs(a) < 1.0:
        # the terms fall monotonically: the series ends inside the cap iff its last term is small
        if (_LAPLACE_TERMS - 1) * math.log(abs(a)) >= math.log(1e-18 * (_LAPLACE_TERMS - 1 + n)):
            raise AccuracyError(f"laplace_en: a={a} needs more than {_LAPLACE_TERMS} series terms")
        term = 1.0
        terms = []
        for k in range(0, _LAPLACE_TERMS):
            contrib = term / (k + n)
            terms.append(contrib)
            if abs(contrib) < 1e-18:
                break
            term *= -a
        return math.fsum(terms)
    sign = 1.0 if n % 2 == 1 else -1.0
    partial = [math.log1p(a)]
    p = 1.0
    for k in range(1, n):
        p *= -a
        partial.append(p / k)
    return sign * math.fsum(partial) / a ** n
