"""Orthonormal Hermite functions and the moment-weighted Bargmann kernel
A(z, x) = sum_n z^n / sqrt(eta_n) psi_n(x).

Convention: psi_n are genuinely orthonormal in L^2(R), i.e.
psi_0(x) = pi^{-1/4} exp(-x^2/2).  The classical generating function then
reads sum z^n/sqrt(n!) psi_n(x) = pi^{-1/4} exp(-(z^2+x^2)/2 + sqrt(2) z x);
the explicit pi^{-1/4} is carried on every closed form or integral side so
that the L^2 identity ||A_z||^2 = efun(|z|^2) holds exactly.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from . import moments
from .errors import ConfigurationError, DomainError
from .numerics import csum, gauss_hermite, integrate_semi_infinite

PI_QUARTER_INV = math.pi ** -0.25

_LN2 = math.log(2.0)
_N_MAX = 1000

# the asymptotic weighted generating identity is only checkable where its
# optimal-truncation error exp(-1/(2|z|^2)) clears the documented 1e-7 gap
WEIGHTED_GF_RADIUS = 0.15


def hermite_psi(n_max: int, x: float) -> np.ndarray:
    """psi_0(x) .. psi_{n_max}(x), orthonormal convention.

    Three-term recurrence psi_{n+1} = x sqrt(2/(n+1)) psi_n
    - sqrt(n/(n+1)) psi_{n-1}, run on an exponent-tracked mantissa pair so
    the classically forbidden region (psi_0 underflows for |x| > 27) is
    traversed without loss; entries whose true value is below the subnormal
    range come out as an honest 0.0.
    """
    if not 0 <= n_max <= _N_MAX:
        raise ConfigurationError(f"hermite_psi: n_max must be in [0, {_N_MAX}], got {n_max}")
    if abs(x) > 40.0:
        raise ConfigurationError(f"hermite_psi: |x| capped at 40, got {x}")
    x = float(x)
    ln0 = -0.25 * math.log(math.pi) - 0.5 * x * x
    exp0 = int(math.floor(ln0 / _LN2))
    out = np.empty(n_max + 1)
    v_prev = 0.0
    v_cur = math.exp(ln0 - exp0 * _LN2)
    scale = exp0
    out[0] = _ldexp_safe(v_cur, scale)
    for n in range(n_max):
        v_next = x * math.sqrt(2.0 / (n + 1)) * v_cur - math.sqrt(n / (n + 1)) * v_prev
        v_prev, v_cur = v_cur, v_next
        m = max(abs(v_prev), abs(v_cur))
        if m > 2.0 ** 400:
            v_prev *= 2.0 ** -800
            v_cur *= 2.0 ** -800
            scale += 800
        elif 0.0 < m < 2.0 ** -400:
            v_prev *= 2.0 ** 800
            v_cur *= 2.0 ** 800
            scale -= 800
        out[n + 1] = _ldexp_safe(v_cur, scale)
    return out


def _ldexp_safe(m, e):
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _psi_scaled_matrix(n_max: int, xs: np.ndarray) -> np.ndarray:
    """Rows psi_n(x) * exp(x^2/2) on a node vector; safe for |x| <~ 25, n <~ 300."""
    out = np.empty((n_max + 1, xs.size))
    out[0] = PI_QUARTER_INV
    if n_max >= 1:
        out[1] = PI_QUARTER_INV * math.sqrt(2.0) * xs
    for n in range(1, n_max):
        out[n + 1] = xs * math.sqrt(2.0 / (n + 1)) * out[n] - math.sqrt(n / (n + 1)) * out[n - 1]
    return out


def bargmann_kernel(z: complex, x: float, tol: float = 1e-12) -> complex:
    """A(z, x) = sum_n z^n / sqrt(eta_n) psi_n(x), truncated with a certified tail.

    Since 1/sqrt(eta_n) <= sqrt(8) (sqrt(2))^n / sqrt(n!) and |psi_n| <= 1,
    the tail after N is below sqrt(8) (sqrt(2)|z|)^{N+1}/sqrt((N+1)!) times a
    geometric factor 2 once N + 2 > 8 |z|^2.
    """
    z = complex(z)
    if abs(z) > 10.0:
        raise ConfigurationError(f"bargmann_kernel: |z| capped at 10, got {abs(z)}")
    if tol <= 0.0:
        raise ConfigurationError("bargmann_kernel: tol must be > 0")
    a = math.sqrt(2.0) * abs(z)
    n_trunc = 0
    ln_tail = 0.5 * math.log(8.0) + math.log(2.0)
    target = math.log(tol)
    if z != 0:
        for n in range(_N_MAX):
            bound = ln_tail + (n + 1) * math.log(a) - 0.5 * math.lgamma(n + 2)
            if n + 2 > 8.0 * abs(z) ** 2 and bound < target:
                n_trunc = n
                break
        else:
            raise ConfigurationError("bargmann_kernel: truncation bound not reached")
    psi = hermite_psi(n_trunc, x)
    logs = moments.log_eta_sequence(n_trunc)
    terms = []
    zp = 1.0 + 0j
    for n in range(n_trunc + 1):
        terms.append(zp * math.exp(-0.5 * logs[n]) * psi[n])
        zp *= z
    val = csum(terms)
    return val if isinstance(val, complex) else complex(val)


def kernel_l2_norm_sq(z: complex, quad_nodes: int = 200, trunc: int = 60) -> float:
    """integral over R of |A(z, x)|^2 dx, by Gauss-Hermite on the truncation.

    Equals efun(|z|^2): the Hermite functions are orthonormal, so the square
    integral telescopes to sum |z|^{2n} / eta_n.  The integrand divided by
    exp(-x^2) is a polynomial of degree 2*trunc, integrated exactly for
    quad_nodes > trunc + 1/2.
    """
    z = complex(z)
    if abs(z) > 2.0:
        raise ConfigurationError(f"kernel_l2_norm_sq: |z| capped at 2, got {abs(z)}")
    if quad_nodes < 100:
        raise ConfigurationError("kernel_l2_norm_sq: need quad_nodes >= 100")
    if trunc < 40:
        raise ConfigurationError("kernel_l2_norm_sq: need trunc >= 40")
    rule = gauss_hermite(quad_nodes)
    psi_mat = _psi_scaled_matrix(trunc, rule.nodes)
    logs = moments.log_eta_sequence(trunc)
    coeff = np.empty(trunc + 1, dtype=complex)
    zp = 1.0 + 0j
    for n in range(trunc + 1):
        coeff[n] = zp * math.exp(-0.5 * logs[n])
        zp *= z
    amp = coeff @ psi_mat
    return float(np.dot(rule.weights, np.abs(amp) ** 2))


def hermite_generating_pair(z: complex, x: float, n_terms: int = 120) -> tuple[complex, complex]:
    """Series and closed form of sum z^n/sqrt(n!) psi_n(x).

    Closed form (orthonormal convention):
    pi^{-1/4} exp(-(z^2 + x^2)/2 + sqrt(2) z x).
    """
    z = complex(z)
    if abs(z) > 3.0 or abs(x) > 5.0:
        raise ConfigurationError("hermite_generating_pair: validated for |z| <= 3, |x| <= 5")
    psi = hermite_psi(n_terms, x)
    terms = []
    zp = 1.0 + 0j
    for n in range(n_terms + 1):
        terms.append(zp * math.exp(-0.5 * math.lgamma(n + 1)) * psi[n])
        zp *= z
    lhs = csum(terms)
    rhs = PI_QUARTER_INV * cmath.exp(-0.5 * (z * z + x * x) + math.sqrt(2.0) * z * x)
    return complex(lhs), rhs


def weighted_generating_pair(z: complex, x: float, n_terms: int = 60) -> tuple[complex, complex]:
    """Optimally truncated series and integral form of
    sum (eta_n/sqrt(n!)) z^n psi_n(x).

    The coefficient series is asymptotic only (eta_n/sqrt(n!) grows like
    sqrt(n!)/n^2), so it is summed to its smallest term; that leaves an
    irreducible gap of order exp(-1/(2|z|^2)), which clears 1e-7 only for
    |z| <= 0.15.  Outside that disk, or when Re(z^2) <= 0 so the integral
    side diverges, a domain error points at the validated region.
    """
    z = complex(z)
    if abs(x) > 5.0:
        raise ConfigurationError("weighted_generating_pair: |x| capped at 5")
    if n_terms < 60:
        raise ConfigurationError("weighted_generating_pair: need n_terms >= 60")
    if abs(z) > WEIGHTED_GF_RADIUS:
        raise DomainError(
            f"weighted_generating_pair: validated only for |z| <= {WEIGHTED_GF_RADIUS} "
            f"(asymptotic series floor exceeds the documented gap), got |z|={abs(z):.4g}")
    if z != 0 and (z * z).real <= 0.0:
        raise DomainError("weighted_generating_pair: integral side requires Re(z^2) > 0")

    psi = hermite_psi(n_terms, x)
    logs = moments.log_eta_sequence(n_terms)
    terms = []
    zp = 1.0 + 0j
    for n in range(n_terms + 1):
        terms.append(zp * math.exp(logs[n] - 0.5 * math.lgamma(n + 1)) * psi[n])
        zp *= z
    # truncate at the smallest nonzero term (odd-order terms vanish at x=0)
    nonzero = [i for i, t in enumerate(terms) if t != 0]
    stop = min(nonzero, key=lambda i: abs(terms[i])) if nonzero else 0
    lhs = csum(terms[:stop + 1])

    def integrand(t):
        return cmath.exp(-0.5 * z * z * t * t + (math.sqrt(2.0) * z * x - 1.0) * t) / (1.0 + t) ** 2

    quad = integrate_semi_infinite(integrand, 1e-11)
    rhs = PI_QUARTER_INV * math.exp(-0.5 * x * x) * quad.value
    return complex(lhs), complex(rhs)
