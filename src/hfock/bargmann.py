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
from functools import lru_cache

from . import moments
from .errors import AccuracyError, ConfigurationError, DomainError, check_order
from .numerics import csum, gauss_hermite, integrate_semi_infinite

PI_QUARTER_INV = math.pi ** -0.25

_LN2 = math.log(2.0)
_N_MAX = 1000

# the asymptotic weighted generating identity is only checkable where its
# optimal-truncation error exp(-1/(2|z|^2)) clears the documented 1e-7 gap
WEIGHTED_GF_RADIUS = 0.15


def hermite_psi(n_max: int, x: float) -> list[float]:
    """psi_0(x) .. psi_{n_max}(x), orthonormal convention.

    Three-term recurrence psi_{n+1} = x sqrt(2/(n+1)) psi_n
    - sqrt(n/(n+1)) psi_{n-1}, run on an exponent-tracked mantissa pair so
    the classically forbidden region (psi_0 underflows for |x| > 27) is
    traversed without loss; entries whose true value is below the subnormal
    range come out as an honest 0.0.
    """
    n_max = check_order("hermite_psi", "n_max", n_max, 0, _N_MAX)
    if not abs(x) <= 40.0:
        raise ConfigurationError(f"hermite_psi: |x| capped at 40, got {x}")
    x = float(x)
    up, down = _hermite_steps()
    ln0 = -0.25 * math.log(math.pi) - 0.5 * x * x
    exp0 = int(math.floor(ln0 / _LN2))
    v_prev = 0.0
    v_cur = math.exp(ln0 - exp0 * _LN2)
    scale = exp0
    out = [math.ldexp(v_cur, scale)]  # scale <= 0 here
    for n in range(n_max):
        v_next = x * up[n] * v_cur - down[n] * v_prev
        v_prev, v_cur = v_cur, v_next
        # max(|v_prev|, |v_cur|) <= 2^400 after every step: no rescale is due while v_cur is in band
        if not 2.0 ** -400 <= abs(v_cur) <= 2.0 ** 400:
            m = max(abs(v_prev), abs(v_cur))
            if m > 2.0 ** 400:
                v_prev *= 2.0 ** -800
                v_cur *= 2.0 ** -800
                scale += 800
            elif 0.0 < m < 2.0 ** -400:
                v_prev *= 2.0 ** 800
                v_cur *= 2.0 ** 800
                scale -= 800
        try:
            out.append(math.ldexp(v_cur, scale))
        except OverflowError:
            out.append(math.copysign(math.inf, v_cur))
    return out


@lru_cache(maxsize=1)
def _hermite_steps() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The recurrence's step factors sqrt(2/(n+1)) and sqrt(n/(n+1)), n < _N_MAX."""
    return (tuple(math.sqrt(2.0 / (n + 1)) for n in range(_N_MAX)),
            tuple(math.sqrt(n / (n + 1)) for n in range(_N_MAX)))


def _weighted_powers(z: complex, coeffs) -> list[complex]:
    """z^n coeffs[n] for each n, with z^n by the running product."""
    out = []
    zp = 1.0 + 0j
    for c in coeffs:
        out.append(zp * c)
        zp *= z
    return out


def _hermite_terms(z: complex, x: float, coeffs) -> list[complex]:
    """The terms (z^n coeffs[n]) psi_n(x) of sum_n coeffs[n] z^n psi_n(x), n < len(coeffs)."""
    return [c * p for c, p in zip(_weighted_powers(z, coeffs), hermite_psi(len(coeffs) - 1, x))]


def _psi_scaled_matrix(n_max: int, xs: np.ndarray) -> np.ndarray:
    """Rows psi_n(x) * exp(x^2/2) on a node vector; safe for |x| <~ 25, n <~ 300."""
    import numpy as np

    up, down = _hermite_steps()
    out = np.empty((n_max + 1, xs.size))
    out[0] = PI_QUARTER_INV
    if n_max >= 1:
        out[1] = PI_QUARTER_INV * math.sqrt(2.0) * xs
    for n in range(1, n_max):
        out[n + 1] = xs * up[n] * out[n] - down[n] * out[n - 1]
    return out


@lru_cache(maxsize=1)
def _l2_rule_and_psi():
    """kernel_l2_norm_sq's 200-point Gauss-Hermite weights, and its scaled
    psi_0 .. psi_60 on the nodes, read-only."""
    rule = gauss_hermite(200)
    psi_mat = _psi_scaled_matrix(60, rule.nodes)
    psi_mat.flags.writeable = False
    return rule.weights, psi_mat


def bargmann_kernel(z: complex, x: float, tol: float = 1e-12) -> complex:
    """A(z, x) = sum_n z^n / sqrt(eta_n) psi_n(x), truncated with a certified tail.

    Since 1/sqrt(eta_n) <= sqrt(8) (sqrt(2))^n / sqrt(n!) and |psi_n| <= 1,
    the tail after N is below sqrt(8) (sqrt(2)|z|)^{N+1}/sqrt((N+1)!) times a
    geometric factor 2 once N + 2 > 8 |z|^2.  Past |z| of about 6.81, z^N
    overflows before the cut, and the non-finite sum raises AccuracyError.
    """
    z = complex(z)
    if not abs(z) <= 10.0:
        raise ConfigurationError(f"bargmann_kernel: |z| capped at 10, got {abs(z)}")
    # N + 2 > 8 |z|^2 holds from N = floor(8 |z|^2) - 1 on
    n_trunc = moments._factorial_tail_order(
        "bargmann_kernel", 0.5 * math.log(8.0) + math.log(2.0), math.sqrt(2.0) * abs(z), 0.5,
        0.0, tol, max(0, math.floor(8.0 * abs(z) ** 2) - 1), _N_MAX)
    if n_trunc is None:
        raise ConfigurationError("bargmann_kernel: truncation bound not reached")
    total = csum(_hermite_terms(z, x, moments._table(n_trunc).inv_sqrt_eta[:n_trunc + 1]))
    if not cmath.isfinite(total):
        raise AccuracyError(f"bargmann_kernel: the series at z = {z}, x = {x} is not finite")
    return total


def kernel_l2_norm_sq(z: complex) -> float:
    """integral over R of |A(z, x)|^2 dx, by 200-point Gauss-Hermite on the
    truncation of A after order 60.

    Equals efun(|z|^2): the Hermite functions are orthonormal, so the square
    integral telescopes to sum |z|^{2n} / eta_n.  The integrand divided by
    exp(-x^2) is a polynomial of degree 120, which the rule integrates
    exactly.
    """
    import numpy as np

    z = complex(z)
    if not abs(z) <= 2.0:
        raise ConfigurationError(f"kernel_l2_norm_sq: |z| capped at 2, got {abs(z)}")
    weights, psi_mat = _l2_rule_and_psi()
    coeff = np.array(_weighted_powers(z, moments._table(60).inv_sqrt_eta[:61]))
    amp = coeff @ psi_mat
    return float(np.dot(weights, np.abs(amp) ** 2))


def hermite_generating_pair(z: complex, x: float) -> tuple[complex, complex]:
    """Series (orders 0..120) and closed form of sum z^n/sqrt(n!) psi_n(x).

    Closed form (orthonormal convention):
    pi^{-1/4} exp(-(z^2 + x^2)/2 + sqrt(2) z x).
    """
    z = complex(z)
    if not (abs(z) <= 3.0 and abs(x) <= 5.0):
        raise ConfigurationError("hermite_generating_pair: validated for |z| <= 3, |x| <= 5")
    log_fact = moments._table(120).log_factorial
    lhs = csum(_hermite_terms(z, x, [math.exp(-0.5 * v) for v in log_fact[:121]]))
    rhs = PI_QUARTER_INV * cmath.exp(-0.5 * (z * z + x * x) + math.sqrt(2.0) * z * x)
    return complex(lhs), rhs


def weighted_generating_pair(z: complex, x: float) -> tuple[complex, complex]:
    """Optimally truncated series and integral form of
    sum (eta_n/sqrt(n!)) z^n psi_n(x).

    The coefficient series is asymptotic only (eta_n/sqrt(n!) grows like
    sqrt(n!)/n^2), so it is summed to its smallest term among orders 0..60;
    that leaves an irreducible gap of order exp(-1/(2|z|^2)), which clears
    1e-7 only for |z| <= 0.15.  Outside that disk, or when Re(z^2) <= 0 so
    the integral side diverges, a domain error points at the validated region.
    """
    z = complex(z)
    if not abs(x) <= 5.0:
        raise ConfigurationError("weighted_generating_pair: |x| capped at 5")
    if not abs(z) <= WEIGHTED_GF_RADIUS:
        raise DomainError(
            f"weighted_generating_pair: validated only for |z| <= {WEIGHTED_GF_RADIUS} "
            f"(asymptotic series floor exceeds the documented gap), got |z|={abs(z):.4g}")
    if z != 0 and (z * z).real <= 0.0:
        raise DomainError("weighted_generating_pair: integral side requires Re(z^2) > 0")

    table = moments._table(60)
    terms = _hermite_terms(z, x, [math.exp(v - 0.5 * f)
                                  for v, f in zip(table.log_eta[:61], table.log_factorial)])
    # truncate at the smallest nonzero term (odd-order terms vanish at x=0)
    nonzero = [i for i, t in enumerate(terms) if t != 0]
    stop = min(nonzero, key=lambda i: abs(terms[i])) if nonzero else 0
    lhs = csum(terms[:stop + 1])

    def integrand(t):
        return cmath.exp(-0.5 * z * z * t * t + (math.sqrt(2.0) * z * x - 1.0) * t) / (1.0 + t) ** 2

    quad = integrate_semi_infinite(integrand, 1e-11)
    rhs = PI_QUARTER_INV * math.exp(-0.5 * x * x) * quad.value
    return complex(lhs), complex(rhs)
