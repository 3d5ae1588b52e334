"""mpmath reference values at 40 significant digits.

Every function takes plain Python floats or complex numbers (the exact
inputs handed to hfock) and returns an mpmath number.  Working precision is
raised above 40 digits wherever the reference itself cancels, so the
returned value is good to about 40 digits.  hfock is never imported here.
"""
from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

DIGITS = 40
mp.mp.dps = DIGITS


@lru_cache(maxsize=None)
def eta(n: int):
    """eta_n from the closed form eta_0 = 1 - e E1(1), eta_n = r_n Gamma(n),
    r_n = e (1+n) E_n(1) - 1, with mpmath's own expint."""
    with mp.workdps(DIGITS + 20 + int(math.log10(n + 1))):
        if n == 0:
            return 1 - mp.e * mp.e1(1)
        # kept at the working precision, so that efun's guard digits hold
        return (mp.e * (1 + n) * mp.expint(n, 1) - 1) * mp.gamma(n)


def log_eta(n: int):
    return mp.log(eta(n))


def efun(q):
    """sum_n q^n / eta_n, with guard digits for the cancellation at negative q."""
    q = mp.mpc(q)
    a = float(abs(q))
    with mp.workdps(DIGITS + 10 + int(2.0 * a / math.log(10.0))):
        total = mp.mpc(0)
        term_bound = mp.mpf(10) ** -(mp.mp.dps + 5)
        qn = mp.mpc(1)
        n = 0
        while True:
            term = qn / eta(n)
            total += term
            # eta_n >= n!/(8 2^n), so past n > 4|q| the terms shrink by 1/2 each
            if n > 4 * a + 2 and abs(term) < term_bound * max(abs(total), 1e-300):
                break
            qn *= q
            n += 1
    return +total


def kernel(z, w):
    return efun(mp.mpc(z) * mp.conj(mp.mpc(w)))


def lerch_phi(z, s, a):
    """sum_k z^k / (k+a)^s for |z| < 1, summed until the geometric tail
    |z|^k / ((k+a)^s (1-|z|)) drops below 1e-45 of the sum."""
    z, s, a = mp.mpc(z), mp.mpf(s), mp.mpf(a)
    r = abs(z)
    with mp.workdps(DIGITS + 10):
        total = mp.mpc(0)
        zk = mp.mpc(1)
        k = 0
        while True:
            total += zk / (k + a) ** s
            zk *= z
            k += 1
            tail = r ** k / ((k + a) ** s * (1 - r))
            if tail < mp.mpf(10) ** -(DIGITS + 5) * abs(total):
                break
    return +total


def phi(n: int, z):
    """phi_n(z) = sum_k z^k/(k+n) = z^-n (-log(1-z) - sum_{j<n} z^j/j)."""
    z = mp.mpc(z)
    if abs(z) < 0.5:
        return lerch_phi(z, 1, n)
    with mp.workdps(DIGITS + 20 + n):
        val = (-mp.log(1 - z) - mp.fsum(z ** j / j for j in range(1, n))) / z ** n
    return +val


def en(n: int, x):
    """E_n(x) for integer n >= 0, real x > 0."""
    x = mp.mpf(x)
    if n == 0:
        return mp.exp(-x) / x
    return mp.expint(n, x)


def laplace_en(n: int, a):
    """integral of exp(-a t) E_n(t) over (0, inf), i.e. phi_n(-a)."""
    a = mp.mpf(a)
    if a == 0:
        return mp.mpf(1) / n
    if abs(a) < 1:
        return mp.lerchphi(-a, 1, n)
    with mp.workdps(DIGITS + 20 + int(n * math.log10(float(a) + 1.0))):
        val = mp.log1p(a) + mp.fsum((-a) ** k / k for k in range(1, n))
        val = (-1) ** (n - 1) * val / a ** n
    return +val


def hermite_psi(n_max: int, x):
    """Orthonormal Hermite functions psi_0 .. psi_{n_max} at x."""
    x = mp.mpf(x)
    with mp.workdps(DIGITS + 20):
        out = [mp.pi ** mp.mpf(-0.25) * mp.exp(-x * x / 2)]
        prev = mp.mpf(0)
        for n in range(n_max):
            nxt = x * mp.sqrt(mp.mpf(2) / (n + 1)) * out[-1] - mp.sqrt(mp.mpf(n) / (n + 1)) * prev
            prev = out[-1]
            out.append(nxt)
    return out


def bargmann_kernel(z, x):
    """A(z, x) = sum_n z^n / sqrt(eta_n) psi_n(x), summed past 1e-50 relative."""
    z = mp.mpc(z)
    a = float(abs(z))
    # |psi_n| <= 1 and 1/sqrt(eta_n) <= sqrt(8) sqrt(2)^n / sqrt(n!)
    n_max = 20
    while (0.5 * math.log(8.0) + n_max * math.log(max(math.sqrt(2.0) * a, 1e-300))
           - 0.5 * math.lgamma(n_max + 1)) > -60 * math.log(10.0):
        n_max += 10
    psi = hermite_psi(n_max, x)
    with mp.workdps(DIGITS + 20):
        total = mp.fsum(z ** n / mp.sqrt(eta(n)) * psi[n] for n in range(n_max + 1))
    return +total


def generating_function(z):
    """S(z) = sum (-1)^n (eta_n/n!) z^n = 1 - (z+1) e^(z+1) E1(z+1), Re z > -1."""
    s = mp.mpc(z) + 1
    with mp.workdps(DIGITS + 20):
        val = 1 - s * mp.exp(s) * mp.e1(s)
    return +val


def shifted_moment(n: int):
    """integral over (1, inf) of (u-1)^n e^{-u}/u du = n! E_{n+1}(1)."""
    return mp.factorial(n) * mp.expint(n + 1, 1)


def hurwitz_zeta(s, a):
    return mp.zeta(mp.mpf(s), mp.mpf(a))


def poly_fock_kernel(n: int, z, w):
    """exp(z conj w) sum_{k<n} ((-1)^k/k!) C(n, k+1) |z - w|^(2k)."""
    z, w = mp.mpc(z), mp.mpc(w)
    with mp.workdps(DIGITS + 20):
        d2 = abs(z - w) ** 2
        poly = mp.fsum((-1) ** k / mp.factorial(k) * mp.binomial(n, k + 1) * d2 ** k
                       for k in range(n))
        val = mp.exp(z * mp.conj(w)) * poly
    return +val


def kernel_condition(z, w) -> float:
    """sum |terms| / |sum| for K(z, w): efun(|q|) / |efun(q)|."""
    q = mp.mpc(z) * mp.conj(mp.mpc(w))
    return float(abs(efun(abs(q))) / abs(efun(q)))


def bargmann_condition(z, x) -> float:
    """sum |terms| / |sum| for A(z, x)."""
    a = abs(mp.mpc(z))
    psi = hermite_psi(160, x)
    scale = mp.fsum(a ** n / mp.sqrt(eta(n)) * abs(psi[n]) for n in range(161))
    return float(scale / abs(bargmann_kernel(z, x)))


# --------------------------------------------------------------------------
# references for the ops of workloads.py, rounded to double precision

def _c(v):
    return complex(v)


def _gram_kernel_fns(kind):
    if kind == "gram_kernel":
        return (lambda z: efun(abs(mp.mpc(z)) ** 2), kernel)
    if kind.startswith("gram_phi"):
        n = int(kind[-1])
        return (lambda z: phi(n, abs(mp.mpc(z)) ** 2), lambda z, w: phi(n, mp.mpc(z) * mp.conj(mp.mpc(w))))
    if kind == "gram_poly2":
        return (lambda z: 2 * mp.exp(abs(mp.mpc(z)) ** 2), lambda z, w: poly_fock_kernel(2, z, w))
    raise KeyError(kind)


def reference(kind: str, args):
    if kind.startswith("gram_"):
        pts, pairs = args
        diag_fn, entry_fn = _gram_kernel_fns(kind)
        diag = [diag_fn(z) for z in pts]
        return {"diag": [float(mp.re(d)) for d in diag],
                "trace": float(mp.re(mp.fsum(diag))),
                "entries": [_c(entry_fn(pts[i], pts[j])) for i, j in pairs]}
    if kind == "verify":
        return None
    if kind == "kernel":
        return _c(kernel(*args))
    if kind == "phi":
        return _c(phi(*args))
    if kind == "lerch_phi":
        return _c(lerch_phi(*args))
    if kind == "en_family":
        n_max, x = args
        return [float(en(k, x)) for k in range(n_max + 1)]
    if kind == "laplace_en":
        return float(laplace_en(*args))
    if kind == "bargmann_kernel":
        return _c(bargmann_kernel(*args))
    if kind == "kernel_l2_norm_sq":
        return float(mp.re(efun(abs(mp.mpc(args[0])) ** 2)))
    if kind == "generating_series":
        return _c(generating_function(*args))
    if kind == "eta_quadrature":
        return float(eta(*args))
    if kind == "log_eta_quadrature":
        return float(log_eta(*args))
    if kind == "en_integral_identity":
        return float(shifted_moment(*args))
    if kind == "lerch_phi_integral":
        return _c(lerch_phi(*args))
    if kind == "hurwitz_zeta_integral":
        return float(hurwitz_zeta(*args))
    if kind == "eta_table":
        return [float(eta(n)) for n in range(args[0] + 1)]
    raise KeyError(kind)
