"""mpmath references at 40 significant digits for the tests and tools/.

Values are numbers of the private 50-digit context ``ctx``, so mpmath's
global context is left alone.  No hfock or pytest import: scripts can use it.
"""
import math
from functools import lru_cache

import mpmath

ctx = mpmath.MPContext()
ctx.dps = 50

_INV_ETA: dict[int, tuple] = {}  # digits -> (1/eta_0, 1/eta_1, ...)


def _inv_eta(dps: int, n: int) -> tuple:
    """1/eta_k for k = 0 .. at least n, from one table per precision that
    doubles when a call needs more.  E_k(1) runs forward, E_{k+1}(1) =
    (1/e - E_k(1))/k, which damps its errors; eta_0 = 1 - e E_1(1) and eta_k
    = (e (1+k) E_k(1) - 1) (k-1)!, whose bracket cancels 2 log10(k) digits."""
    table = _INV_ETA.get(dps, ())
    if len(table) <= n:
        count = 2 * n + 64
        with ctx.workdps(dps + 10 + 2 * len(str(count))):
            en, inv_e, fact = ctx.e1(1), ctx.exp(-1), ctx.mpf(1)
            out = [1 / (1 - ctx.e * en)]
            for k in range(1, count):
                out.append(1 / ((ctx.e * (1 + k) * en - 1) * fact))
                en, fact = (inv_e - en) / k, fact * k
        table = _INV_ETA[dps] = tuple(out)
    return table


def eta(n: int):
    """eta_n = integral of t^n e^-t / (1+t)^2 over (0, inf)."""
    return 1 / _inv_eta(ctx.dps, n)[n]


def _series(q, dps: int):
    """(sum q^n/eta_n, sum |q|^n/eta_n) at ``dps`` digits, cut once a term,
    past n > 4|q| where they halve at each step, is below 10^-dps of the sum."""
    with ctx.workdps(dps):
        a, scale = abs(q), ctx.mpf(10) ** dps
        size, power, n, n_min = ctx.mpf(0), ctx.mpf(1), 0, 4 * int(a) + 6
        inv = _inv_eta(dps, n_min)
        while True:
            if n == len(inv):
                inv = _inv_eta(dps, n)
            term = power * inv[n]
            size += term
            if n > n_min and term * scale < size:
                break
            power *= a
            n += 1
        total = ctx.mpc(0)
        for c in reversed(inv[:n + 1]):  # Horner
            total = total * q + c
        return total, size


def efun(q, dps: int = 50):
    """E(q) = sum q^n / eta_n to 40 significant digits.

    At d digits, Horner's rounding and the cut tail leave a sum of n terms
    within (2n + 1) 10^-d sum|t|: it keeps d - lost - log10(2n + 1) digits,
    lost = log10(sum|t| / |sum t|).  It runs at d = ``dps`` + 50k digits for
    the least k with d - lost >= 45: first for the lost of E(q) ~ q^2 e^q,
    (|q| - max(Re q, 0)) / ln 10, then for the lost it measures, until a sum
    meets its own measure (45 digits keep 40 while n < 5e4).  A sum that kept
    no digit reads as losing nearly d, so each retry adds 50 digits or more."""
    q = ctx.mpc(q)
    lost = (float(abs(q)) - max(float(q.real), 0.0)) / math.log(10)
    while True:
        d = dps + 50 * max(0, math.ceil((lost + 45 - dps) / 50))
        total, size = _series(q, d)
        lost = float(ctx.log10(size / abs(total))) if total else float(d)
        if d - lost >= 45:
            return total


def kernel(z, w):
    """K(z, w) = E(z conj w)."""
    return efun(ctx.mpc(z) * ctx.conj(w))


def _psi(n: int, x):
    """psi_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)), the orthonormal
    Hermite function, from mpmath's Hermite polynomial H_n."""
    return ctx.hermite(n, x) * ctx.exp(-x * x / 2) / ctx.sqrt(
        2 ** n * ctx.factorial(n) * ctx.sqrt(ctx.pi))


def bargmann_kernel(z, x, dps: int = 50):
    """A(z, x) = sum_n z^n / sqrt(eta_n) psi_n(x) to 40 significant digits.

    |psi_n| < 1 bounds a term by |z|^n / sqrt(eta_n), which halves at each
    step past n = 4|z|^2 + 6; the sum is cut there once that bound is below
    10^-d of the sum of the moduli.  The digits d are chosen as in ``efun``,
    from the cancellation each sum measures."""
    z, x = ctx.mpc(z), ctx.mpf(x)
    lost = 0.0
    while True:
        d = dps + 50 * max(0, math.ceil((lost + 45 - dps) / 50))
        with ctx.workdps(d):
            a, scale = abs(z), ctx.mpf(10) ** d
            n_min = 4 * int(a * a) + 6
            total, size, n = ctx.mpc(0), ctx.mpf(0), 0
            while True:
                weight = ctx.sqrt(_inv_eta(d, n)[n])
                term = z ** n * weight * _psi(n, x)
                total, size = total + term, size + abs(term)
                if n > n_min and a ** n * weight * scale < size:
                    break
                n += 1
            lost = float(ctx.log10(size / abs(total))) if total else float(d)
        if d - lost >= 45:
            return total


def phi(n: int, q):
    """phi_n(q) = sum q^k/(k+n): summed for |q| < 1/2, elsewhere the closed
    form q^-n (-log(1-q) - sum_{j<n} q^j/j) with digits for its cancellation."""
    q = ctx.mpc(q)
    if q == 0:
        return ctx.mpf(1) / n
    if abs(q) < 0.5:
        total, qk, k = ctx.mpc(0), ctx.mpc(1), 0
        while abs(qk) > 1e-50:
            total, qk, k = total + qk / (k + n), qk * q, k + 1
        return total
    with ctx.workdps(ctx.dps + 20 + n):
        return (-ctx.log(1 - q) - ctx.fsum(q ** j / j for j in range(1, n))) / q ** n


def lerch_phi(z, s, a):
    """Lerch's Phi(z, s, a) = sum z^k / (k+a)^s: mpmath's lerchphi at 40 digits."""
    with ctx.workdps(40):
        return ctx.lerchphi(z, s, a)


def hurwitz_zeta(s, a, dps: int = 50):
    """zeta(s, a) = sum (k+a)^-s to 40 significant digits.

    mpmath's zeta(s, a) loses about s log10(a) digits for a > 1 (3.5e-10
    off at s = 20, a = 100 at 40 digits), so it runs first at d = ``dps`` +
    50k digits, k the least with 50k >= that loss, then at d + 50, d + 100,
    ... until two successive values agree to 45 digits."""
    s, a = ctx.mpf(s), ctx.mpf(a)
    d = dps + 50 * max(0, math.ceil(float(s) * math.log10(a) / 50))
    prev = None
    while True:
        with ctx.workdps(d):
            value = ctx.zeta(s, a)
        if prev is not None and abs(value - prev) <= ctx.mpf(10) ** -45 * abs(value):
            return value
        prev, d = value, d + 50


@lru_cache(maxsize=None)
def _laguerre_coeffs(n: int) -> tuple:
    return tuple((-1) ** k * math.comb(n, k + 1) / ctx.factorial(k) for k in reversed(range(n)))


def laguerre(n: int, x):
    """L^(1)_{n-1}(x) = sum_{k<n} C(n, k+1) (-x)^k / k!, to 40 digits of
    L^(1)_{n-1}(-|x|), the sum of the moduli of its terms."""
    return ctx.polyval(_laguerre_coeffs(n), x)


def poly_fock_kernel(n: int, z, w):
    """exp(z conj w) L^(1)_{n-1}(|z - w|^2)."""
    z, w = ctx.mpc(z), ctx.mpc(w)
    return ctx.exp(z * ctx.conj(w)) * laguerre(n, abs(z - w) ** 2)


def check_gram(g, kernel, pairs=None) -> None:
    """Assert that Gram matrix ``g`` is exactly Hermitian and that its trace,
    and each upper entry or each (i, j) of ``pairs``, lie within 8192 u of
    ``kernel(z, w)`` (u = 2^-53): the trace relative to itself, entry (i, j)
    relative to sqrt(K(z_i, z_i) K(z_j, z_j))."""
    tol = 8192 * 2.0 ** -53
    assert (g.entries == g.entries.conj().T).all()
    pts = [ctx.mpc(p) for p in g.points]
    diag = [float(kernel(p, p).real) for p in pts]
    trace = math.fsum(diag)
    assert abs(g.trace - trace) <= tol * trace
    m = len(pts)
    for i, j in pairs or [(i, j) for i in range(m) for j in range(i, m)]:
        ref = complex(kernel(pts[i], pts[j]))
        assert abs(complex(g.entries[i, j]) - ref) <= tol * math.sqrt(diag[i] * diag[j]), \
            (i, j, g.entries[i, j], ref)
