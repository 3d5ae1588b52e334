"""The moment sequence eta_n = integral of t^n exp(-t)/(1+t)^2 over (0, inf).

Three independent routes are provided and cross-checked:

* quadrature of the defining integral,
* the closed form eta_0 = 1 - e E1(1), eta_n = r_n Gamma(n) with the
  residual r_n = e (1+n) E_n(1) - 1 carried by its own cancellation-free
  recurrence r_{n+1} = 1/(n+1) - (n+2) r_n / (n (n+1)),
* the alternating binomial sum e * sum_k (-1)^(n-k) C(n,k) E_{2-k}(1).

The sequence obeys n!/(2^n * 8) <= eta_n <= n! and eta_n <= Gamma(n)/n;
``hfock verify bounds`` checks both in log scale, where the table extends
past the range in which Gamma overflows double precision.  Also here: the alternating generating
function sum (-1)^n (eta_n/n!) z^n together with its closed form
1 - (z+1) e^(z+1) E1(z+1), and the identity
integral over (1, inf) of (u-1)^n e^{-u}/u du = n! E_{n+1}(1).
"""
from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from functools import lru_cache

from . import expint
from .errors import AccuracyError, ConfigurationError, DomainError, PrecisionLossError
from .numerics import csum, integrate_semi_infinite

N_MAX = 10_000
LINEAR_LIMIT = 170  # linear eta values stop here; log values continue
_CROSS_CHECK_UP_TO = 60  # eta_table checks orders up to here by quadrature


@lru_cache(maxsize=1)
def _table() -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """(eta_0, (r_1 .. r_N_MAX), (log eta_0 .. log eta_N_MAX)), built once."""
    e1_at_1 = expint.e1(1.0)
    eta0, r = 1.0 - math.e * e1_at_1, [2.0 * math.e * e1_at_1 - 1.0]
    for n in range(1, N_MAX):
        r.append(1.0 / (n + 1) - (n + 2) * r[-1] / (n * (n + 1)))
    logs = [math.log(eta0)] + [math.log(r[n - 1]) + math.lgamma(n) for n in range(1, N_MAX + 1)]
    return eta0, tuple(r), tuple(logs)


@lru_cache(maxsize=8)  # kept only because perfbench/tracer.py reads cache_info()
def residual_sequence(n_max: int) -> tuple[float, ...]:
    """Residuals r_1 .. r_{n_max}, r_n = e (1+n) E_n(1) - 1, in (0, 1/n]."""
    if not 1 <= n_max <= N_MAX:
        raise ConfigurationError(f"residual_sequence: n_max must be in [1, {N_MAX}]")
    return _table()[1][:n_max]


def eta_closed_form(n: int) -> float:
    """eta_n in linear scale; only defined up to n = 170."""
    if not 0 <= n <= LINEAR_LIMIT:
        raise ConfigurationError(
            f"eta_closed_form: linear values require 0 <= n <= {LINEAR_LIMIT}, got {n}; "
            "use log_eta for larger orders")
    eta0, r, _ = _table()
    return eta0 if n == 0 else r[n - 1] * math.gamma(n)


def log_eta(n: int) -> float:
    """log(eta_n), valid for 0 <= n <= 10^4."""
    if not 0 <= n <= N_MAX:
        raise ConfigurationError(f"log_eta: n must be in [0, {N_MAX}], got {n}")
    return _table()[2][n]


@lru_cache(maxsize=8)  # kept only because perfbench/tracer.py reads cache_info()
def log_eta_sequence(n_max: int) -> tuple[float, ...]:
    """log(eta_0) .. log(eta_{n_max}) as an immutable, shareable table."""
    if not 0 <= n_max <= N_MAX:
        raise ConfigurationError(f"log_eta_sequence: n_max must be in [0, {N_MAX}]")
    return _table()[2][:n_max + 1]


def _eta_integrand(n):
    if n <= 65:
        return lambda t: t ** n * math.exp(-t) / ((1.0 + t) * (1.0 + t))
    # from n = 66, t^n overflows on the integrator's far nodes: assemble in log scale
    return lambda t: math.exp(n * math.log(t) - t - 2.0 * math.log1p(t)) if t > 0 else 0.0


def eta_quadrature(n: int, tol: float = 1e-12) -> float:
    """eta_n by adaptive quadrature of the defining integral."""
    if not 0 <= n <= 400:
        raise ConfigurationError(f"eta_quadrature: n must be in [0, 400], got {n}")
    if n <= LINEAR_LIMIT:
        return integrate_semi_infinite(_eta_integrand(n), tol).value
    return math.exp(log_eta_quadrature(n, tol))


def log_eta_quadrature(n: int, tol: float = 1e-12) -> float:
    """log(eta_n) by quadrature of the integrand rescaled by exp(-lgamma(n+1))."""
    if not 0 <= n <= 400:
        raise ConfigurationError(f"log_eta_quadrature: n must be in [0, 400], got {n}")
    shift = math.lgamma(n + 1)

    def scaled(t):
        if t <= 0.0:
            return 0.0
        return math.exp(n * math.log(t) - t - 2.0 * math.log1p(t) - shift)

    res = integrate_semi_infinite(scaled, tol)
    return shift + math.log(res.value)


def eta_binomial(n: int) -> float:
    """eta_n = e sum_{k<=n} (-1)^(n-k) C(n,k) E_{2-k}(1), compensated.

    The alternating sum is kept as an independent witness only; it is capped
    at n = 25 where double precision still supports the documented 1e-8
    agreement with the closed form.
    """
    if n < 0:
        raise ConfigurationError(f"eta_binomial: n must be >= 0, got {n}")
    if n > 25:
        raise PrecisionLossError(
            f"eta_binomial: alternating sum not supported in double precision beyond n=25, got {n}")
    terms = []
    for k in range(n + 1):
        if k == 0:
            e_val = math.e * expint.en(2, 1.0)
        elif k == 1:
            e_val = math.e * expint.e1(1.0)
        else:
            e_val = math.e * expint.en_negative_order_at_1(k)
        terms.append((-1.0) ** (n - k) * math.comb(n, k) * e_val)
    return math.fsum(terms)


@dataclass(frozen=True)
class MomentTable:
    """eta_0 .. eta_{n_max} with per-entry provenance.

    ``eta`` entries flagged in ``overflow`` are float('nan'); ``log_eta`` is
    always populated.  ``abs_err`` is the cross-route discrepancy where the
    quadrature check ran, otherwise a propagated recurrence bound (NaN once
    the linear value has overflowed).
    """

    n_max: int
    eta: tuple[float, ...]
    log_eta: tuple[float, ...]
    abs_err: tuple[float, ...]
    route: tuple[str, ...]
    overflow: tuple[bool, ...]

    def rows(self):
        for n in range(self.n_max + 1):
            yield {"n": n,
                   "eta": None if self.overflow[n] else self.eta[n],
                   "log_eta": self.log_eta[n],
                   "abs_err": None if math.isnan(self.abs_err[n]) else self.abs_err[n],
                   "route": self.route[n]}

    def write_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(["n", "eta", "log_eta", "abs_err", "route"])
        for row in self.rows():
            writer.writerow([row["n"],
                             "overflow" if row["eta"] is None else repr(row["eta"]),
                             repr(row["log_eta"]),
                             "" if row["abs_err"] is None else repr(row["abs_err"]),
                             row["route"]])

    def as_json_obj(self) -> dict:
        return {"n_max": self.n_max, "entries": list(self.rows())}


def eta_table(n_max: int, tol: float = 1e-12) -> MomentTable:
    """Build the moment table on the closed-form route, quadrature checked.

    Quadrature at ``tol`` runs for n <= 60 and the observed discrepancy
    lands in ``abs_err``; beyond that the recurrence error bound
    err_{n+1} = (n+2)/(n(n+1)) err_n + eps/(n+1), scaled by Gamma(n), is
    propagated instead.
    """
    if not 0 <= n_max <= N_MAX:
        raise ConfigurationError(f"eta_table: n_max must be in [0, {N_MAX}], got {n_max}")
    logs = log_eta_sequence(n_max)
    eta, abs_err, route, over = [], [], [], []
    eps = 2.2e-16
    r_err = eps  # absolute error bound on the residual r_n
    for n in range(n_max + 1):
        is_over = n > LINEAR_LIMIT
        val = math.nan if is_over else eta_closed_form(n)
        if n <= _CROSS_CHECK_UP_TO:
            err = abs(val - eta_quadrature(n, tol))
        elif not is_over:
            err = r_err * math.gamma(n) if n >= 1 else eps
        else:
            err = math.nan
        if n >= 1:
            r_err = (n + 2) / (n * (n + 1)) * r_err + eps / (n + 1)
        eta.append(val)
        abs_err.append(err)
        route.append("closed-form")
        over.append(is_over)
    return MomentTable(n_max=n_max, eta=tuple(eta), log_eta=logs,
                       abs_err=tuple(abs_err), route=tuple(route), overflow=tuple(over))


def eta_factorial_sum(n_terms: int) -> float:
    """Partial sum of eta_n / n!, which increases monotonically to 1.

    Terms are formed in log scale; the tail after N is below 1/N because
    eta_n/n! <= 1/n^2.
    """
    if not 0 <= n_terms <= N_MAX:
        raise ConfigurationError(f"eta_factorial_sum: N must be in [0, {N_MAX}], got {n_terms}")
    logs = log_eta_sequence(n_terms)
    return math.fsum(math.exp(logs[n] - math.lgamma(n + 1)) for n in range(n_terms + 1))


# --- alternating generating function -------------------------------------
#
# S(z) = sum (-1)^n (eta_n/n!) z^n.  Since eta_n/n! ~ 1/(n+1)^2 the power
# series only converges on |z| <= 1, while S extends analytically to
# Re(z) > -1 (it is the Laplace transform of 1/(1+t)^2 at z+1).  Outside the
# unit disk the series is resummed by its Euler transformation
#
#   S(z) = sum_k g_k z^k / (1+z)^{k+1},   |z/(1+z)| < 1,
#
# whose coefficients g_k = integral of exp(-t) L_k(t)/(1+t)^2 dt (Laguerre
# polynomials L_k) satisfy stable two-term recurrences seeded by two plain
# quadratures, keeping the route independent of the E1-based closed form.

_ACCEL_K_MAX = 320
_DIRECT_RADIUS = 0.92
_ACCEL_RATIO = 0.90


@lru_cache(maxsize=1)
def _laguerre_projection() -> tuple[tuple[float, ...], tuple[float, ...]]:
    g0 = integrate_semi_infinite(_eta_integrand(0), 1e-14).value
    h0 = integrate_semi_infinite(lambda t: math.exp(-t) / (1.0 + t), 1e-14).value
    g = [g0, 2.0 * g0 - h0]
    h = [h0, 2.0 * h0 - 1.0]
    for k in range(1, _ACCEL_K_MAX - 1):
        h.append(2.0 * h[k] - k / (k + 1) * h[k - 1])
        g.append(2.0 * g[k] - k / (k + 1) * g[k - 1] - h[k] / (k + 1))
    return tuple(g), tuple(h)


def _series_direct(z: complex) -> complex:
    logs = log_eta_sequence(2000)
    terms = []
    zp = 1.0 + 0j
    for n in range(len(logs)):
        t = zp * math.exp(logs[n] - math.lgamma(n + 1))
        if n % 2 == 1:
            t = -t
        terms.append(t)
        if n > 8 and abs(t) < 1e-18:
            break
        zp *= z
    return csum(terms)


def _series_accelerated(z: complex) -> complex:
    w = z / (1.0 + z)
    if abs(w) > _ACCEL_RATIO:
        raise AccuracyError(
            f"generating_series: z={z} has |z/(1+z)| = {abs(w):.4f} beyond the "
            f"validated acceleration region {_ACCEL_RATIO}")
    g, _ = _laguerre_projection()
    terms = []
    wp = 1.0 + 0j
    for k in range(_ACCEL_K_MAX):
        t = g[k] * wp
        terms.append(t)
        if k > 8 and abs(t) < 1e-18 * max(1.0, abs(terms[0])):
            break
        wp *= w
    return csum(terms) / (1.0 + z)


def generating_series(z: complex) -> complex:
    """S(z) = sum (-1)^n (eta_n/n!) z^n for Re(z) > -1.

    Direct compensated summation of at most 2000 terms for |z| <= 0.92 (the
    power series has unit radius); Euler-transform acceleration (see module
    notes) of at most 320 terms when |z/(1+z)| <= 0.9.  Arguments outside
    both validated regions raise :class:`AccuracyError`.
    """
    z = complex(z)
    if z.real <= -1.0:
        raise DomainError(f"generating_series: requires Re(z) > -1, got {z}")
    if abs(z) <= _DIRECT_RADIUS:
        return _series_direct(z)
    return _series_accelerated(z)


def generating_closed_form(z: complex) -> complex:
    """1 - (z+1) e^(z+1) E1(z+1), the closed form of the generating function."""
    z = complex(z)
    if z.real <= -1.0:
        raise DomainError(f"generating_closed_form: requires Re(z) > -1, got {z}")
    s = z + 1.0
    val = 1.0 - s * cmath.exp(s) * expint.e1(s)
    return val


def en_integral_identity(n: int) -> tuple[float, float]:
    """Both sides of: integral over (1, inf) of (u-1)^n e^{-u}/u du = n! E_{n+1}(1).

    The left side is shifted to (0, inf) and integrated adaptively to
    relative tolerance 1e-11; the right side uses the E_n family.  Used as a
    consistency witness for the closed-form moment route.
    """
    if not 0 <= n <= 60:
        raise ConfigurationError(f"en_integral_identity: n must be in [0, 60], got {n}")

    def integrand(t):
        return t ** n * math.exp(-t - 1.0) / (1.0 + t)

    lhs = integrate_semi_infinite(integrand, 1e-11).value
    rhs = math.gamma(n + 1) * expint.en(n + 1, 1.0)
    return lhs, rhs
