"""The moment sequence eta_n = integral of t^n exp(-t)/(1+t)^2 over (0, inf).

Three independent routes are provided and cross-checked:

* quadrature of the defining integral, on panels of the adaptive integrator
  that read the weight's node factors (exp(-t) and (1+t)^2, or log t and
  2 log1p(t)) from a per-panel LRU table, with the same bits as the scalar
  integrand through ``integrate_semi_infinite``; the shifted moment of the
  E_n identity below runs on the same panels with factors exp(-t - 1) and
  1+t,
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
import math
from collections import namedtuple
from functools import lru_cache

from . import expint
from .errors import AccuracyError, DomainError, PrecisionLossError, check_order, check_tol
from .numerics import (_G7_CENTER_W, _K15_CENTER_W, IntegralResult, _integrate_panels, _node_factors,
                       csum, integrate_semi_infinite)

N_MAX = 10_000
LINEAR_LIMIT = 170  # linear eta values stop here; log values continue
_CROSS_CHECK_UP_TO = 60  # eta_table checks orders up to here by quadrature
_FIRST_ORDER = 256  # order of the first table; each larger one doubles it, capped at N_MAX
# eta_0, r_1 .. r_N, then over n = 0 .. N: log eta_n, the ratios 1/eta_0 and
# eta_{n-1}/eta_n, eta_n/n!, eta_n^(-1/2) and log n! = lgamma(n + 1)
_Columns = namedtuple("_Columns", "eta0 r log_eta ratios over_fact inv_sqrt_eta log_factorial")
_EMPTY_TABLE = _Columns(math.nan, (), (), (), (), (), ())
_TABLE = _EMPTY_TABLE


def _table(n: int) -> _Columns:
    """The moment table through order n at least, n <= N_MAX.

    A larger table runs the same recurrence and expressions on from a
    snapshot of the current one, so its entries keep the bits of one table
    built through N_MAX, and is published in one assignment: threads that
    grow it at once each publish a correct table.
    """
    global _TABLE
    table = _TABLE
    if n < len(table.log_eta):
        return table
    size = _FIRST_ORDER
    while size < n:
        size *= 2
    eta0, r, logs, ratios, over_fact, inv_sqrt, log_fact = table
    if not logs:
        e1_at_1 = expint.e1(1.0)
        eta0, r = 1.0 - math.e * e1_at_1, (2.0 * math.e * e1_at_1 - 1.0,)
        logs, ratios = (math.log(eta0),), (math.exp(-math.log(eta0)),)
    r, logs, ratios = list(r), list(logs), list(ratios)
    over_fact, inv_sqrt, log_fact = list(over_fact), list(inv_sqrt), list(log_fact)
    for k in range(len(r), min(size, N_MAX)):
        r.append(1.0 / (k + 1) - (k + 2) * r[-1] / (k * (k + 1)))
    for k in range(len(log_fact), len(r) + 1):
        log_fact.append(math.lgamma(k + 1))
    for k in range(len(logs), len(r) + 1):
        logs.append(math.log(r[k - 1]) + log_fact[k - 1])
        ratios.append(math.exp(logs[k - 1] - logs[k]))
    for k in range(len(over_fact), len(logs)):
        over_fact.append(math.exp(logs[k] - log_fact[k]))
        inv_sqrt.append(math.exp(-0.5 * logs[k]))
    table = _TABLE = _Columns(eta0, tuple(r), tuple(logs), tuple(ratios),
                              tuple(over_fact), tuple(inv_sqrt), tuple(log_fact))
    return table


def _factorial_tail_order(name: str, c: float, x: float, w: float, d: float, tol: float,
                          start: int, stop: int) -> int | None:
    """The first n in [start, stop) with c + (n+1) log x - w log (n+1)! + d < log tol.

    0 where x = 0, and None where no n qualifies; a tol that is not > 0
    raises :class:`ConfigurationError` under ``name``.  The scan reads the
    table's ``log_factorial`` column as it stands and grows the table only
    where the column runs out.
    """
    check_tol(name, tol)
    if x == 0.0:
        return 0
    target = math.log(tol)
    log_x = math.log(x)
    log_fact = _TABLE.log_factorial
    first = start + 1  # the scan runs over m = n + 1
    while True:
        for m in range(first, min(len(log_fact), stop + 1)):
            if c + m * log_x - w * log_fact[m] + d < target:
                return m - 1
        if len(log_fact) > stop:
            return None
        first = max(first, len(log_fact))
        log_fact = _table(len(log_fact)).log_factorial


@lru_cache(maxsize=8)  # kept only because perfbench/tracer.py reads cache_info()
def residual_sequence(n_max: int) -> tuple[float, ...]:
    """Residuals r_1 .. r_{n_max}, r_n = e (1+n) E_n(1) - 1, in (0, 1/n]."""
    n_max = check_order("residual_sequence", "n_max", n_max, 1, N_MAX)
    return _table(n_max).r[:n_max]


def eta_closed_form(n: int) -> float:
    """eta_n in linear scale; only defined up to n = 170."""
    n = check_order("eta_closed_form", "n", n, 0, LINEAR_LIMIT)
    table = _table(n)
    return table.eta0 if n == 0 else table.r[n - 1] * math.gamma(n)


def log_eta(n: int) -> float:
    """log(eta_n), valid for 0 <= n <= 10^4."""
    n = check_order("log_eta", "n", n, 0, N_MAX)
    return _table(n).log_eta[n]


@lru_cache(maxsize=8)  # kept only because perfbench/tracer.py reads cache_info()
def log_eta_sequence(n_max: int) -> tuple[float, ...]:
    """log(eta_0) .. log(eta_{n_max}) as an immutable, shareable table."""
    n_max = check_order("log_eta_sequence", "n_max", n_max, 0, N_MAX)
    return _table(n_max).log_eta[:n_max + 1]


# The node factors of the moment weights on a panel (a, b) of the unit
# interval, in numerics._node_factors' layout.  Linear scale: t, exp(-t),
# (1+t)^2, (1-u)^2 for eta_n, and t, exp(-t - 1), 1+t, (1-u)^2 for the shifted
# moment of en_integral_identity; each is 1, 0, 1, (1-u)^2 from t = 746 on,
# where its exponential is 0.0 and t ** n could overflow.  Log scale: log t,
# t, 2 log1p(t), (1-u)^2.  Each table builds only its own factors.
@lru_cache(maxsize=256)
def _linear_factors(a, b):
    exp = math.exp
    return _node_factors(a, b, lambda t, j: (
        (t, exp(-t), (1.0 + t) * (1.0 + t), j) if t < 746.0 else (1.0, 0.0, 1.0, j)))


@lru_cache(maxsize=256)
def _shifted_factors(a, b):
    exp = math.exp
    return _node_factors(a, b, lambda t, j: (
        (t, exp(-t - 1.0), 1.0 + t, j) if t < 746.0 else (1.0, 0.0, 1.0, j)))


@lru_cache(maxsize=256)
def _log_factors(a, b):
    log, log1p = math.log, math.log1p
    return _node_factors(a, b, lambda t, j: (log(t), t, 2.0 * log1p(t), j))


def _moment_integral(n, tol, shift=None, factors=_linear_factors) -> IntegralResult:
    """The integral of t^n e(t)/d(t) over (0, inf) to relative ``tol``, with
    e and d the weight factors of ``factors``: exp(-t) and (1+t)^2 for
    eta_n (``_linear_factors``), exp(-t - 1) and 1+t for the shifted moment
    (``_shifted_factors``).

    Linear scale, t ** n * e / d, where ``shift`` is None; else eta_n's
    integrand in log scale, exp(n log t - t - 2 log1p(t) - shift), which
    cannot overflow at the orders and shifts used here.  Each panel is
    summed as ``numerics._panel_estimates`` sums it, and every node value is
    the one the scalar integrand gives, in the same order of operations, so
    the result or error is that of ``integrate_semi_infinite`` on that
    integrand, bit for bit.
    """
    p = float(n)  # t ** n and n * log(t) convert an int n to this float
    if shift is None:
        def sums(a, b):
            (t, e, d, j), pairs = factors(a, b)
            centre = t ** p * e / d / j
            kronrod = _K15_CENTER_W * centre
            gauss = _G7_CENTER_W * centre
            for t, e, d, j, tp, ep, dp, jp, wk, wg in pairs:
                pair = t ** p * e / d / j + tp ** p * ep / dp / jp
                kronrod += wk * pair
                gauss += wg * pair
            return kronrod, gauss
    else:
        exp = math.exp

        def sums(a, b):
            (lt, t, m, j), pairs = _log_factors(a, b)
            centre = exp(p * lt - t - m - shift) / j
            kronrod = _K15_CENTER_W * centre
            gauss = _G7_CENTER_W * centre
            for lt, t, m, j, ltp, tp, mp, jp, wk, wg in pairs:
                pair = exp(p * lt - t - m - shift) / j + exp(p * ltp - tp - mp - shift) / jp
                kronrod += wk * pair
                gauss += wg * pair
            return kronrod, gauss
    return _integrate_panels(sums, tol)


def eta_quadrature(n: int, tol: float = 1e-12) -> float:
    """eta_n by adaptive quadrature of the defining integral; like
    ``eta_closed_form``, only defined up to n = 170."""
    n = check_order("eta_quadrature", "n", n, 0, LINEAR_LIMIT)
    # from n = 66 in log scale, where t ** n cannot overflow
    return _moment_integral(n, tol, None if n <= 65 else 0.0).value


def log_eta_quadrature(n: int, tol: float = 1e-12) -> float:
    """log(eta_n) by quadrature of the integrand rescaled by exp(-lgamma(n+1))."""
    n = check_order("log_eta_quadrature", "n", n, 0, 400)
    shift = math.lgamma(n + 1)
    return shift + math.log(_moment_integral(n, tol, shift).value)


def eta_binomial(n: int) -> float:
    """eta_n = e sum_{k<=n} (-1)^(n-k) C(n,k) E_{2-k}(1), compensated.

    The alternating sum is kept as an independent witness only; it is capped
    at n = 25 where double precision still supports the documented 1e-8
    agreement with the closed form.
    """
    n = check_order("eta_binomial", "n", n, 0, math.inf)
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


class MomentTable(namedtuple("MomentTable", "n_max eta log_eta abs_err")):
    """eta_0 .. eta_{n_max}, every entry on the closed-form route.

    Fields: ``n_max``, then tuples over n = 0 .. n_max: ``eta`` (float('nan')
    past LINEAR_LIMIT, printed as None by ``rows()``), ``log_eta`` and
    ``abs_err``: the cross-route discrepancy where the quadrature check ran,
    otherwise a propagated recurrence bound (NaN once the linear value has
    overflowed).
    """

    __slots__ = ()

    def rows(self):
        for n in range(self.n_max + 1):
            yield {"n": n,
                   "eta": None if n > LINEAR_LIMIT else self.eta[n],
                   "log_eta": self.log_eta[n],
                   "abs_err": None if math.isnan(self.abs_err[n]) else self.abs_err[n],
                   "route": "closed-form"}

    def write_csv(self, fileobj) -> None:
        import csv

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
    n_max = check_order("eta_table", "n_max", n_max, 0, N_MAX)
    logs = log_eta_sequence(n_max)
    eta, abs_err = [], []
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
    return MomentTable(n_max=n_max, eta=tuple(eta), log_eta=logs, abs_err=tuple(abs_err))


def eta_factorial_sum(n_terms: int) -> float:
    """Partial sum of eta_n / n!, which increases monotonically to 1.

    Terms are formed in log scale; the tail after N is below 1/N because
    eta_n/n! <= 1/n^2.
    """
    n_terms = check_order("eta_factorial_sum", "N", n_terms, 0, N_MAX)
    return math.fsum(_table(n_terms).over_fact[:n_terms + 1])


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
_DIRECT_N_MAX = 2000
_DIRECT_RADIUS = 0.92
_ACCEL_RATIO = 0.90


@lru_cache(maxsize=1)
def _laguerre_projection() -> tuple[float, ...]:
    g0 = _moment_integral(0, 1e-14).value
    h0 = integrate_semi_infinite(lambda t: math.exp(-t) / (1.0 + t), 1e-14).value
    g = [g0, 2.0 * g0 - h0]
    h = [h0, 2.0 * h0 - 1.0]
    for k in range(1, _ACCEL_K_MAX - 1):
        h.append(2.0 * h[k] - k / (k + 1) * h[k - 1])
        g.append(2.0 * g[k] - k / (k + 1) * g[k - 1] - h[k] / (k + 1))
    return tuple(g)


def _series_direct(z: complex) -> complex:
    over_fact = _table(_DIRECT_N_MAX).over_fact
    terms = []
    zp = 1.0 + 0j
    for n in range(_DIRECT_N_MAX + 1):
        t = zp * over_fact[n]
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
    g = _laguerre_projection()
    stop = 1e-18 * max(1.0, abs(g[0]))  # |terms[0]| = |g_0 * (1 + 0j)| = |g_0|
    terms = []
    wp = 1.0 + 0j
    for k in range(_ACCEL_K_MAX):
        t = g[k] * wp
        terms.append(t)
        if k > 8 and abs(t) < stop:
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
    if not (z.real > -1.0 and cmath.isfinite(z)):
        raise DomainError(f"generating_series: requires a finite z with Re(z) > -1, got {z}")
    if abs(z) <= _DIRECT_RADIUS:
        return _series_direct(z)
    return _series_accelerated(z)


def generating_closed_form(z: complex) -> complex:
    """1 - (z+1) e^(z+1) E1(z+1), the closed form of the generating function."""
    z = complex(z)
    if not (z.real > -1.0 and cmath.isfinite(z)):
        raise DomainError(f"generating_closed_form: requires a finite z with Re(z) > -1, got {z}")
    s = z + 1.0
    val = 1.0 - s * cmath.exp(s) * expint.e1(s)
    return val


def en_integral_identity(n: int) -> tuple[float, float]:
    """Both sides of: integral over (1, inf) of (u-1)^n e^{-u}/u du = n! E_{n+1}(1).

    The left side is shifted to (0, inf), t = u - 1, and integrated
    adaptively to relative tolerance 1e-11 on the linear moment panels of
    t^n exp(-t - 1)/(1+t); the right side uses the E_n family.  Used as a
    consistency witness for the closed-form moment route.
    """
    n = check_order("en_integral_identity", "n", n, 0, 60)
    lhs = _moment_integral(n, 1e-11, factors=_shifted_factors).value
    rhs = math.gamma(n + 1) * expint.en(n + 1, 1.0)
    return lhs, rhs
