"""Shared numerical substrate.

Gauss-Laguerre and Gauss-Hermite rules (Golub-Welsch on the Jacobi matrix;
the Christoffel recurrence for the weights runs over all nodes at once, at
orders where every weight is normal), an adaptive integrator for absolutely
convergent integrals on (0, inf) on Gauss-Kronrod G7/K15 panels, central
finite differences for the Wirtinger derivative d/d(conj z), and a seeded
uniform sampler of the disk.

The integrator is one adaptive loop over the panels (a, b) of the unit
interval, t = u/(1-u).  Its caller hands it a node function of (t, (1-u)^2)
and a panel function; for each panel the loop reads the node function's
rows at the 15 K15 nodes, each with its K15 and G7 weights, from
``_panel_table``, one LRU cache of 512 panels shared by all calls, and the
panel function turns them into the K15 and G7 sums.  The loop alone turns
the two sums into a panel's value and error estimate and raises
AccuracyError when they are not finite.  ``integrate_semi_infinite`` hands
it the bare nodes and the generic panel, which calls its integrand on
Python floats, sums each panel in Python floats or complexes, and raises
AccuracyError at once when the integrand overflows.  The moment and
shifted-moment integrals of ``moments`` and the Lerch and Hurwitz integrals
of ``lerch`` hand it node functions of their integrand's argument-free
factors and panels that compute only the rest at each node, with the bits
of their scalar integrand through ``integrate_semi_infinite``.  The loop
re-sums its panels exactly only on steps where running totals, widened by
their rounding bound, could pass the stopping test; every value, error
estimate, node count and error message is the one that re-summing on every
step gives.

Only the Gauss rules build arrays; they import numpy when first called, so
the integrator, the finite differences, the sampler and ``csum`` run on the
standard library alone.

Everything here is a pure function of its inputs; returned objects are
immutable and safe to share between threads.
"""
from __future__ import annotations

import heapq
import math
from collections import namedtuple
from functools import lru_cache, partial
from operator import attrgetter

from .errors import AccuracyError, ConfigurationError, check_order, check_tol

GAUSS_N_MAX = 200
_MAX_EVALS = 100_000  # integrand evaluations one integrate_semi_infinite call may spend

# panel rule of the adaptive integrator: QUADPACK's qk15, the 7-point Gauss
# rule nested in the 15-point Kronrod rule on (-1, 1).  Nodes come in pairs
# +-x around the centre; each entry is (x, Kronrod weight, Gauss weight).
# The three Gauss pairs come first, then the four pairs that only the
# Kronrod rule has (Gauss weight 0.0): qk15's order of summation.
_K15_CENTER_W = 0.209482141084727828012999174891714
_G7_CENTER_W = 0.417959183673469387755102040816327
_K15_PAIRS = (
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
)
_PANEL_EVALS = 1 + 2 * len(_K15_PAIRS)  # 15 integrand calls
# recursive summation errs by at most about u = 2^-53 per addition times
# the magnitudes summed: the running sums by (additions) u, an exact re-sum
# of P panels by (P - 1) u.  8u per addition and panel covers both twice
# over and the rounding of the gate's own arithmetic.
_SUM_SLACK = 8.0 * 2.0 ** -53


class QuadratureRule(namedtuple("QuadratureRule", "nodes weights")):
    """Nodes and weights of a Gauss rule, as read-only numpy arrays.

    Weights absorb the weight function, so ``sum(w_i * f(x_i))``
    approximates the integral of ``f`` times the Gaussian weight
    (``exp(-t)`` on (0, inf) for Laguerre, ``exp(-x^2)`` on R for Hermite).
    """

    __slots__ = ()


class IntegralResult(namedtuple("IntegralResult", "value abs_error_estimate nodes_used")):
    """An integral's ``value`` (float or complex), its ``abs_error_estimate``,
    and its cost ``nodes_used`` in integrand evaluations."""

    __slots__ = ()


def _christoffel_weights(nodes, diag, offdiag, mu0):
    # w(x) = 1 / sum_j p_j(x)^2 over the orthonormal polynomials p_j of the
    # measure, run at every node at once: tiny weights stay relatively
    # accurate, which the eigenvector-squared formula cannot deliver.  At the
    # caps (Hermite 200, Laguerre 64) the largest |p_j| is 2^268.5 resp. 2^166
    # and the smallest weight 2.2e-163 resp. 2.1e-101, a normal double.
    import numpy as np

    p_prev = np.zeros_like(nodes)
    p_cur = np.full_like(nodes, 1.0 / math.sqrt(mu0))
    total = p_cur * p_cur
    for j in range(len(diag) - 1):
        p_next = ((nodes - diag[j]) * p_cur - (offdiag[j - 1] if j > 0 else 0.0) * p_prev) / offdiag[j]
        p_prev, p_cur = p_cur, p_next
        total += p_cur * p_cur
    return 1.0 / total


def _golub_welsch(diag, offdiag, mu0) -> QuadratureRule:
    import numpy as np

    # off-diagonals written in place: summing np.diag matrices would hold
    # three n x n matrices at once, 320 kB each at n = 200
    n = len(diag)
    jacobi = np.diag(diag)
    jacobi.flat[1::n + 1] = jacobi.flat[n::n + 1] = offdiag
    nodes = np.linalg.eigvalsh(jacobi)
    weights = _christoffel_weights(nodes, diag, offdiag, mu0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)


@lru_cache(maxsize=32)
def gauss_laguerre(n: int) -> QuadratureRule:
    """n-point Gauss-Laguerre rule: exact for deg <= 2n-1 against exp(-t) on (0, inf).

    Nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    (diagonal 2k+1, off-diagonal k); weights come from the Christoffel
    function at each node.  Deterministic for fixed ``n``.
    """
    # 64: the largest order of its only callers, verify's checks of the rule
    n = check_order("gauss_laguerre", "n", n, 1, 64)
    diag = [2.0 * k + 1.0 for k in range(n)]
    offdiag = [float(k) for k in range(1, n)]
    return _golub_welsch(diag, offdiag, 1.0)


@lru_cache(maxsize=32)
def gauss_hermite(n: int) -> QuadratureRule:
    """n-point Gauss-Hermite rule: exact for deg <= 2n-1 against exp(-x^2) on R."""
    n = check_order("gauss_hermite", "n", n, 1, GAUSS_N_MAX)
    diag = [0.0] * n
    offdiag = [math.sqrt(0.5 * k) for k in range(1, n)]
    return _golub_welsch(diag, offdiag, math.sqrt(math.pi))


@lru_cache(maxsize=512)
def _panel_table(node, a, b):
    # node(t, (1-u)^2) at the K15 nodes of the panel (a, b) of the unit
    # interval, t = u/(1-u), each row followed by its K15 and G7 weights: the
    # centre's, then node(t-, j-) + node(t+, j+) + (wk, wg) per _K15_PAIRS
    # entry; None where a node rounds to u = 1, where u/(1-u) divides by zero.
    # Bisection makes the same dyadic panels recur across calls, so each is
    # built once per node function, a module-level one so that it recurs too.
    # The loop's freeze test reads the table its next panel will sum
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    r = 1.0 - mid
    pairs = []
    try:
        centre = node(mid / r, r * r) + (_K15_CENTER_W, _G7_CENTER_W)
        for x, wk, wg in _K15_PAIRS:
            lo, hi = mid - half * x, mid + half * x
            rlo, rhi = 1.0 - lo, 1.0 - hi
            pairs.append(node(lo / rlo, rlo * rlo) + node(hi / rhi, rhi * rhi) + (wk, wg))
    except ZeroDivisionError:
        return None
    return centre, tuple(pairs)


def _bare(t, j):
    return t, j


def _overflowed(t):
    return AccuracyError(f"integrand overflowed at t={t!r}")


def _panel_estimates(f, table):
    # the K15 and G7 sums of f on a panel from its _bare table, in Python
    # floats or complexes; every panel function sums its nodes in this order
    (t, j, wk, wg), pairs = table
    try:
        centre = f(t) / j
        kronrod = wk * centre
        gauss = wg * centre
        for t, jm, tp, jp, wk, wg in pairs:
            pair = f(t) / jm
            t = tp
            pair += f(t) / jp
            kronrod += wk * pair
            gauss += wg * pair
    except (OverflowError, ZeroDivisionError) as exc:
        raise _overflowed(t) from exc
    return kronrod, gauss


def integrate_semi_infinite(f, tol: float = 1e-12) -> IntegralResult:
    """Integrate ``f`` over (0, inf) adaptively to relative tolerance ``tol``.

    The substitution t = u/(1-u) maps the half line to (0, 1); the unit
    interval is then covered by Gauss-Kronrod panels (QUADPACK's qk15: the
    7-point Gauss rule nested in the 15-point Kronrod rule, 15 integrand
    calls a panel).  A panel's value is its Kronrod sum and its error
    estimate the raw difference |K15 - G7|; the worst panel is bisected
    until the summed estimates drop below ``tol * |value|``.  Endpoints are
    never sampled.  A panel narrower than 1e-15 in u is never bisected;
    its value and error estimate stay in the sums, and once the error of
    such panels alone exceeds ``tol * |value|`` the call raises
    :class:`AccuracyError` ("refinement floor reached").  An endpoint
    singularity can reach that floor: ``t ** -0.5 * exp(-t)`` does at
    tol 1e-10.  So can a slowly decaying tail: a panel whose bisection
    would put a node at u = 1, where t = u/(1-u) divides by zero, is
    frozen the same way, so ``(1 + t) ** -1.3`` raises there.

    The stopping test reads exact re-sums over all panels.  A step skips
    them while running totals of the values and error estimates fail the
    test by more than their rounding bound, 8u (additions + panels) times
    the magnitudes summed (u = 2^-53): the re-sums would fail it too, so
    the result is the same as re-summing on every step.

    ``f`` receives Python floats, so Python's float arithmetic rules apply
    inside it: ``t ** n`` past the double range raises ``OverflowError``
    and a division by zero raises ``ZeroDivisionError``.  Either one ends
    the integration at once with :class:`AccuracyError` ("integrand
    overflowed at t=...", chained from the original exception).  So does
    an integrand value that is inf or nan, or a panel sum that overflows
    ("integrand produced non-finite values").

    Returns an :class:`IntegralResult`.  Both give-ups, the floor and a
    budget of 100 000 integrand evaluations, raise :class:`AccuracyError`
    carrying the best estimate, with every panel's error counted.
    """
    return _integrate_panels(partial(_panel_estimates, f), _bare, tol)


def _integrate_panels(sums, node, tol):
    # integrate_semi_infinite's adaptive loop on any node function and
    # panel function sums(_panel_table(node, a, b)) -> (K15 sum, G7 sum) of
    # the panel (a, b) of the unit interval, summed as _panel_estimates sums
    # them; a panel's value and error estimate, and the test that they are
    # finite, are made here only.  Callers with panels of their own keep its
    # messages, so they name it
    check_tol("integrate_semi_infinite", tol)

    panels = []  # (-err, seq, a, b, value)
    frozen = []  # popped panels too narrow to bisect: never bisected, still counted
    seq = 0  # panels evaluated, each at _PANEL_EVALS nodes
    # running sums over panels + frozen; abs_val sums |value| over every
    # panel they ever held, abs_err the error estimates since the last
    # exact re-sum, and ops counts the additions since then
    run_val = run_err = abs_val = abs_err = 0.0
    ops = 0
    push, inf = heapq.heappush, math.inf
    new = [(i / 8, (i + 1) / 8) for i in range(8)]  # the initial panels
    while True:
        for a, b in new:
            kronrod, gauss = sums(_panel_table(node, a, b))
            half = 0.5 * (b - a)
            err = abs(half * (kronrod - gauss))
            if not err < inf:  # err = |...| fails this exactly when inf or nan
                raise AccuracyError("integrand produced non-finite values")
            val = half * kronrod
            push(panels, (-err, seq, a, b, val))
            seq += 1
            run_val += val
            run_err += err
            abs_val += abs(val)
            abs_err += err
            ops += 1

        # the running sums lie within slack * abs_* of the exact re-sums
        # below, so while they fail the stopping test by more than that, the
        # re-sums would fail it too and are skipped
        slack = _SUM_SLACK * (ops + len(panels))
        evals = seq * _PANEL_EVALS
        if frozen or evals >= _MAX_EVALS or not (
                run_err - slack * abs_err > tol * (abs(run_val) + slack * abs_val)):
            counted = panels + frozen
            total = sum(p[4] for p in counted)
            total_err = sum(-p[0] for p in counted)
            if total_err <= tol * abs(total):
                return IntegralResult(total, total_err, evals)
            if frozen and sum(-p[0] for p in frozen) > tol * abs(total):
                raise AccuracyError(
                    f"refinement floor reached (error estimate {total_err:.3e})",
                    result=IntegralResult(total, total_err, evals))
            if evals >= _MAX_EVALS:
                raise AccuracyError(
                    f"node budget {_MAX_EVALS} exhausted (error estimate {total_err:.3e})",
                    result=IntegralResult(total, total_err, evals))
            # restart the running sums from the re-sums, which err by at
            # most (P - 1) u times abs_val and total_err respectively
            run_val, run_err, abs_err, ops = total, total_err, total_err, 0
        popped = heapq.heappop(panels)
        neg_err, _, a, b, val = popped
        mid = 0.5 * (a + b)
        if b - a < 1e-15 or _panel_table(node, mid, b) is None:
            frozen.append(popped)
            new = ()
            continue
        run_val -= val
        run_err += neg_err
        ops += 1
        new = ((a, mid), (mid, b))


def wirtinger_fd(F, z: complex, h: float = 1e-5) -> complex:
    """Central-difference approximation of (d/d conj(z)) F at ``z``.

    Uses the four-point stencil
    0.5 * [(F(z+h) - F(z-h)) / (2h) + i (F(z+ih) - F(z-ih)) / (2h)],
    which is O(h^2) accurate for C^3 integrands.
    """
    if not 0.0 < h <= 1e-3:
        raise ConfigurationError(f"wirtinger_fd: h must be in (0, 1e-3], got {h}")
    dx = (F(z + h) - F(z - h)) / (2.0 * h)
    dy = (F(z + 1j * h) - F(z - 1j * h)) / (2.0 * h)
    return 0.5 * (dx + 1j * dy)


def disk_point(rng, radius: float) -> complex:
    """A point uniform on the disk |z| <= radius, drawn from ``rng``.

    Draws the radius, then the angle; the seeded point sets of the CLI, the
    verify suites and the kernel-class audits depend on that order.
    """
    r = radius * math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return complex(r * math.cos(theta), r * math.sin(theta))


_REAL, _IMAG = attrgetter("real"), attrgetter("imag")


def csum(terms) -> float | complex:
    """Compensated sum of an iterable of floats or complex numbers."""
    terms = list(terms)
    if any(isinstance(t, complex) for t in terms):
        return complex(math.fsum(map(_REAL, terms)), math.fsum(map(_IMAG, terms)))
    return math.fsum(terms)
