"""Shared numerical substrate.

Gauss-Laguerre and Gauss-Hermite rules (Golub-Welsch on the Jacobi matrix;
the Christoffel recurrence for the weights runs over all nodes at once,
with a per-node exponent shift), an adaptive integrator for absolutely
convergent integrals on (0, inf) that calls its integrand on Python floats
and raises AccuracyError at once when the integrand overflows or returns a
non-finite value, a guarded smallest-eigenvalue routine for Hermitian
matrices, central finite differences for the Wirtinger derivative
d/d(conj z), and a seeded uniform sampler of the disk.

Everything here is a pure function of its inputs; returned objects are
immutable and safe to share between threads.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, ConfigurationError, ValidationError

GAUSS_N_MAX = 512
_MAX_EVALS = 2_000_000  # integrand evaluations one integrate_semi_infinite call may spend

# panel pair for the adaptive integrator: embedded Gauss-Legendre estimates
_GL_LO_X, _GL_LO_W = np.polynomial.legendre.leggauss(8)
_GL_HI_X, _GL_HI_W = np.polynomial.legendre.leggauss(16)
# the 24 panel nodes as Python floats, so each node is plain float arithmetic
_GL_X = _GL_LO_X.tolist() + _GL_HI_X.tolist()


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gauss rule.

    Weights absorb the weight function, so ``sum(w_i * f(x_i))``
    approximates the integral of ``f`` times the Gaussian weight
    (``exp(-t)`` on (0, inf) for Laguerre, ``exp(-x^2)`` on R for Hermite).
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class IntegralResult:
    """Value of an integral together with an error estimate and cost."""

    value: float | complex
    abs_error_estimate: float
    nodes_used: int


def _christoffel_weights(nodes, diag, offdiag, mu0):
    # w(x) = 1 / sum_j p_j(x)^2 over the orthonormal polynomials p_j of the
    # measure, run at every node at once; evaluated with exponent tracking
    # because p_j blows up like exp(x/2) (Laguerre) resp. exp(x^2/2)
    # (Hermite) at extreme nodes, so each node keeps its own shift.
    # Relative accuracy survives even where the weight itself is subnormal,
    # which the eigenvector-squared formula cannot deliver in double
    # precision.
    p_prev = np.zeros_like(nodes)
    p_cur = np.full_like(nodes, 1.0 / math.sqrt(mu0))
    total = p_cur * p_cur
    shift = np.zeros(nodes.shape, dtype=int)  # true sum = total * 2^shift
    for j in range(len(diag) - 1):
        p_next = ((nodes - diag[j]) * p_cur - (offdiag[j - 1] if j > 0 else 0.0) * p_prev) / offdiag[j]
        p_prev, p_cur = p_cur, p_next
        total += p_cur * p_cur
        big = np.abs(p_cur) > 2.0 ** 300
        if big.any():
            p_prev = np.where(big, np.ldexp(p_prev, -600), p_prev)
            p_cur = np.where(big, np.ldexp(p_cur, -600), p_cur)
            total = np.where(big, np.ldexp(total, -1200), total)
            shift += 1200 * big
    w = np.ldexp(1.0 / total, -shift)
    # true weights below the subnormal range are clamped to stay positive
    return np.where(w > 0.0, w, 5e-324)


def _golub_welsch(diag, offdiag, mu0, kind) -> QuadratureRule:
    n = len(diag)
    if n == 1:
        nodes = np.asarray(diag, dtype=float)
    else:
        jacobi = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
        nodes = np.linalg.eigvalsh(jacobi)
    weights = _christoffel_weights(nodes, diag, offdiag, mu0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(kind=kind, nodes=nodes, weights=weights)


@lru_cache(maxsize=32)
def gauss_laguerre(n: int) -> QuadratureRule:
    """n-point Gauss-Laguerre rule: exact for deg <= 2n-1 against exp(-t) on (0, inf).

    Nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    (diagonal 2k+1, off-diagonal k); weights come from the Christoffel
    function at each node.  Deterministic for fixed ``n``.
    """
    if not 1 <= n <= GAUSS_N_MAX:
        raise ConfigurationError(f"gauss_laguerre: n must be in [1, {GAUSS_N_MAX}], got {n}")
    diag = [2.0 * k + 1.0 for k in range(n)]
    offdiag = [float(k) for k in range(1, n)]
    return _golub_welsch(diag, offdiag, 1.0, "laguerre")


@lru_cache(maxsize=32)
def gauss_hermite(n: int) -> QuadratureRule:
    """n-point Gauss-Hermite rule: exact for deg <= 2n-1 against exp(-x^2) on R."""
    if not 1 <= n <= GAUSS_N_MAX:
        raise ConfigurationError(f"gauss_hermite: n must be in [1, {GAUSS_N_MAX}], got {n}")
    diag = [0.0] * n
    offdiag = [math.sqrt(0.5 * k) for k in range(1, n)]
    return _golub_welsch(diag, offdiag, math.sqrt(math.pi), "hermite")


def _panel_estimates(f, a, b):
    # f on the panel (a, b) of the unit interval, through t = u/(1-u)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = []
    try:
        for x in _GL_X:
            u = mid + half * x
            r = 1.0 - u
            values.append(f(u / r) / (r * r))
    except (OverflowError, ZeroDivisionError) as exc:
        t = u / r if r else math.inf
        raise AccuracyError(f"integrand overflowed at t={t!r}") from exc
    arr = np.asarray(values)
    # both sums as Python scalars, so hi - lo of inf - inf is a plain nan
    scalar = complex if arr.dtype.kind == "c" else float
    lo = scalar(half * np.add.reduce(_GL_LO_W * arr[:8]))
    hi = scalar(half * np.add.reduce(_GL_HI_W * arr[8:]))
    err = abs(hi - lo)
    if not math.isfinite(err):
        raise AccuracyError("integrand produced non-finite values")
    return hi, err


def integrate_semi_infinite(f, tol: float = 1e-12) -> IntegralResult:
    """Integrate ``f`` over (0, inf) adaptively to relative tolerance ``tol``.

    The substitution t = u/(1-u) maps the half line to (0, 1); the unit
    interval is then covered by panels carrying an embedded Gauss-Legendre
    pair (8 and 16 points), and the worst panel is bisected until the summed
    pair discrepancy drops below ``tol * |value|``.  Endpoints are
    never sampled, so integrable endpoint singularities and the decay of the
    integrand at infinity need no special casing.

    ``f`` receives Python floats, so Python's float arithmetic rules apply
    inside it: ``t ** n`` past the double range raises ``OverflowError``
    and a division by zero raises ``ZeroDivisionError``.  Either one ends
    the integration at once with :class:`AccuracyError` ("integrand
    overflowed at t=...", chained from the original exception).  So does
    an integrand value that is inf or nan, or a panel sum that overflows
    ("integrand produced non-finite values").

    Returns an :class:`IntegralResult`; raises :class:`AccuracyError`
    (carrying the best estimate) if its budget of 2 000 000 integrand
    evaluations runs out first.
    """
    if tol <= 0.0:
        raise ConfigurationError(f"integrate_semi_infinite: tol must be > 0, got {tol}")

    n_init = 8
    panels = []  # (-err, seq, a, b, value)
    seq = 0
    evals = 0
    for i in range(n_init):
        a, b = i / n_init, (i + 1) / n_init
        val, err = _panel_estimates(f, a, b)
        evals += 24
        heapq.heappush(panels, (-err, seq, a, b, val))
        seq += 1

    while True:
        total = sum(p[4] for p in panels)
        total_err = sum(-p[0] for p in panels)
        if total_err <= tol * abs(total):
            return IntegralResult(total, total_err, evals)
        if evals >= _MAX_EVALS:
            raise AccuracyError(
                f"node budget {_MAX_EVALS} exhausted (error estimate {total_err:.3e})",
                result=IntegralResult(total, total_err, evals))
        neg_err, _, a, b, val = heapq.heappop(panels)
        if b - a < 1e-15:
            if neg_err == 0.0:
                # every remaining panel is frozen; report what we have
                heapq.heappush(panels, (neg_err, seq, a, b, val))
                total = sum(p[4] for p in panels)
                total_err = sum(-p[0] for p in panels)
                raise AccuracyError(
                    f"refinement floor reached (error estimate {total_err:.3e})",
                    result=IntegralResult(total, total_err, evals))
            # cannot refine further; freeze this panel's error contribution
            heapq.heappush(panels, (0.0, seq, a, b, val))
            seq += 1
            continue
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            val, err = _panel_estimates(f, lo, hi)
            evals += 24
            heapq.heappush(panels, (-err, seq, lo, hi, val))
            seq += 1


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


def min_eig_hermitian(M) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    The input must be Hermitian to 1e-12 entrywise (relative to the largest
    entry magnitude, with an absolute floor of 1).  The eigensolve reads
    only the lower triangle; that guard bounds how far the upper one departs
    from it.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"min_eig_hermitian: expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M)))) if M.size else 1.0
    drift = float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0
    if drift > 1e-12 * scale:
        raise ValidationError(
            f"min_eig_hermitian: matrix is not Hermitian (max deviation {drift:.3e})")
    return float(np.linalg.eigvalsh(M)[0])


def csum(terms) -> float | complex:
    """Compensated sum of an iterable of floats or complex numbers."""
    terms = list(terms)
    if any(isinstance(t, complex) for t in terms):
        return complex(math.fsum(t.real for t in terms),
                       math.fsum(t.imag for t in terms))
    return math.fsum(terms)
