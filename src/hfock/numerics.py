"""Shared numerical substrate.

Gauss-Laguerre and Gauss-Hermite rules (Golub-Welsch on the Jacobi matrix),
an adaptive integrator for absolutely convergent integrals on (0, inf),
a guarded smallest-eigenvalue routine for Hermitian matrices, central
finite differences for the Wirtinger derivative d/d(conj z), and a seeded
uniform sampler of the disk.

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

# panel pair for the adaptive integrator: embedded Gauss-Legendre estimates
_GL_LO_X, _GL_LO_W = np.polynomial.legendre.leggauss(8)
_GL_HI_X, _GL_HI_W = np.polynomial.legendre.leggauss(16)


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

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


@dataclass(frozen=True)
class IntegralResult:
    """Value of an integral together with an error estimate and cost."""

    value: float | complex
    abs_error_estimate: float
    nodes_used: int


def _christoffel_weight(x, diag, offdiag, mu0):
    # w(x) = 1 / sum_j p_j(x)^2 over the orthonormal polynomials p_j of the
    # measure; evaluated with exponent tracking because p_j blows up like
    # exp(x/2) (Laguerre) resp. exp(x^2/2) (Hermite) at extreme nodes.
    # Relative accuracy survives even where the weight itself is subnormal,
    # which the eigenvector-squared formula cannot deliver in double
    # precision.
    n = len(diag)
    p_prev = 0.0
    p_cur = 1.0 / math.sqrt(mu0)
    total = p_cur * p_cur
    shift = 0  # true sum = total * 2^shift
    for j in range(n - 1):
        p_next = ((x - diag[j]) * p_cur - (offdiag[j - 1] if j > 0 else 0.0) * p_prev) / offdiag[j]
        p_prev, p_cur = p_cur, p_next
        total += p_cur * p_cur
        if abs(p_cur) > 2.0 ** 300:
            p_prev = math.ldexp(p_prev, -600)
            p_cur = math.ldexp(p_cur, -600)
            total = math.ldexp(total, -1200)
            shift += 1200
    w = math.ldexp(1.0 / total, -shift)
    # true weights below the subnormal range are clamped to stay positive
    return w if w > 0.0 else 5e-324


def _golub_welsch(diag, offdiag, mu0, kind) -> QuadratureRule:
    n = len(diag)
    if n == 1:
        nodes = np.asarray(diag, dtype=float)
    else:
        jacobi = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
        nodes = np.linalg.eigvalsh(jacobi)
    weights = np.asarray([_christoffel_weight(x, diag, offdiag, mu0) for x in nodes])
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


def _panel_estimates(g, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    lo = half * np.sum(_GL_LO_W * np.asarray([g(mid + half * x) for x in _GL_LO_X]))
    hi = half * np.sum(_GL_HI_W * np.asarray([g(mid + half * x) for x in _GL_HI_X]))
    hi = complex(hi) if isinstance(hi, (complex, np.complexfloating)) else float(hi)
    return hi, float(abs(hi - lo))


def integrate_semi_infinite(f, tol: float = 1e-12, *,
                            max_evals: int = 2_000_000) -> IntegralResult:
    """Integrate ``f`` over (0, inf) adaptively to relative tolerance ``tol``.

    The substitution t = u/(1-u) maps the half line to (0, 1); the unit
    interval is then covered by panels carrying an embedded Gauss-Legendre
    pair (8 and 16 points), and the worst panel is bisected until the summed
    pair discrepancy drops below ``tol * |value|``.  Endpoints are
    never sampled, so integrable endpoint singularities and the decay of the
    integrand at infinity need no special casing.

    Returns an :class:`IntegralResult`; raises :class:`AccuracyError`
    (carrying the best estimate) if the budget is exhausted first.
    """
    if tol <= 0.0:
        raise ConfigurationError(f"integrate_semi_infinite: tol must be > 0, got {tol}")

    def g(u):
        r = 1.0 - u
        return f(u / r) / (r * r)

    n_init = 8
    panels = []  # (-err, seq, a, b, value)
    seq = 0
    evals = 0
    for i in range(n_init):
        a, b = i / n_init, (i + 1) / n_init
        val, err = _panel_estimates(g, a, b)
        evals += 24
        heapq.heappush(panels, (-err, seq, a, b, val))
        seq += 1

    while True:
        total = sum(p[4] for p in panels)
        total_err = sum(-p[0] for p in panels)
        if not math.isfinite(total_err) and not any(
                math.isfinite(-p[0]) for p in panels if -p[0] > 0):
            raise AccuracyError("integrand produced non-finite values",
                                result=IntegralResult(total, math.inf, evals))
        if total_err <= tol * abs(total):
            return IntegralResult(total, total_err, evals)
        if evals >= max_evals:
            raise AccuracyError(
                f"node budget {max_evals} exhausted (error estimate {total_err:.3e})",
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
            val, err = _panel_estimates(g, lo, hi)
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
    entry magnitude, with an absolute floor of 1); it is symmetrized before
    the eigensolve so the result is real.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"min_eig_hermitian: expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M)))) if M.size else 1.0
    drift = float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0
    if drift > 1e-12 * scale:
        raise ValidationError(
            f"min_eig_hermitian: matrix is not Hermitian (max deviation {drift:.3e})")
    sym = 0.5 * (M + M.conj().T)
    return float(np.linalg.eigvalsh(sym)[0])


def csum(terms) -> float | complex:
    """Compensated sum of an iterable of floats or complex numbers."""
    terms = list(terms)
    if any(isinstance(t, complex) for t in terms):
        return complex(math.fsum(t.real for t in terms),
                       math.fsum(t.imag for t in terms))
    return math.fsum(terms)
