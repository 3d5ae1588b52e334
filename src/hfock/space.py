"""The weighted Fock-type space of entire functions with norm
(1/pi) integral of |g|^2 (1+|z|^2)^{-2} exp(-|z|^2).

Monomials are orthogonal with ||z^n||^2 = eta_n, so every norm, inner
product and kernel here reduces to the moment sequence.  The reciprocal
moment series efun(z) = sum z^n / eta_n is entire, squeezed between e^r and
8 e^{2r} on the positive axis, and K(z, w) = efun(z * conj(w)) reproduces
point evaluation.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import moments
from .errors import AccuracyError, ConfigurationError, ValidationError
from .numerics import csum, min_eig_hermitian

_LOG8 = math.log(8.0)
_TRUNC_CAP = 4000
_MAX_GRAM_POINTS = 200


@dataclass(frozen=True)
class EntireSeries:
    """Finitely supported coefficient sequence of an entire function."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coeffs) - 1 > moments.N_MAX:
            raise ConfigurationError(f"EntireSeries: degree capped at {moments.N_MAX}")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    @staticmethod
    def monomial(n: int, scale: complex = 1.0) -> "EntireSeries":
        return EntireSeries((0j,) * n + (complex(scale),))

    @staticmethod
    def basis_element(n: int) -> "EntireSeries":
        """e_n = z^n / sqrt(eta_n), a unit vector of the space."""
        scale = math.exp(-0.5 * moments.log_eta(n))
        return EntireSeries.monomial(n, scale)

    @staticmethod
    def exponential(w: complex, degree: int) -> "EntireSeries":
        """Truncation of z -> exp(z * conj(w)) at the given degree."""
        wc = complex(w).conjugate()
        coeffs, c = [], 1.0 + 0j
        for j in range(degree + 1):
            coeffs.append(c)
            c = c * wc / (j + 1)
        return EntireSeries(tuple(coeffs))


def _trunc_index(abs_z: float, tol: float) -> int:
    # tail of sum z^n/eta_n after N is below 8 (2|z|)^{N+1}/(N+1)! e^{2|z|}
    if tol <= 0.0:
        raise ConfigurationError(f"efun: tol must be > 0, got {tol}")
    if abs_z == 0.0:
        return 0
    target = math.log(tol)
    l2z = math.log(2.0 * abs_z)
    for n in range(_TRUNC_CAP):
        if _LOG8 + (n + 1) * l2z - math.lgamma(n + 2) + 2.0 * abs_z < target:
            return n
    raise AccuracyError(f"efun: truncation bound not reached for |z|={abs_z}")


def _kernel_terms(q: complex, n_max: int) -> list[complex]:
    """q^n / eta_n for n = 0..n_max, built by stable ratio updates."""
    logs = moments.log_eta_sequence(n_max)
    terms = [math.exp(-logs[0]) + 0j]
    for n in range(1, n_max + 1):
        terms.append(terms[-1] * q * math.exp(logs[n - 1] - logs[n]))
    return terms


def efun(z: complex, tol: float = 1e-12) -> complex:
    """The entire function sum_n z^n / eta_n with a certified truncation tail."""
    z = complex(z)
    return csum(_kernel_terms(z, _trunc_index(abs(z), tol)))


def kernel(z: complex, w: complex, tol: float = 1e-12, ml_normalized: bool = False) -> complex:
    """Reproducing kernel K(z, w) = efun(z * conj(w)).

    With ``ml_normalized`` the value is scaled by eta_0 so that the section
    w -> eta_0 K(., w) takes the value 1 at the origin.
    """
    val = efun(complex(z) * complex(w).conjugate(), tol)
    if ml_normalized:
        val *= moments.eta_closed_form(0)
    return val


def _eta_weighted_terms(pairs, log_weights):
    # pairs: iterable of (n, complex product); weight exp(log_weights[n])
    terms = []
    for n, p in pairs:
        if p == 0:
            continue
        lw = log_weights[n]
        if lw < 700.0 and abs(p) < 1e290:
            terms.append(math.exp(lw) * p)
        else:
            ltot = lw + math.log(abs(p))
            terms.append(cmath.exp(ltot) * (p / abs(p)))
    return terms


def h_inner(f: EntireSeries, g: EntireSeries) -> complex:
    """Inner product sum_n eta_n a_n conj(b_n)."""
    deg = min(f.degree, g.degree)
    logs = moments.log_eta_sequence(deg)
    pairs = ((n, f.coeffs[n] * g.coeffs[n].conjugate()) for n in range(deg + 1))
    terms = _eta_weighted_terms(pairs, logs)
    val = csum(terms) if terms else 0.0
    return complex(val)


def h_norm(f: EntireSeries) -> float:
    return math.sqrt(max(h_inner(f, f).real, 0.0))


def fock_norm(f: EntireSeries) -> float:
    """Norm with weights n! instead of eta_n (the containing Gaussian space)."""
    logs = [math.lgamma(n + 1) for n in range(f.degree + 1)]
    pairs = ((n, f.coeffs[n] * f.coeffs[n].conjugate()) for n in range(f.degree + 1))
    val = csum(_eta_weighted_terms(pairs, logs)) or 0.0
    return math.sqrt(max(complex(val).real, 0.0))


def norm_sq_by_quadrature(f: EntireSeries) -> float:
    """||f||^2 by per-monomial quadrature; the independent witness for h_inner.

    Cross terms vanish exactly (the angular integral of e^{i(n-m)theta} is
    zero), so the norm reduces to sum |a_n|^2 * integral of
    t^n exp(-t)/(1+t)^2, with each integral evaluated afresh, to relative
    tolerance 1e-11, rather than taken from the moment table.
    """
    if f.degree > 50:
        raise ConfigurationError(f"norm_sq_by_quadrature: degree capped at 50, got {f.degree}")
    total = 0.0
    for n, a in enumerate(f.coeffs):
        if a == 0:
            continue
        total += abs(a) ** 2 * moments.eta_quadrature(n, 1e-11)
    return total


def reproducing_check(f: EntireSeries, z: complex) -> tuple[complex, complex]:
    """(<f, K_z>, f(z)); the two agree to rounding by the reproducing property."""
    if f.degree > 1000:
        raise ConfigurationError("reproducing_check: degree capped at 1000")
    z = complex(z)
    # coefficients of K_z: conj(z)^n / eta_n
    kz_series = EntireSeries(tuple(_kernel_terms(z.conjugate(), f.degree)))
    return h_inner(f, kz_series), f(z)


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian kernel matrix over a point set with PSD diagnostics."""

    points: tuple[complex, ...]
    entries: np.ndarray = field(repr=False)
    min_eig: float
    trace: float

    def is_psd(self) -> bool:
        return self.min_eig >= -1e-8 * max(self.trace, 0.0) - 1e-300

    def as_json_obj(self) -> dict:
        return {
            "points": [[p.real, p.imag] for p in self.points],
            "matrix": [[[v.real, v.imag] for v in row] for row in self.entries.tolist()],
            "min_eig": self.min_eig,
            "trace": self.trace,
            "verdict": "psd" if self.is_psd() else "indefinite",
        }


def _gram_points(points) -> tuple[complex, ...]:
    points = tuple(complex(p) for p in points)
    if not points:
        raise ConfigurationError("build_gram: need at least one point")
    if len(points) > _MAX_GRAM_POINTS:
        raise ConfigurationError(f"build_gram: at most {_MAX_GRAM_POINTS} points, got {len(points)}")
    return points


def build_gram(points, entry_fn) -> GramMatrix:
    """Gram matrix of any kernel from one elementwise ``entry_fn(z, w)`` call.

    ``z`` and ``w`` are the complex arrays of all upper-triangle pairs,
    diagonal included; the values go above the diagonal and their conjugates
    below it and on it.
    """
    points = _gram_points(points)
    m = len(points)
    z = np.array(points)
    iu, ju = np.triu_indices(m)
    v = np.asarray(entry_fn(z[iu], z[ju]), dtype=complex)
    if v.shape != iu.shape:
        raise ValidationError(
            f"build_gram: entry_fn must map {iu.shape} point arrays to values of that shape, "
            f"got {v.shape}")
    M = np.empty((m, m), dtype=complex)
    M[iu, ju] = v
    M[ju, iu] = v.conj()
    return GramMatrix(points=points, entries=M,
                      min_eig=min_eig_hermitian(M), trace=float(M.trace().real))


def _diagonal_gram(points, log_coeffs) -> GramMatrix:
    """Gram matrix of a kernel sum_k c_k (z conj w)^k with c_k > 0, as B B^H
    where B[i, k] = z_i^k sqrt(c_k).

    ``log_coeffs(r)`` returns log c_0 .. log c_N, with N large enough that
    the kernel's truncation tail at |z conj w| = r meets its tolerance; r is
    the largest |z_i|^2 of the set, so every entry keeps that tail.  The
    matrix is exactly Hermitian, its diagonal is the real sum_k |B_ik|^2,
    and min_eig is sigma_min(B)^2: the smallest eigenvalue of the exact
    product B B^H, never negative, and 0 when there are more points than
    terms.
    """
    points = _gram_points(points)
    z = np.array(points)
    log_c = np.asarray(log_coeffs(max(abs(p) for p in points) ** 2), dtype=float)
    # column k is column k-1 times z sqrt(c_k / c_{k-1}): the ratio updates of
    # _kernel_terms, which stay finite where z^k or c_k alone would not
    B = np.empty((len(points), len(log_c)), dtype=complex)
    B[:, 0] = math.exp(0.5 * log_c[0])
    B[:, 1:] = np.outer(z, np.exp(0.5 * np.diff(log_c)))
    np.cumprod(B, axis=1, out=B)
    upper = np.triu(B @ B.conj().T, 1)
    diag = np.sum(B.real ** 2 + B.imag ** 2, axis=1)
    M = upper + upper.conj().T + np.diag(diag)
    # the singular values of B are those of the triangle R of B^T = QR
    min_eig = 0.0 if B.shape[0] > B.shape[1] else \
        float(np.linalg.svd(np.linalg.qr(B.T, mode="r"), compute_uv=False)[-1]) ** 2
    return GramMatrix(points=points, entries=M, min_eig=min_eig, trace=float(np.sum(diag)))


def gram_kernel(points, tol: float = 1e-12) -> GramMatrix:
    """Gram matrix of the reproducing kernel on a point set, c_k = 1/eta_k."""
    return _diagonal_gram(
        points, lambda r: -np.array(moments.log_eta_sequence(_trunc_index(r, tol))))

