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
from collections import namedtuple

from . import moments
from .errors import AccuracyError, ConfigurationError, DomainError, ValidationError, check_order
from .numerics import csum

_LOG8 = math.log(8.0)
_MIN_NORMAL = 2.0 ** -1022  # the smallest normal double
_E700 = math.exp(700.0)
_TRUNC_CAP = 4000
_MAX_GRAM_POINTS = 200


def _horner(coeffs, z) -> complex:  # sum_j coeffs[j] z^j
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


class EntireSeries(namedtuple("EntireSeries", "coeffs")):
    """Finitely supported coefficient sequence ``coeffs`` (a tuple of complex)
    of an entire function: at least one coefficient, degree at most N_MAX."""

    __slots__ = ()

    def __new__(cls, coeffs):
        check_order("EntireSeries", "degree", len(coeffs) - 1, 0, moments.N_MAX)
        return super().__new__(cls, tuple(complex(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        return _horner(self.coeffs, z)

    @staticmethod
    def monomial(n: int, scale: complex = 1.0) -> "EntireSeries":
        n = check_order("monomial", "n", n, 0, moments.N_MAX)
        return EntireSeries((0j,) * n + (complex(scale),))

    @staticmethod
    def basis_element(n: int) -> "EntireSeries":
        """e_n = z^n / sqrt(eta_n), a unit vector of the space."""
        scale = math.exp(-0.5 * moments.log_eta(n))
        return EntireSeries.monomial(n, scale)

    @staticmethod
    def exponential(w: complex, degree: int) -> "EntireSeries":
        """Truncation of z -> exp(z * conj(w)) at the given degree."""
        degree = check_order("exponential", "degree", degree, 0, moments.N_MAX)
        wc = complex(w).conjugate()
        coeffs, c = [], 1.0 + 0j
        for j in range(degree + 1):
            coeffs.append(c)
            c = c * wc / (j + 1)
        return EntireSeries(tuple(coeffs))


def _trunc_index(abs_z: float, tol: float) -> int:
    # tail of sum z^n/eta_n after N is below 8 (2|z|)^{N+1}/(N+1)! e^{2|z|}
    if not abs_z < math.inf:
        raise DomainError(f"efun: requires a finite argument, got |z|={abs_z}")
    n = moments._factorial_tail_order("efun", _LOG8, 2.0 * abs_z, 1.0, 2.0 * abs_z, tol,
                                      0, _TRUNC_CAP)
    if n is None:
        raise AccuracyError(f"efun: truncation bound not reached for |z|={abs_z}")
    return n


def _kernel_terms(q: complex, n_max: int) -> list[complex]:
    """q^n / eta_n for n = 0..n_max, built by stable ratio updates."""
    ratios = moments._table(n_max).ratios
    term = ratios[0] + 0j
    terms = [term]
    for ratio in ratios[1:n_max + 1]:
        term = term * q * ratio
        terms.append(term)
    return terms


def efun(z: complex, tol: float = 1e-12) -> complex:
    """The entire function sum_n z^n / eta_n with a certified truncation tail."""
    z = complex(z)
    terms = _kernel_terms(z, _trunc_index(abs(z), tol))
    return complex(math.fsum([t.real for t in terms]), math.fsum([t.imag for t in terms]))


def kernel(z: complex, w: complex, tol: float = 1e-12, ml_normalized: bool = False) -> complex:
    """Reproducing kernel K(z, w) = efun(z * conj(w)).

    With ``ml_normalized`` the value is scaled by eta_0 so that the section
    w -> eta_0 K(., w) takes the value 1 at the origin.
    """
    val = efun(complex(z) * complex(w).conjugate(), tol)
    if ml_normalized:
        val *= moments.eta_closed_form(0)
    return val


def _weighted_sum(log_w, a, b) -> tuple[float | complex, int]:
    """sum_n exp(log_w[n]) a_n conj(b_n) as (m, k), the sum being m e^k.

    While every product a_n conj(b_n) is a normal double and every weight
    and term is below e^700 (no sum of N_MAX + 1 such terms overflows), k = 0
    and m is the compensated sum of ``math.exp(log_w[n]) * (a_n * conj(b_n))``.
    Otherwise each term is formed in log scale, log_w[n] + log|a_n| +
    log|b_n|, less the integer k that puts the largest near e^600.
    """
    terms = []
    for lw, x, y in zip(log_w, a, b):
        if x and y:
            p = x * y.conjugate()
            w = math.exp(lw) if lw < 700.0 else math.inf
            if not (_MIN_NORMAL <= abs(p) and _MIN_NORMAL <= w * abs(p) < _E700):
                break
            terms.append(w * p)
    else:
        return csum(terms), 0
    logs = [(lw + math.log(abs(x)) + math.log(abs(y)), x / abs(x) * (y / abs(y)).conjugate())
            for lw, x, y in zip(log_w, a, b) if x and y]
    top = max(lt for lt, _ in logs)
    if not top < math.inf:
        raise AccuracyError("a coefficient's modulus is not a finite double")
    k = math.floor(top) - 600
    return csum([math.exp(lt - k) * phase for lt, phase in logs]), k


def _times_exp(x, e: float, name: str):
    # x e^e, in steps of at most e^700; AccuracyError where a nonzero value
    # leaves the normal double range
    if not (x and e):
        return x
    y = x * math.exp(math.fmod(e, 700.0))
    for _ in range(int(abs(e) // 700.0)):
        y *= math.exp(math.copysign(700.0, e))
    if not _MIN_NORMAL <= abs(y) < math.inf:
        raise AccuracyError(f"{name}: the value leaves the double range "
                            f"(log modulus {math.log(abs(x)) + e:.6g})")
    return y


def _norm(log_w, f: EntireSeries, name: str) -> float:
    # rooted before the rescaling: ||z^180|| ~ 2.5e162, though its square overflows
    m, k = _weighted_sum(log_w, f.coeffs, f.coeffs)
    return _times_exp(math.sqrt(max(m.real, 0.0)), 0.5 * k, name)


def h_inner(f: EntireSeries, g: EntireSeries) -> complex:
    """Inner product sum_n eta_n a_n conj(b_n); :class:`AccuracyError` where
    the value is past the double range, or nonzero and below its normal range."""
    m, k = _weighted_sum(moments.log_eta_sequence(min(f.degree, g.degree)), f.coeffs, g.coeffs)
    return complex(_times_exp(m, k, "h_inner"))


def h_norm(f: EntireSeries) -> float:
    return _norm(moments.log_eta_sequence(f.degree), f, "h_norm")


def fock_norm(f: EntireSeries) -> float:
    """Norm with weights n! instead of eta_n (the containing Gaussian space),
    summed and range-checked as :func:`h_inner`: sqrt(200!) ~ 2.8e187 is returned."""
    return _norm(moments._table(f.degree).log_factorial, f, "fock_norm")


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
    """(<f, K_z>, f(z)); the two agree to rounding by the reproducing property.

    Raises :class:`AccuracyError` where doubles cannot hold the two sides:
    f(z) is not finite, or a coefficient conj(z)^n / eta_n of K_z that meets
    a nonzero a_n falls below the normal range (a z of 0 gives exact zeros).
    """
    if f.degree > 1000:
        raise ConfigurationError("reproducing_check: degree capped at 1000")
    z = complex(z)
    # coefficients of K_z: conj(z)^n / eta_n
    kz_terms = _kernel_terms(z.conjugate(), f.degree)
    direct = f(z)
    if not cmath.isfinite(direct) or z and any(
            c and abs(k) < _MIN_NORMAL for c, k in zip(f.coeffs, kz_terms)):
        raise AccuracyError(
            f"reproducing_check: f(z) or a coefficient of K_z leaves the double range at z={z!r}")
    return h_inner(f, EntireSeries(tuple(kz_terms))), direct


class GramMatrix(namedtuple("GramMatrix", "points entries min_eig trace")):
    """Hermitian kernel matrix ``entries`` (numpy) over the tuple ``points``,
    with the PSD diagnostics ``min_eig`` and ``trace``."""

    __slots__ = ()

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
    if not all(map(cmath.isfinite, points)):
        raise ConfigurationError("build_gram: every point must be finite")
    return points


def build_gram(points, entry_fn) -> GramMatrix:
    """Gram matrix of any kernel from one elementwise ``entry_fn(z, w)`` call.

    ``z`` and ``w`` are the complex arrays of all upper-triangle pairs,
    diagonal included; the values go above the diagonal and their conjugates
    below it and on it.  The matrix must be Hermitian to 1e-12 entrywise
    (relative to the largest entry magnitude, with an absolute floor of 1),
    which leaves only the diagonal to check: twice the imaginary part of each
    diagonal value is its deviation.  A value that is not a finite double
    raises :class:`AccuracyError`.
    """
    import numpy as np

    points = _gram_points(points)
    m = len(points)
    z = np.array(points)
    iu, ju = np.triu_indices(m)
    v = np.asarray(entry_fn(z[iu], z[ju]), dtype=complex)
    if v.shape != iu.shape:
        raise ValidationError(
            f"build_gram: entry_fn must map {iu.shape} point arrays to values of that shape, "
            f"got {v.shape}")
    if not np.isfinite(v).all():
        raise AccuracyError("build_gram: entry_fn returned a value that is not a finite double")
    M = np.empty((m, m), dtype=complex)
    M[iu, ju] = v
    M[ju, iu] = v.conj()
    # M - M^H is 0 off the diagonal and conj(v) - v on it
    d = M.diagonal()
    drift = float(np.max(np.abs(d - d.conj())))
    if drift > 1e-12 * max(1.0, float(np.max(np.abs(v)))):
        raise ValidationError(
            f"build_gram: matrix is not Hermitian (max deviation {drift:.3e})")
    return GramMatrix(points=points, entries=M, min_eig=float(np.linalg.eigvalsh(M)[0]),
                      trace=float(M.trace().real))


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
    import numpy as np

    points = _gram_points(points)
    z = np.array(points)
    log_c = np.asarray(log_coeffs(max(abs(p) for p in points) ** 2), dtype=float)
    # column k is column k-1 times z sqrt(c_k / c_{k-1}): the ratio updates of
    # _kernel_terms, which stay finite where z^k or c_k alone would not
    B = np.empty((len(points), len(log_c)), dtype=complex)
    B[:, 0] = math.exp(0.5 * log_c[0])
    B[:, 1:] = np.outer(z, np.exp(0.5 * np.diff(log_c)))
    np.cumprod(B, axis=1, out=B)
    # assembled in place; += 0.0 turns each -0.0 part to +0.0, as in upper + upper^H + diag(d)
    M = np.triu(B @ B.conj().T, 1)
    M += M.conj().T
    M += 0.0
    diag = np.sum(B.real ** 2 + B.imag ** 2, axis=1)
    np.fill_diagonal(M, diag)
    # the singular values of B are those of the triangle R of B^T = QR
    min_eig = 0.0 if B.shape[0] > B.shape[1] else \
        float(np.linalg.svd(np.linalg.qr(B.T, mode="r"), compute_uv=False)[-1]) ** 2
    return GramMatrix(points=points, entries=M, min_eig=min_eig, trace=float(np.sum(diag)))


def _kernel_log_coeffs(r: float, tol: float = 1e-12) -> list[float]:
    """log c_k = -log eta_k of K, k <= N: efun's cut at |z| = r and kernel's default tol."""
    return [-v for v in moments.log_eta_sequence(_trunc_index(r, tol))]


def gram_kernel(points, tol: float = 1e-12) -> GramMatrix:
    """Gram matrix of the reproducing kernel on a point set, c_k = 1/eta_k."""
    return _diagonal_gram(points, lambda r: _kernel_log_coeffs(r, tol))

