"""Named verification suites, one per module invariant battery.

Each check returns a JSON-friendly dict {name, status, details}; a suite is
a sorted list of checks.  A check that holds a magnitude to a bound (the gap
between two routes, a residual) reports the worst one over everything it
samples under the check's detail key (``max_rel_gap``, ``max_gap``,
``abs_gap``, ...), and passes iff that worst gap is ``<= bound``; a NaN gap
is the worst gap, so it fails the check.  Suites are deterministic for a
fixed seed (random sampling uses Python's Mersenne Twister via
random.Random(seed)), so repeated runs produce byte-identical reports.
"""
from __future__ import annotations

import cmath
import math
import random

import numpy as np

from . import bargmann, dbar, expint, lerch, moments, space
from .errors import ConfigurationError
from .numerics import (disk_point, gauss_hermite, gauss_laguerre,
                       integrate_semi_infinite, min_eig_hermitian, wirtinger_fd)

# what the moments battery runs at when run() is given no nmax or points
_NMAX, _POINTS = 170, 20
# a dbar residual above this is a wrong solution, not stencil error
_DBAR_RESIDUAL_BOUND = 1e-6


def _check(name: str, ok: bool, **details) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "details": details}


def _within(name: str, bound: float, ok: bool = True, **gaps) -> dict:
    """The check ``name``: each keyword is a detail key and a sequence of gaps,
    consumed in full and in order.  Its worst gap (0.0 if there is none) is
    reported under that key; a NaN gap makes it NaN.  The check passes iff
    ``ok`` holds and every worst gap is ``<= bound``, so a NaN gap fails it."""
    details = {}
    for key, seq in gaps.items():
        worst = 0.0
        for gap in seq:
            if gap > worst or math.isnan(gap):
                worst = gap
        details[key] = worst
    return _check(name, ok and all(w <= bound for w in details.values()), **details)


def _rel_gap(got, ref) -> float:
    return abs(got - ref) / abs(ref)


def _mixed_gap(lhs, rhs) -> float:
    """|lhs - rhs| / (1 + |rhs|): relative where rhs is large, absolute where small."""
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def _random_series(rng: random.Random, degree: int) -> space.EntireSeries:
    return space.EntireSeries(tuple(disk_point(rng, 1.0) for _ in range(degree + 1)))


def _rule_moments(rule, orders) -> list[tuple[int, float]]:
    """(k, sum of weights * nodes^k) for each k in ``orders``."""
    return [(k, float(np.dot(rule.weights, rule.nodes ** k))) for k in orders]


def _laplace_gaps(ns, alphas, tol: float):
    """|laplace_en(n, a) - int_0^inf exp(-(a+1) t) e^t E_n(t) dt| by quadrature
    at ``tol``, over every n in ``ns`` and a in ``alphas``.  The alpha
    integrals of one n share most of their nodes, so e^t E_n(t) is computed
    once per distinct node."""
    for n in ns:
        scaled = {}  # t -> expint.en_scaled(n, t)

        def en(t):
            if t not in scaled:
                scaled[t] = expint.en_scaled(n, t)
            return scaled[t]

        for a in alphas:
            quad = integrate_semi_infinite(
                lambda t: math.exp(-(a + 1.0) * t) * en(t) if t > 0 else 0.0, tol).value
            yield abs(expint.laplace_en(n, a) - quad)


def _psd_sampling(name: str, samples) -> dict:
    """Factored Gram matrices that are PSD and agree with their scalar kernel.

    ``samples`` yields (gram, kernel, rng), where rng drew the gram's points and
    now draws 4 of its entries.  Each is held to the entry contract
    8192 u sqrt(K(z,z) K(w,w)) with u = 2^-53 (README, "Numerical notes"), so
    the scaled gap is at most 1 when the contract holds.  min_eig is
    sigma_min(B)^2 >= 0 by construction: the sampled entries, against the
    scalar kernel, are what can fail here."""
    psd, ratios, gaps = True, [0.0], []
    for g, kernel, rng in samples:
        psd = psd and g.is_psd()
        ratios.append(g.min_eig / g.trace)
        diag = g.entries.diagonal().real
        for _ in range(4):
            i, j = rng.randrange(len(g.points)), rng.randrange(len(g.points))
            gap = abs(complex(g.entries[i, j]) - kernel(g.points[i], g.points[j]))
            gaps.append(gap / (8192 * 2.0 ** -53 * math.sqrt(diag[i] * diag[j])))
    check = _within(name, 1.0, ok=psd, max_scaled_entry_gap=gaps)
    check["details"]["min_eig_over_trace"] = min(ratios)
    return check


# --------------------------------------------------------------------------
# numerics

def suite_numerics(seed: int = 0) -> list[dict]:
    rng = random.Random(seed)
    checks = [
        _within("laguerre-moment-reproduction", 1e-13, max_rel_gap=(
            _rel_gap(got, math.factorial(k)) for n in (1, 2, 3, 5, 8, 12, 20)
            for k, got in _rule_moments(gauss_laguerre(n), range(2 * n)))),
        _within("laguerre-64-moment-reproduction", 1e-12, max_rel_gap=(
            _rel_gap(got, math.factorial(k))
            for k, got in _rule_moments(gauss_laguerre(64), range(61)))),
    ]

    hermite = [m for n in (1, 2, 3, 5, 8, 12, 20, 40)
               for m in _rule_moments(gauss_hermite(n), range(2 * n))]
    checks.append(_within(
        "hermite-moment-reproduction", 1e-12,
        max_rel_gap_even=(_rel_gap(got, math.gamma((k + 1) / 2.0))
                          for k, got in hermite if k % 2 == 0),
        max_scaled_gap_odd=(abs(got) / math.gamma((k + 2) / 2.0)
                            for k, got in hermite if k % 2 == 1)))

    ok = True
    for n in (1, 2, 64, 512):
        for rule in (gauss_laguerre(n), gauss_hermite(n)):
            diffs_ok = bool(np.all(np.diff(rule.nodes) > 0)) if n > 1 else True
            ok = ok and diffs_ok and bool(np.all(rule.weights > 0))
    checks.append(_check("rule-structure", ok))

    checks.append(_within("integrate-factorial-moments", 1e-11, max_rel_gap=(
        _rel_gap(integrate_semi_infinite(lambda t, k=k: t ** k * math.exp(-t)).value,
                 math.factorial(k)) for k in range(21))))

    checks.append(_within("wirtinger-analytic-null", 1e-8, max_abs=(
        abs(wirtinger_fd(_random_series(rng, 5), disk_point(rng, 2.0), 1e-5))
        for _ in range(20))))

    checks.append(_within("wirtinger-antianalytic-unit", 1e-9, abs_gap=[
        abs(wirtinger_fd(lambda z: z.conjugate(), 1 + 2j, 1e-5) - 1.0)]))

    levels = (-1.0, 0.0, 1.0)
    checks.append(_within("min-eig-2x2-closed-form", 1e-12, max_abs_gap=(
        abs(min_eig_hermitian(np.array([[a, b], [np.conj(b), d]]))
            - (0.5 * (a + d) - math.sqrt((0.5 * (a - d)) ** 2 + abs(b) ** 2)))
        for a in levels for d in levels for b in levels + (1j,))))

    return checks


# --------------------------------------------------------------------------
# expint

def suite_expint(seed: int = 0) -> list[dict]:
    checks = []

    gaps = []
    for x in (0.5, 1.0, 2.0, 10.0):
        fam, emx = expint.en_family(201, x), math.exp(-x)
        gaps += (abs(n * fam[n + 1] - emx + x * fam[n]) / emx for n in range(1, 200))
    checks.append(_within("recurrence-residual", 1e-15, max_scaled_residual=gaps))

    ok = True
    for x in (0.5, 1.0, 2.0, 10.0):
        scaled = expint.en_family_scaled(200, x)
        for n in range(1, 201):
            if not 1.0 / (x + n) < scaled[n] <= 1.0 / (x + n - 1.0):
                ok = False
    checks.append(_check("two-sided-bounds", ok))

    checks.append(_within("incomplete-gamma-vs-quadrature", 1e-11, max_rel_gap=(
        _rel_gap(integrate_semi_infinite(
            lambda t, m=m: (1.0 + t) ** (m - 1) * math.exp(-1.0 - t), 1e-13).value,
            expint.incomplete_gamma_int(m, 1.0)) for m in range(1, 20))))

    exact0 = all(expint.en_negative_order_at_1(k) == expint.incomplete_gamma_int(k - 1, 1.0)
                 for k in range(2, 21))
    checks.append(_check("negative-order-definition", exact0))

    checks.append(_within("laplace-vs-quadrature", 1e-9, max_abs_gap=_laplace_gaps(
        range(1, 11), (-0.5, 0.1, 1.0, 3.0), 1e-11)))

    checks.append(_within("e1-branch-overlap", 1e-13, max_rel_gap=(
        _rel_gap(math.exp(-x) * expint._en_lentz_scaled(1, x), expint._e1_series(x))
        for x in (1.2, 1.35, 1.5, 1.65, 1.8))))

    z = 2.0 + 1.5j
    checks.append(_within("e1-conjugate-symmetry", 1e-15, abs_gap=[
        abs(expint.e1(z.conjugate()) - expint.e1(z).conjugate())]))

    return checks


# --------------------------------------------------------------------------
# moments

def _bounds_checks(nmax: int) -> list[dict]:
    """n!/(2^n 8) <= eta_n <= n! and eta_n <= Gamma(n)/n in log scale, and
    log eta_n increasing from n = 2, for every n <= nmax."""
    logs = moments.log_eta_sequence(nmax)
    bounds_ok = all(
        math.lgamma(n + 1) - n * math.log(2.0) - math.log(8.0) <= le <= math.lgamma(n + 1)
        and (n == 0 or le <= math.lgamma(n) - math.log(n))
        for n, le in enumerate(logs))
    return [
        _check("eta-bounds-log-scale", bounds_ok, n_max=nmax),
        _check("log-eta-monotone-from-2", all(logs[n + 1] > logs[n] for n in range(2, nmax)),
               n_max=nmax),
    ]


def _gfs_point(rng: random.Random) -> complex:
    """A random z where generating_series is validated, redrawn until it is."""
    while True:
        z = complex(rng.uniform(-0.4, 2.5), rng.uniform(-2.0, 2.0))
        if abs(z) <= moments._DIRECT_RADIUS or abs(z / (1.0 + z)) <= moments._ACCEL_RATIO:
            return z


def _gfs_checks(seed: int, points: int) -> list[dict]:
    if points < 2:
        raise ConfigurationError(f"verify: points must be >= 2, got {points}")
    rng = random.Random(seed)
    grid = [-0.85 + i * (5.0 + 0.85) / (points - 1) for i in range(points)]
    samples = grid + [_gfs_point(rng) for _ in range(5)]
    return [
        _within("generating-function-identity", 1e-9, max_gap=(
            abs(moments.generating_series(x) - moments.generating_closed_form(x))
            for x in samples)),
        _within("generating-route-overlap", 1e-10, max_gap=(
            abs(moments._series_direct(z) - moments._series_accelerated(z))
            for z in (cmath.rect(0.6, 0.3), cmath.rect(0.75, 2.0), cmath.rect(0.88, 0.9)))),
    ]


def suite_moments(seed: int = 0, nmax: int = _NMAX, points: int = _POINTS) -> list[dict]:
    checks = [
        _within("eta-quadrature-vs-closed-form", 1e-10, max_rel_gap=(
            _rel_gap(moments.eta_quadrature(n), moments.eta_closed_form(n)) for n in range(31))),
        _within("eta-binomial-vs-closed-form", 1e-8, max_rel_gap=(
            _rel_gap(moments.eta_binomial(n), moments.eta_closed_form(n)) for n in range(21))),
    ]

    checks.extend(_bounds_checks(nmax))

    res = moments.residual_sequence(101)
    checks.append(_within("residual-recurrence-consistency", 1e-13, max_abs_gap=(
        abs(res[n] - (math.e * (n + 2) * expint.en(n + 1, 1.0) - 1.0)) for n in range(1, 101))))

    checks.append(_within("moment-step-identity", 1e-11, max_rel_gap=(
        _rel_gap(math.e * math.gamma(n + 1) * expint.en(n + 1, 1.0) - moments.eta_closed_form(n),
                 moments.eta_closed_form(n + 1)) for n in range(31))))

    ok = True
    details = {}
    for n_terms in (100, 1000):
        s = moments.eta_factorial_sum(n_terms)
        details[f"S_{n_terms}"] = s
        ok = ok and 1.0 - 1.1 / n_terms < s <= 1.0
    prefix = [moments.eta_factorial_sum(n) for n in (0, 1, 2, 5, 10, 50, 100)]
    ok = ok and all(a <= b for a, b in zip(prefix, prefix[1:]))
    checks.append(_check("factorial-sum-to-one", ok, **details))

    checks.extend(_gfs_checks(seed, points))

    checks.append(_within("shifted-moment-integral-identity", 1e-9, max_rel_gap=(
        _rel_gap(*moments.en_integral_identity(n)) for n in (0, 1, 5, 10, 25, 40, 60))))

    checks.append(_within("log-eta-quadrature-large-n", 1e-9, max_abs_gap=(
        abs(moments.log_eta(n) - moments.log_eta_quadrature(n)) for n in (200, 300))))

    return checks


# --------------------------------------------------------------------------
# hfock (the space itself)

def suite_hfock(seed: int = 0) -> list[dict]:
    rng = random.Random(seed)
    checks = []

    ok = True
    for r in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0):
        v = space.efun(r).real
        ok = ok and math.exp(r) <= v <= 8.0 * math.exp(2.0 * r)
    checks.append(_check("efun-growth-sandwich", ok))

    checks.append(_within("kernel-diagonal", 1e-12, max_rel_gap=(
        _rel_gap(space.kernel(z, z).real, space.efun(abs(z) ** 2).real)
        for z in (cmath.rect(0.15 * (i + 1), 0.7 * i) for i in range(20)))))

    gaps = []
    for _ in range(25):
        z, w = disk_point(rng, 2.0), disk_point(rng, 2.0)
        k1 = space.kernel(z, w)
        gaps.append(abs(k1 - space.kernel(w, z).conjugate()) / max(abs(k1), 1.0))
    checks.append(_within("kernel-hermitian-symmetry", 1e-14, max_rel_gap=gaps))

    checks.append(_within("reproducing-identity", 1e-12, max_rel_gap=(
        _mixed_gap(*space.reproducing_check(_random_series(rng, 10), disk_point(rng, 2.0)))
        for _ in range(100))))

    basis = space.EntireSeries.basis_element
    checks.append(_within("basis-orthonormal-coefficient-route", 1e-12, max_gap=(
        abs(space.h_inner(basis(n), basis(m)) - (1.0 if n == m else 0.0))
        for n in range(41) for m in range(n, 41))))

    structural_zero = all(
        space.h_inner(space.EntireSeries.monomial(n), space.EntireSeries.monomial(n - 1)) == 0
        for n in range(1, 21))
    checks.append(_within("basis-orthonormal-quadrature-route", 1e-9, ok=structural_zero,
                          max_gap=(abs(space.norm_sq_by_quadrature(basis(n)) - 1.0)
                                   for n in range(21))))

    ok = True
    for _ in range(100):
        f = _random_series(rng, rng.randrange(0, 24))
        ok = ok and space.h_norm(f) <= space.fock_norm(f) * (1.0 + 1e-12)
    checks.append(_check("norm-domination", ok))

    checks.append(_psd_sampling("gram-psd-sampling", (
        (space.gram_kernel([disk_point(local, 2.0) for _ in range(50)]), space.kernel, local)
        for local in map(random.Random, range(seed + 1000, seed + 1020)))))

    # |f(z)| <= sqrt(K(z, z)) ||f||, to a relative rounding slack of 1e-10;
    # f = K_w (truncated), last, meets the bound at z = w (Cauchy-Schwarz saturation)
    w = 0.8 + 0.4j
    logs = moments.log_eta_sequence(60)
    kw = space.EntireSeries(tuple(w.conjugate() ** n * math.exp(-logs[n]) for n in range(61)))
    pairs = [(abs(f(z)), math.sqrt(space.efun(abs(z) * abs(z)).real) * space.h_norm(f))
             for f, z in ((space.EntireSeries((1.0,)), 3.0 + 0j),
                          (space.EntireSeries.monomial(5), 2.0 + 0j),
                          (_random_series(rng, 8), disk_point(rng, 2.0)),
                          (kw, w))]
    saturation = pairs[-1][0] / pairs[-1][1]
    ok = all(value <= bound * (1.0 + 1e-10) for value, bound in pairs)
    checks.append(_check("pointwise-bound", ok and saturation > 1.0 - 1e-10,
                         saturation=saturation))

    b3 = basis(3)
    h3, fock3 = space.h_norm(b3), space.fock_norm(b3)
    ok = (abs(h3 - 1.0) <= 1e-12
          and abs(fock3 - math.sqrt(6.0 / moments.eta_closed_form(3))) <= 1e-12)
    checks.append(_check("membership-basis-element", ok, h_norm=h3, fock_norm=fock3))

    return checks


# --------------------------------------------------------------------------
# bargmann

def suite_bargmann(seed: int = 0) -> list[dict]:
    rng = random.Random(seed)

    rule = gauss_hermite(200)
    mat = bargmann._psi_scaled_matrix(40, rule.nodes)
    gram = (mat * rule.weights) @ mat.T
    checks = [_within("hermite-orthonormality-41", 1e-9,
                      max_gap=[float(np.max(np.abs(gram - np.eye(41))))])]

    checks.append(_within("l2-norm-identity", 1e-8, max_rel_gap=(
        _rel_gap(bargmann.kernel_l2_norm_sq(r), space.efun(r * r).real)
        for r in (0.0, 0.5, 1.0, 1.5))))

    base = bargmann.kernel_l2_norm_sq(1.3)
    checks.append(_within("l2-rotation-invariance", 1e-10, max_rel_gap=(
        _rel_gap(bargmann.kernel_l2_norm_sq(cmath.rect(1.3, k * math.pi / 4.0)), base)
        for k in range(1, 8))))

    checks.append(_within("classical-generating-identity", 1e-10, max_rel_gap=(
        _mixed_gap(*bargmann.hermite_generating_pair(disk_point(rng, 3.0), rng.uniform(-5.0, 5.0)))
        for _ in range(50))))

    checks.append(_within("weighted-generating-identity", 1e-7, max_rel_gap=(
        _mixed_gap(*bargmann.weighted_generating_pair(z, x))
        for z in (0.0, 0.05, -0.12, 0.15, 0.1 + 0.05j, 0.08 - 0.06j) for x in (0.0, 0.7, -2.0))))

    checks.append(_within("cramer-envelope", 1.0, max_abs=(
        float(np.max(np.abs(bargmann.hermite_psi(300, x))))
        for x in (-8.0, -1.3, 0.0, 0.4, 2.7, 19.0, 30.0))))

    gaps = []
    for x in (-3.3, 0.9, 7.1):
        psi = bargmann.hermite_psi(120, x)
        scale = float(np.max(np.abs(psi)))
        gaps += (abs(psi[n + 1] - x * math.sqrt(2.0 / (n + 1)) * psi[n]
                     + math.sqrt(n / (n + 1)) * psi[n - 1]) / scale for n in range(1, 120))
    checks.append(_within("three-term-recurrence-residual", 1e-13, max_scaled=gaps))

    return checks


# --------------------------------------------------------------------------
# lerch

def suite_lerch(seed: int = 0) -> list[dict]:
    rng = random.Random(seed)
    checks = []

    gaps = []
    for n in (1, 2, 5):
        # slope at 0 by complex step, curvature by central second difference
        h = 1e-7
        slope = lerch.phi(n, 1j * h, 1e-16).imag / h
        gaps.append(abs(slope - 1.0 / (n + 1)))
        h = 1e-3
        fd2 = (lerch.phi(n, h, 1e-16) - 2.0 * lerch.phi(n, 0.0)
               + lerch.phi(n, -h, 1e-16)).real / h ** 2
        gaps.append(_rel_gap(fd2, 2.0 * (1.0 / (n + 2))))
    checks.append(_within("taylor-coefficients", 1e-5, max_gap=gaps))

    gaps = [abs((lerch.phi(1, x) * x).real + math.log1p(-x))
            for x in (-0.9 + 1.8 * i / 36.0 for i in range(37)) if abs(x) >= 1e-9]
    gaps += (abs(series - closed) for series, closed in
             (lerch.dirichlet_kernel_pair(q, 1.0) for q in (0.6 * 0.7j, 0.3 + 0.4j, -0.5 + 0.2j)))
    checks.append(_within("dirichlet-kernel-identity", 1e-11, max_gap=gaps))

    checks.append(_within("phi-negative-axis-vs-quadrature", 1e-8, max_gap=_laplace_gaps(
        range(1, 6), (0.25, 0.5, 0.9, 2.0), 1e-10)))

    draws = [(disk_point(rng, 0.9), rng.randrange(1, 6)) for _ in range(50)]
    checks.append(_within("lerch-phi-consistency", 1e-12, max_gap=(
        abs(lerch.lerch_phi(z, 1.0, float(n)) - lerch.phi(n, z)) for z, n in draws)))

    checks.append(_within("hurwitz-zeta-routes", 1e-9, max_gap=(
        abs(lerch.hurwitz_zeta(s, a, 1e-11) - lerch.hurwitz_zeta_integral(s, a, 1e-11))
        for s in (2.0, 3.0) for a in (1.0, 2.0))))

    checks.append(_within("hurwitz-zeta-index-shift", 1e-10, abs_gap=[
        abs(lerch.hurwitz_zeta(2.0, 1.0) - lerch.hurwitz_zeta(2.0, 2.0) - 1.0)]))

    checks.append(_psd_sampling("phi-gram-psd-sampling", (
        (lerch.gram_phi(n, [disk_point(local, 0.95) for _ in range(30)]),
         lambda z, w, n=n: lerch.phi(n, z * w.conjugate()), local)
        for n in (1, 2, 3)
        for local in map(random.Random, range(seed + 100 * n, seed + 100 * n + 10)))))

    grid = [0.1 + 0.1 * i for i in range(50)]
    ok = all(lerch.phi_cm_evidence(n, grid).passed for n in (1, 2, 3))
    checks.append(_check("complete-monotonicity-evidence", ok))

    audits = [lerch.ml_audit("phi_tilde", n, seed=seed) for n in (1, 2, 3)]
    audits.append(lerch.ml_audit("eta0_K", seed=seed))
    ok = all(a["passed_i_ii"] for a in audits)
    checks.append(_check("ml-audit-i-ii", ok,
                         kernels=[a["kernel"] for a in audits]))

    return checks


# --------------------------------------------------------------------------
# dbar

def suite_dbar(seed: int = 0) -> list[dict]:
    rng = random.Random(seed)
    checks = []

    reps = []
    for _ in range(50):
        f = _random_series(rng, rng.randrange(0, 7))
        u0 = _random_series(rng, rng.randrange(0, 7))
        u = dbar.assemble_solution(f, u0)
        samples = [disk_point(rng, 2.0) for _ in range(10)]
        reps.append(dbar.dbar_residual(u, f, samples, 1e-5))
    checks.append(_within("assembled-solution-residual", _DBAR_RESIDUAL_BOUND,
                          ok=all(rep.symbolic_zero for rep in reps),
                          max_residual=(rep.max_residual for rep in reps)))

    flagged = 0
    for _ in range(10):
        f = _random_series(rng, 4)
        u0 = _random_series(rng, 4)
        u = dbar.assemble_solution(f, u0)
        j = rng.randrange(0, 5)
        rows = [list(r) for r in u.rows]
        rows[1][j] += 1e-3
        bad = dbar.PolyanalyticSeries(tuple(tuple(r) for r in rows))
        samples = [cmath.rect(1.0, 2.0 * math.pi * k / 7.0) for k in range(7)]
        rep = dbar.dbar_residual(bad, f, samples, 1e-5)
        if rep.max_residual > _DBAR_RESIDUAL_BOUND and not rep.symbolic_zero:
            flagged += 1
    checks.append(_check("negative-controls-flagged", flagged == 10, flagged=flagged))

    local = random.Random(seed + 7)
    pts = [disk_point(local, 1.5) for _ in range(20)]
    g = space.build_gram(pts, lambda zi, zj: dbar.poly_fock_kernel(2, zi, zj))
    checks.append(_check("order-2-kernel-psd", g.is_psd(),
                         min_eig=g.min_eig, trace=g.trace))

    pairs = [(disk_point(rng, 2.0), disk_point(rng, 2.0)) for _ in range(25)]
    checks.append(_within("order-1-kernel-exponential", 1e-14, max_rel_gap=(
        _rel_gap(dbar.poly_fock_kernel(1, z, w), cmath.exp(z * w.conjugate())) for z, w in pairs)))

    fw = space.EntireSeries.exponential(1.0, 30)
    checks.append(_within("gaussian-mass-truncation", 1e-10, abs_gap=[
        abs(dbar.weight_mass(fw, include_pi=False) - math.e)]))

    one = space.EntireSeries((1.0,))
    good = dbar.weighted_budget_check(one, one)
    # scale u0 so its weighted mass is exactly 3.1 M(f): must be rejected
    scale = math.sqrt(3.1 / moments.eta_closed_form(0))
    bad = dbar.weighted_budget_check(space.EntireSeries((scale,)), one)
    checks.append(_check("membership-budget",
                         good.ok and not bad.ok and abs(bad.ratio - 3.1 / 3.0) < 1e-12,
                         good_ratio=good.ratio, bad_ratio=bad.ratio))

    return checks


SUITES = {
    "numerics": suite_numerics,
    "expint": suite_expint,
    "moments": suite_moments,
    "hfock": suite_hfock,
    "bargmann": suite_bargmann,
    "lerch": suite_lerch,
    "dbar": suite_dbar,
}

# narrower entry points into the moments battery
ALIASES = ("bounds", "gfs")


def run(suite: str, seed: int = 0, nmax: int | None = None, points: int | None = None) -> dict:
    """Run one suite (or ``all``) and assemble a deterministic report.

    ``nmax`` and ``points`` reach only the moments battery (``moments``,
    ``bounds`` and ``gfs``); ``None`` means 170 and 20."""
    nmax = _NMAX if nmax is None else nmax
    points = _POINTS if points is None else points

    def call(name: str) -> list[dict]:
        if name == "moments":
            return SUITES[name](seed=seed, nmax=nmax, points=points)
        return SUITES[name](seed=seed)

    if suite == "all":
        checks = [c for name in sorted(SUITES) for c in call(name)]
    elif suite in SUITES:
        checks = call(suite)
    elif suite == "bounds":
        checks = _bounds_checks(nmax)
    elif suite == "gfs":
        checks = _gfs_checks(seed, points)
    else:
        known = sorted(list(SUITES) + list(ALIASES) + ["all"])
        raise ConfigurationError(f"unknown suite {suite!r}; choose from {known}")
    checks = sorted(checks, key=lambda c: c["name"])
    failed = [c["name"] for c in checks if c["status"] != "pass"]
    return {
        "schema": 1,
        "suite": suite,
        "seed": seed,
        "checks": checks,
        "n_checks": len(checks),
        "n_failed": len(failed),
        "failed": failed,
    }
