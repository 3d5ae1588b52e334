"""Named verification suites, one per module invariant battery.

Each check returns a JSON-friendly dict {name, status, details}; a suite is
a sorted list of checks.  Suites are deterministic for a fixed seed (random
sampling uses Python's Mersenne Twister via random.Random(seed)), so repeated
runs produce byte-identical reports.
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


def _check(name: str, ok: bool, **details) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "details": details}


def _random_series(rng: random.Random, degree: int) -> space.EntireSeries:
    return space.EntireSeries(tuple(disk_point(rng, 1.0) for _ in range(degree + 1)))


def _sampled_entry_gap(g: space.GramMatrix, rng: random.Random, kernel) -> float:
    """Worst gap between 4 random entries of a factored Gram matrix and
    the scalar ``kernel(z, w)``, over the entry contract 8192 u sqrt(K(z,z) K(w,w))
    with u = 2^-53 (README, "Numerical notes"); at most 1 when the contract holds."""
    diag = g.entries.diagonal().real
    worst = 0.0
    for _ in range(4):
        i, j = rng.randrange(len(g.points)), rng.randrange(len(g.points))
        gap = abs(complex(g.entries[i, j]) - kernel(g.points[i], g.points[j]))
        worst = max(worst, gap / (8192 * 2.0 ** -53 * math.sqrt(diag[i] * diag[j])))
    return worst


# --------------------------------------------------------------------------
# numerics

def suite_numerics(seed: int = 0, **_) -> list[dict]:
    rng = random.Random(seed)
    checks = []

    worst = 0.0
    for n in (1, 2, 3, 5, 8, 12, 20):
        rule = gauss_laguerre(n)
        for k in range(2 * n):
            got = float(np.dot(rule.weights, rule.nodes ** k))
            worst = max(worst, abs(got - math.factorial(k)) / math.factorial(k))
    checks.append(_check("laguerre-moment-reproduction", worst <= 1e-13, max_rel_gap=worst))

    rule = gauss_laguerre(64)
    worst = max(abs(float(np.dot(rule.weights, rule.nodes ** k)) - math.factorial(k))
                / math.factorial(k) for k in range(61))
    checks.append(_check("laguerre-64-moment-reproduction", worst <= 1e-12, max_rel_gap=worst))

    worst = 0.0
    worst_odd = 0.0
    for n in (1, 2, 3, 5, 8, 12, 20, 40):
        rule = gauss_hermite(n)
        for k in range(2 * n):
            got = float(np.dot(rule.weights, rule.nodes ** k))
            if k % 2 == 0:
                exact = math.gamma((k + 1) / 2.0)
                worst = max(worst, abs(got - exact) / exact)
            else:
                worst_odd = max(worst_odd, abs(got) / math.gamma((k + 2) / 2.0))
    checks.append(_check("hermite-moment-reproduction",
                         worst <= 1e-12 and worst_odd <= 1e-12,
                         max_rel_gap_even=worst, max_scaled_gap_odd=worst_odd))

    ok = True
    for n in (1, 2, 64, 512):
        for rule in (gauss_laguerre(n), gauss_hermite(n)):
            diffs_ok = bool(np.all(np.diff(rule.nodes) > 0)) if n > 1 else True
            ok = ok and diffs_ok and bool(np.all(rule.weights > 0))
    checks.append(_check("rule-structure", ok))

    worst = 0.0
    for k in range(21):
        res = integrate_semi_infinite(lambda t, k=k: t ** k * math.exp(-t))
        worst = max(worst, abs(res.value - math.factorial(k)) / math.factorial(k))
    checks.append(_check("integrate-factorial-moments", worst <= 1e-11, max_rel_gap=worst))

    worst = 0.0
    for _ in range(20):
        f = _random_series(rng, 5)
        z = disk_point(rng, 2.0)
        worst = max(worst, abs(wirtinger_fd(f, z, 1e-5)))
    checks.append(_check("wirtinger-analytic-null", worst <= 1e-8, max_abs=worst))

    gap = abs(wirtinger_fd(lambda z: z.conjugate(), 1 + 2j, 1e-5) - 1.0)
    checks.append(_check("wirtinger-antianalytic-unit", gap <= 1e-9, abs_gap=gap))

    worst = 0.0
    for a in (-1.0, 0.0, 1.0):
        for d in (-1.0, 0.0, 1.0):
            for b in (-1.0, 0.0, 1.0, 1j):
                M = np.array([[a, b], [np.conj(b), d]])
                mean = 0.5 * (a + d)
                rad = math.sqrt((0.5 * (a - d)) ** 2 + abs(b) ** 2)
                worst = max(worst, abs(min_eig_hermitian(M) - (mean - rad)))
    checks.append(_check("min-eig-2x2-closed-form", worst <= 1e-12, max_abs_gap=worst))

    return checks


# --------------------------------------------------------------------------
# expint

def suite_expint(seed: int = 0, **_) -> list[dict]:
    checks = []

    worst = 0.0
    for x in (0.5, 1.0, 2.0, 10.0):
        fam = expint.en_family(201, x)
        emx = math.exp(-x)
        for n in range(1, 200):
            resid = abs(n * fam[n + 1] - emx + x * fam[n])
            worst = max(worst, resid / emx)
    checks.append(_check("recurrence-residual", worst <= 1e-15, max_scaled_residual=worst))

    ok = True
    for x in (0.5, 1.0, 2.0, 10.0):
        scaled = expint.en_family_scaled(200, x)
        for n in range(1, 201):
            if not 1.0 / (x + n) < scaled[n] <= 1.0 / (x + n - 1.0):
                ok = False
    checks.append(_check("two-sided-bounds", ok))

    worst = 0.0
    for m in range(1, 20):
        closed = expint.incomplete_gamma_int(m, 1.0)
        quad = integrate_semi_infinite(
            lambda t, m=m: (1.0 + t) ** (m - 1) * math.exp(-1.0 - t), 1e-13).value
        worst = max(worst, abs(closed - quad) / closed)
    checks.append(_check("incomplete-gamma-vs-quadrature", worst <= 1e-11, max_rel_gap=worst))

    exact0 = all(expint.en_negative_order_at_1(k) == expint.incomplete_gamma_int(k - 1, 1.0)
                 for k in range(2, 21))
    checks.append(_check("negative-order-definition", exact0))

    worst = 0.0
    for a in (-0.5, 0.1, 1.0, 3.0):
        for n in range(1, 11):
            lhs = expint.laplace_en(n, a)
            rhs = integrate_semi_infinite(
                lambda t, n=n, a=a: math.exp(-(a + 1.0) * t) * expint.en_scaled(n, t)
                if t > 0 else 0.0, 1e-11).value
            worst = max(worst, abs(lhs - rhs))
    checks.append(_check("laplace-vs-quadrature", worst <= 1e-9, max_abs_gap=worst))

    worst = 0.0
    for x in (1.2, 1.35, 1.5, 1.65, 1.8):
        a = expint._e1_series(x)
        b = math.exp(-x) * expint._en_lentz_scaled(1, x)
        worst = max(worst, abs(a - b) / abs(a))
    checks.append(_check("e1-branch-overlap", worst <= 1e-13, max_rel_gap=worst))

    z = 2.0 + 1.5j
    gap = abs(expint.e1(z.conjugate()) - expint.e1(z).conjugate())
    checks.append(_check("e1-conjugate-symmetry", gap <= 1e-15, abs_gap=gap))

    return checks


# --------------------------------------------------------------------------
# moments

def _bounds_checks(nmax: int) -> list[dict]:
    table = moments.eta_table(nmax, cross_check_up_to=0)
    return [
        _check("eta-bounds-log-scale", table.bounds_ok(), n_max=nmax),
        _check("log-eta-monotone-from-2", table.log_monotone_from_2(), n_max=nmax),
    ]


def _gfs_checks(seed: int, points: int) -> list[dict]:
    rng = random.Random(seed)
    checks = []
    worst = 0.0
    grid = [-0.85 + i * (5.0 + 0.85) / (points - 1) for i in range(points)]
    for x in grid:
        gap = abs(moments.generating_series(x) - moments.generating_closed_form(x))
        worst = max(worst, gap)
    for _ in range(5):
        while True:  # redraw until z lies where generating_series is validated
            z = complex(rng.uniform(-0.4, 2.5), rng.uniform(-2.0, 2.0))
            if (abs(z) <= moments._DIRECT_RADIUS
                    or abs(z / (1.0 + z)) <= moments._ACCEL_RATIO):
                break
        gap = abs(moments.generating_series(z) - moments.generating_closed_form(z))
        worst = max(worst, gap)
    checks.append(_check("generating-function-identity", worst <= 1e-9, max_gap=worst))

    worst = 0.0
    for r, theta in ((0.6, 0.3), (0.75, 2.0), (0.88, 0.9)):
        z = cmath.rect(r, theta)
        direct = moments._series_direct(z)
        accel = moments._series_accelerated(z)
        worst = max(worst, abs(direct - accel))
    checks.append(_check("generating-route-overlap", worst <= 1e-10, max_gap=worst))
    return checks


def suite_moments(seed: int = 0, nmax: int = 170, points: int = 20, **_) -> list[dict]:
    checks = []

    worst = 0.0
    for n in range(31):
        cf = moments.eta_closed_form(n)
        worst = max(worst, abs(moments.eta_quadrature(n) - cf) / cf)
    checks.append(_check("eta-quadrature-vs-closed-form", worst <= 1e-10, max_rel_gap=worst))

    worst = 0.0
    for n in range(21):
        cf = moments.eta_closed_form(n)
        worst = max(worst, abs(moments.eta_binomial(n) - cf) / cf)
    checks.append(_check("eta-binomial-vs-closed-form", worst <= 1e-8, max_rel_gap=worst))

    checks.extend(_bounds_checks(nmax))

    res = moments.residual_sequence(101)
    worst = 0.0
    for n in range(1, 101):
        direct = math.e * (n + 2) * expint.en(n + 1, 1.0) - 1.0
        worst = max(worst, abs(res[n] - direct))
    checks.append(_check("residual-recurrence-consistency", worst <= 1e-13, max_abs_gap=worst))

    worst = 0.0
    for n in range(31):
        lhs = moments.eta_closed_form(n + 1)
        rhs = math.e * math.gamma(n + 1) * expint.en(n + 1, 1.0) - moments.eta_closed_form(n)
        worst = max(worst, abs(lhs - rhs) / lhs)
    checks.append(_check("moment-step-identity", worst <= 1e-11, max_rel_gap=worst))

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

    worst = 0.0
    for n in (0, 1, 5, 10, 25, 40, 60):
        lhs, rhs = moments.en_integral_identity(n)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    checks.append(_check("shifted-moment-integral-identity", worst <= 1e-9, max_rel_gap=worst))

    worst = 0.0
    for n in (200, 300):
        worst = max(worst, abs(moments.log_eta(n) - moments.log_eta_quadrature(n)))
    checks.append(_check("log-eta-quadrature-large-n", worst <= 1e-9, max_abs_gap=worst))

    return checks


# --------------------------------------------------------------------------
# hfock (the space itself)

def suite_hfock(seed: int = 0, **_) -> list[dict]:
    rng = random.Random(seed)
    checks = []

    ok = True
    for r in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0):
        v = space.efun(r).real
        ok = ok and math.exp(r) <= v <= 8.0 * math.exp(2.0 * r)
    checks.append(_check("efun-growth-sandwich", ok))

    worst = 0.0
    for i in range(20):
        z = cmath.rect(0.15 * (i + 1), 0.7 * i)
        diag = space.kernel(z, z).real
        ref = space.efun(abs(z) ** 2).real
        worst = max(worst, abs(diag - ref) / ref)
    checks.append(_check("kernel-diagonal", worst <= 1e-12, max_rel_gap=worst))

    worst = 0.0
    for _ in range(25):
        z, w = disk_point(rng, 2.0), disk_point(rng, 2.0)
        k1 = space.kernel(z, w)
        k2 = space.kernel(w, z).conjugate()
        worst = max(worst, abs(k1 - k2) / max(abs(k1), 1.0))
    checks.append(_check("kernel-hermitian-symmetry", worst <= 1e-14, max_rel_gap=worst))

    worst = 0.0
    for _ in range(100):
        f = _random_series(rng, 10)
        z = disk_point(rng, 2.0)
        inner, direct = space.reproducing_check(f, z)
        worst = max(worst, abs(inner - direct) / (1.0 + abs(direct)))
    checks.append(_check("reproducing-identity", worst <= 1e-12, max_rel_gap=worst))

    worst = 0.0
    for n in range(41):
        for m in range(n, 41):
            val = space.h_inner(space.EntireSeries.basis_element(n),
                                space.EntireSeries.basis_element(m))
            worst = max(worst, abs(val - (1.0 if n == m else 0.0)))
    checks.append(_check("basis-orthonormal-coefficient-route", worst <= 1e-12, max_gap=worst))

    worst = 0.0
    structural_zero = True
    for n in range(21):
        e_n = space.EntireSeries.basis_element(n)
        worst = max(worst, abs(space.norm_sq_by_quadrature(e_n) - 1.0))
        if n >= 1 and space.h_inner(space.EntireSeries.monomial(n),
                                    space.EntireSeries.monomial(n - 1)) != 0:
            structural_zero = False
    checks.append(_check("basis-orthonormal-quadrature-route",
                         worst <= 1e-9 and structural_zero, max_gap=worst))

    ok = True
    for _ in range(100):
        f = _random_series(rng, rng.randrange(0, 24))
        ns = space.norms(f)
        ok = ok and ns.h_norm <= ns.fock_norm * (1.0 + 1e-12)
    checks.append(_check("norm-domination", ok))

    worst = 0.0
    worst_entry = 0.0
    ok = True
    for s in range(20):
        local = random.Random(seed + 1000 + s)
        pts = [disk_point(local, 2.0) for _ in range(50)]
        g = space.gram_kernel(pts)
        ok = ok and g.is_psd()
        worst = min(worst, g.min_eig / g.trace)
        worst_entry = max(worst_entry, _sampled_entry_gap(g, local, space.kernel))
    # min_eig is sigma_min(B)^2 >= 0 by construction: the sampled entries,
    # against the scalar kernel, are what can fail here
    checks.append(_check("gram-psd-sampling", ok and worst_entry <= 1.0,
                         min_eig_over_trace=worst, max_scaled_entry_gap=worst_entry))

    ok = True
    for f, z in ((space.EntireSeries((1.0,)), 3.0),
                 (space.EntireSeries.monomial(5), 2.0),
                 (_random_series(rng, 8), disk_point(rng, 2.0))):
        ok = ok and space.pointwise_bound_check(f, z).ok
    # Cauchy-Schwarz saturation: f = K_w (truncated) meets the bound at z = w
    w = 0.8 + 0.4j
    logs = moments.log_eta_sequence(60)
    kw_coeffs = [w.conjugate() ** n * math.exp(-logs[n]) for n in range(61)]
    kw = space.EntireSeries(tuple(kw_coeffs))
    rep = space.pointwise_bound_check(kw, w)
    saturation = rep.value / rep.bound
    ok = ok and rep.ok and saturation > 1.0 - 1e-10
    checks.append(_check("pointwise-bound", ok, saturation=saturation))

    rep = space.norms(space.EntireSeries.basis_element(3))
    eta3 = moments.eta_closed_form(3)
    ok = (abs(rep.h_norm - 1.0) <= 1e-12
          and abs(rep.fock_norm - math.sqrt(6.0 / eta3)) <= 1e-12)
    checks.append(_check("membership-basis-element", ok,
                         h_norm=rep.h_norm, fock_norm=rep.fock_norm))

    return checks


# --------------------------------------------------------------------------
# bargmann

def suite_bargmann(seed: int = 0, **_) -> list[dict]:
    rng = random.Random(seed)
    checks = []

    rule = gauss_hermite(200)
    mat = bargmann._psi_scaled_matrix(40, rule.nodes)
    gram = (mat * rule.weights) @ mat.T
    gap = float(np.max(np.abs(gram - np.eye(41))))
    checks.append(_check("hermite-orthonormality-41", gap <= 1e-9, max_gap=gap))

    worst = 0.0
    for r in (0.0, 0.5, 1.0, 1.5):
        ref = space.efun(r * r).real
        worst = max(worst, abs(bargmann.kernel_l2_norm_sq(r) - ref) / ref)
    checks.append(_check("l2-norm-identity", worst <= 1e-8, max_rel_gap=worst))

    base = bargmann.kernel_l2_norm_sq(1.3)
    worst = max(abs(bargmann.kernel_l2_norm_sq(cmath.rect(1.3, k * math.pi / 4.0)) - base)
                / base for k in range(1, 8))
    checks.append(_check("l2-rotation-invariance", worst <= 1e-10, max_rel_gap=worst))

    worst = 0.0
    for _ in range(50):
        z = disk_point(rng, 3.0)
        x = rng.uniform(-5.0, 5.0)
        lhs, rhs = bargmann.hermite_generating_pair(z, x)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    checks.append(_check("classical-generating-identity", worst <= 1e-10, max_rel_gap=worst))

    worst = 0.0
    for z in (0.0, 0.05, -0.12, 0.15, 0.1 + 0.05j, 0.08 - 0.06j):
        for x in (0.0, 0.7, -2.0):
            lhs, rhs = bargmann.weighted_generating_pair(z, x)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    checks.append(_check("weighted-generating-identity", worst <= 1e-7, max_rel_gap=worst))

    ok = True
    worst = 0.0
    for x in (-8.0, -1.3, 0.0, 0.4, 2.7, 19.0, 30.0):
        psi = bargmann.hermite_psi(300, x)
        worst = max(worst, float(np.max(np.abs(psi))))
        ok = ok and float(np.max(np.abs(psi))) <= 1.0
    checks.append(_check("cramer-envelope", ok, max_abs=worst))

    worst = 0.0
    for x in (-3.3, 0.9, 7.1):
        psi = bargmann.hermite_psi(120, x)
        scale = float(np.max(np.abs(psi)))
        for n in range(1, 120):
            resid = abs(psi[n + 1] - x * math.sqrt(2.0 / (n + 1)) * psi[n]
                        + math.sqrt(n / (n + 1)) * psi[n - 1])
            worst = max(worst, resid / scale)
    checks.append(_check("three-term-recurrence-residual", worst <= 1e-13, max_scaled=worst))

    return checks


# --------------------------------------------------------------------------
# lerch

def suite_lerch(seed: int = 0, **_) -> list[dict]:
    rng = random.Random(seed)
    checks = []

    worst = 0.0
    for n in (1, 2, 5):
        # slope at 0 by complex step, curvature by central second difference
        h = 1e-7
        slope = lerch.phi(n, 1j * h, 1e-16).imag / h
        worst = max(worst, abs(slope - lerch.phi_series_coefficient(n, 1)))
        h = 1e-3
        fd2 = (lerch.phi(n, h, 1e-16) - 2.0 * lerch.phi(n, 0.0)
               + lerch.phi(n, -h, 1e-16)).real / h ** 2
        exact2 = 2.0 * lerch.phi_series_coefficient(n, 2)
        worst = max(worst, abs(fd2 - exact2) / abs(exact2))
    coeff_ok = all(lerch.phi_series_coefficient(n, p) == 1.0 / (n + p)
                   for n in (1, 2, 3) for p in range(11))
    checks.append(_check("taylor-coefficients", worst <= 1e-5 and coeff_ok, max_gap=worst))

    worst = 0.0
    for i in range(37):
        x = -0.9 + 1.8 * i / 36.0
        if abs(x) < 1e-9:
            continue
        worst = max(worst, abs((lerch.phi(1, x) * x).real + math.log1p(-x)))
    for q in (0.6 * 0.7j, 0.3 + 0.4j, -0.5 + 0.2j):
        series, closed = lerch.dirichlet_kernel_pair(q, 1.0)
        worst = max(worst, abs(series - closed))
    checks.append(_check("dirichlet-kernel-identity", worst <= 1e-11, max_gap=worst))

    worst = 0.0
    for n in range(1, 6):
        for a in (0.25, 0.5, 0.9, 2.0):
            lhs = expint.laplace_en(n, a)
            rhs = integrate_semi_infinite(
                lambda t, n=n, a=a: math.exp(-(a + 1.0) * t) * expint.en_scaled(n, t)
                if t > 0 else 0.0, 1e-10).value
            worst = max(worst, abs(lhs - rhs))
    checks.append(_check("phi-negative-axis-vs-quadrature", worst <= 1e-8, max_gap=worst))

    worst = 0.0
    for _ in range(50):
        z = disk_point(rng, 0.9)
        n = rng.randrange(1, 6)
        worst = max(worst, abs(lerch.lerch_phi(z, 1.0, float(n)) - lerch.phi(n, z)))
    checks.append(_check("lerch-phi-consistency", worst <= 1e-12, max_gap=worst))

    worst = 0.0
    for s in (2.0, 3.0):
        for a in (1.0, 2.0):
            worst = max(worst, abs(lerch.hurwitz_zeta(s, a, 1e-11)
                                   - lerch.hurwitz_zeta_integral(s, a, 1e-11)))
    checks.append(_check("hurwitz-zeta-routes", worst <= 1e-9, max_gap=worst))

    gap = abs(lerch.hurwitz_zeta(2.0, 1.0) - lerch.hurwitz_zeta(2.0, 2.0) - 1.0)
    checks.append(_check("hurwitz-zeta-index-shift", gap <= 1e-10, abs_gap=gap))

    ok = True
    worst = 0.0
    worst_entry = 0.0
    for n in (1, 2, 3):
        for s in range(10):
            local = random.Random(seed + 100 * n + s)
            pts = [disk_point(local, 0.95) for _ in range(30)]
            g = lerch.gram_phi(n, pts)
            ok = ok and g.is_psd()
            worst = min(worst, g.min_eig / g.trace)
            worst_entry = max(worst_entry, _sampled_entry_gap(
                g, local, lambda z, w, n=n: lerch.phi(n, z * w.conjugate())))
    checks.append(_check("phi-gram-psd-sampling", ok and worst_entry <= 1.0,
                         min_eig_over_trace=worst, max_scaled_entry_gap=worst_entry))

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

def suite_dbar(seed: int = 0, **_) -> list[dict]:
    rng = random.Random(seed)
    checks = []

    worst = 0.0
    symbolic_ok = True
    for _ in range(50):
        f = _random_series(rng, rng.randrange(0, 7))
        u0 = _random_series(rng, rng.randrange(0, 7))
        u = dbar.assemble_solution(f, u0)
        samples = [disk_point(rng, 2.0) for _ in range(10)]
        rep = dbar.dbar_residual(u, f, samples, 1e-5)
        worst = max(worst, rep.max_residual)
        symbolic_ok = symbolic_ok and rep.symbolic_zero
    checks.append(_check("assembled-solution-residual",
                         worst <= 1e-6 and symbolic_ok, max_residual=worst))

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
        if rep.flagged() and not rep.symbolic_zero:
            flagged += 1
    checks.append(_check("negative-controls-flagged", flagged == 10, flagged=flagged))

    local = random.Random(seed + 7)
    pts = [disk_point(local, 1.5) for _ in range(20)]
    g = space.build_gram(pts, lambda zi, zj: dbar.poly_fock_kernel(2, zi, zj))
    checks.append(_check("order-2-kernel-psd", g.is_psd(),
                         min_eig=g.min_eig, trace=g.trace))

    worst = 0.0
    for _ in range(25):
        z, w = disk_point(rng, 2.0), disk_point(rng, 2.0)
        ref = cmath.exp(z * w.conjugate())
        worst = max(worst, abs(dbar.poly_fock_kernel(1, z, w) - ref) / abs(ref))
    checks.append(_check("order-1-kernel-exponential", worst <= 1e-14, max_rel_gap=worst))

    fw = space.EntireSeries.exponential(1.0, 30)
    gap = abs(dbar.weight_mass(fw, include_pi=False) - math.e)
    checks.append(_check("gaussian-mass-truncation", gap <= 1e-10, abs_gap=gap))

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
ALIASES = {
    "bounds": lambda **kw: _bounds_checks(kw.get("nmax") or 170),
    "gfs": lambda **kw: _gfs_checks(kw.get("seed", 0), kw.get("points") or 20),
}


def run(suite: str, seed: int = 0, nmax: int | None = None, points: int | None = None) -> dict:
    """Run one suite (or ``all``) and assemble a deterministic report."""
    kwargs = {"seed": seed}
    if nmax is not None:
        kwargs["nmax"] = nmax
    if points is not None:
        kwargs["points"] = points
    if suite == "all":
        checks = []
        for name in sorted(SUITES):
            checks.extend(SUITES[name](**kwargs))
    elif suite in SUITES:
        checks = SUITES[suite](**kwargs)
    elif suite in ALIASES:
        checks = ALIASES[suite](seed=seed, nmax=nmax, points=points)
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
