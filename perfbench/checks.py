"""Checks of hfock outputs against mpmath references or exact properties.

Each check returns ``None`` when the output is accepted and a one-line
reason when it is rejected.  References arrive rounded to double precision
from the mpmath process (oracle.py); the tolerances below sit far above that
rounding.  This module imports neither hfock nor mpmath.
"""
from __future__ import annotations

import json
import math

UNIT_ROUNDOFF = 2.0 ** -53

# documented tolerance of each evaluator and how it reads.  "rel" compares
# |value - ref| with tol * |ref|; "abs" with tol, for evaluators whose tol is
# the absolute geometric tail bound of their series (lerch.phi, lerch_phi).
# Evaluators without a tol argument are held to the package default 1e-12,
# except generating_series, held to the 1e-10 route-overlap bound of
# `hfock verify moments`.
TOLERANCES = {
    "kernel": ("rel", 1e-12),
    "phi": ("abs", 1e-13),
    "lerch_phi": ("abs", 1e-13),
    "en_family": ("rel", 1e-12),
    "laplace_en": ("rel", 1e-12),
    "bargmann_kernel": ("rel", 1e-12),
    "kernel_l2_norm_sq": ("rel", 1e-12),
    "generating_series": ("rel", 1e-10),
    "eta_quadrature": ("rel", 1e-12),
    # relative tol 1e-12 on the integral is an absolute 1e-12 on its log
    "log_eta_quadrature": ("abs", 1e-12),
    "en_integral_identity": ("rel", 1e-11),
    "lerch_phi_integral": ("rel", 1e-10),
    "hurwitz_zeta_integral": ("rel", 1e-10),
    "eta_table": ("rel", 1e-12),
}

# Gram entries are held to c u sqrt(K(z,z) K(w,w)), u the unit roundoff: by
# Cauchy-Schwarz sqrt(K(z,z) K(w,w)) bounds the sum of |terms| of a
# diagonal series kernel, so this is the rounding scale of any
# double-precision route.  c = 2^13 also covers the documented truncation
# tails of the kernels (1e-12 for efun, where K(z,z) >= 1/eta_0 > 2, and
# 1e-13 for phi_n, where K(z,z) >= 1/n >= 1/3).
GRAM_C = 8192.0


def close(value, ref, mode: str, tol: float) -> str | None:
    """Compare one number with its reference under a tolerance reading."""
    if isinstance(value, bool) or not isinstance(value, (int, float, complex)):
        return f"expected a number, got {type(value).__name__}"
    err = abs(value - ref)
    bound = tol * abs(ref) if mode == "rel" else tol
    if not err <= bound:  # also rejects NaN
        return f"error {err:.3e} above {mode} bound {bound:.3e} (value {value!r}, ref {ref!r})"
    return None


def check_value(kind: str, value, ref) -> str | None:
    """Check the output of a scalar or list-valued evaluator."""
    mode, tol = TOLERANCES[kind]
    if kind == "en_integral_identity":
        value = list(value)
        ref = [ref, ref]
    elif kind == "eta_table":
        if value.n_max + 1 != len(ref):
            return f"table has n_max {value.n_max}, expected {len(ref) - 1}"
        value = list(value.eta)
    if isinstance(ref, list):
        if len(value) != len(ref):
            return f"expected {len(ref)} values, got {len(value)}"
        for k, (v, r) in enumerate(zip(value, ref)):
            reason = close(v, r, mode, tol)
            if reason:
                return f"[{k}] {reason}"
        return None
    return close(value, ref, mode, tol)


def check_gram(entries, min_eig: float, trace: float, psd: bool, pairs, ref) -> str | None:
    """Check a Gram matrix: psd verdict, exact Hermitian symmetry, and the
    trace and sampled entries against mpmath on the rounding scale."""
    if not psd:
        return f"verdict indefinite (min_eig {min_eig:.3e}, trace {trace:.3e})"
    if not (min_eig >= -1e-8 * trace):
        return f"min_eig {min_eig:.3e} below -1e-8 * trace {trace:.3e}"
    if not (entries == entries.conj().T).all():
        return "matrix is not exactly Hermitian"
    diag = ref["diag"]
    reason = close(trace, ref["trace"], "rel", GRAM_C * UNIT_ROUNDOFF)
    if reason:
        return f"trace {reason}"
    for (i, j), r in zip(pairs, ref["entries"]):
        scale = GRAM_C * UNIT_ROUNDOFF * math.sqrt(diag[i] * diag[j])
        reason = close(complex(entries[i, j]), r, "abs", scale)
        if reason:
            return f"entry ({i}, {j}) {reason}"
    return None


def check_verify(returncode: int, stdout: bytes) -> str | None:
    """A verify report must exit 0 and list no failed check."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if report.get("n_failed") != 0:
        return f"n_failed = {report.get('n_failed')}: {report.get('failed')}"
    return None
