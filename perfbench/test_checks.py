"""Self-tests of the benchmark's oracle and checks: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import math
import os

import mpmath as mp
import numpy as np
import pytest

import checks
import oracle
import workloads

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "src", "hfock", "data", "golden_values.json")

ORACLE_FOR_GOLDEN = {
    "e1_of_1": lambda: oracle.en(1, 1),
    "e1_of_2": lambda: oracle.en(1, 2),
    "e2_of_1": lambda: oracle.en(2, 1),
    "efun_at_1": lambda: oracle.efun(1),
    "efun_at_minus_1": lambda: oracle.efun(-1),
    "euler_gamma": lambda: -mp.digamma(1),
    "int_exp_over_one_plus_t": lambda: mp.e * oracle.en(1, 1),
    "phi1_at_half": lambda: oracle.phi(1, 0.5),
    "zeta_2_1": lambda: oracle.hurwitz_zeta(2, 1),
    **{f"eta{n}": (lambda n=n: oracle.eta(n)) for n in range(11)},
}


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(_golden()))
def test_oracle_reproduces_golden_values(name):
    golden = mp.mpf(_golden()[name]["value"])
    value = ORACLE_FOR_GOLDEN[name]()
    assert abs(value - golden) <= mp.mpf("1e-38") * max(1, abs(golden))


def test_lerch_oracle_matches_mpmath_lerchphi():
    for z, s, a in ((0.3 + 0.4j, 1.0, 2.0), (-0.9 + 0.1j, 2.5, 0.7), (0.94, 0.5, 3.0)):
        assert abs(oracle.lerch_phi(z, s, a) - mp.lerchphi(mp.mpc(z), s, a)) < mp.mpf("1e-38")
    for n, z in ((1, 0.2j), (3, 0.9 - 0.3j), (2, -0.7)):
        assert abs(oracle.phi(n, z) - mp.lerchphi(mp.mpc(z), 1, n)) < mp.mpf("1e-38")


@pytest.mark.parametrize("kind", sorted(checks.TOLERANCES))
def test_value_check_rejects_ten_times_tol(kind):
    mode, tol = checks.TOLERANCES[kind]
    ref = 0.75 - 0.25j if kind in ("kernel", "phi", "lerch_phi", "bargmann_kernel",
                                   "generating_series", "lerch_phi_integral") else 0.75

    def off(factor):
        return ref * (1.0 + factor * tol) if mode == "rel" else ref + factor * tol

    if kind == "en_family":
        assert checks.check_value(kind, [ref, off(0.1)], [ref, ref]) is None
        assert checks.check_value(kind, [ref, off(10.0)], [ref, ref]) is not None
    elif kind == "en_integral_identity":
        assert checks.check_value(kind, (off(0.1), ref), ref) is None
        assert checks.check_value(kind, (ref, off(10.0)), ref) is not None
    elif kind == "eta_table":
        class Table:
            def __init__(self, eta):
                self.eta, self.n_max = tuple(eta), len(eta) - 1
        assert checks.check_value(kind, Table([ref, off(0.1)]), [ref, ref]) is None
        assert checks.check_value(kind, Table([ref, off(10.0)]), [ref, ref]) is not None
    else:
        assert checks.check_value(kind, off(0.1), ref) is None
        assert checks.check_value(kind, off(10.0), ref) is not None
    assert checks.check_value("kernel", math.nan, 1.0) is not None


def _gram_case(m=12):
    """Gram matrix of exp(z conj w) and its exact references."""
    rng = np.random.default_rng(0)
    z = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
    entries = np.exp(np.outer(z, z.conj()))
    entries = 0.5 * (entries + entries.conj().T)
    pairs = [(0, 0), (1, 5), (3, 11), (7, 7)]
    diag = [float(entries[i, i].real) for i in range(m)]
    ref = {"diag": diag, "trace": math.fsum(diag),
           "entries": [complex(entries[i, j]) for i, j in pairs]}
    min_eig = float(np.linalg.eigvalsh(entries)[0])
    return entries, min_eig, pairs, ref


def test_gram_check_accepts_exact_matrix():
    entries, min_eig, pairs, ref = _gram_case()
    assert checks.check_gram(entries, min_eig, ref["trace"], True, pairs, ref) is None


def test_gram_check_rejects_entry_off_by_1e8_relative():
    entries, min_eig, pairs, ref = _gram_case()
    bad = entries.copy()
    bad[1, 5] *= 1.0 + 1e-8
    bad[5, 1] = bad[1, 5].conjugate()
    assert "entry (1, 5)" in checks.check_gram(bad, min_eig, ref["trace"], True, pairs, ref)


def test_gram_check_rejects_indefinite_matrix():
    entries, _, pairs, ref = _gram_case()
    bad = entries - 2.0 * np.linalg.eigvalsh(entries)[-1] * np.eye(len(entries))
    min_eig = float(np.linalg.eigvalsh(bad)[0])
    trace = float(bad.trace().real)
    assert checks.check_gram(bad, min_eig, trace, False, pairs, ref) is not None
    assert checks.check_gram(bad, min_eig, abs(trace), True, pairs, ref) is not None


def test_gram_check_rejects_inexact_hermitian():
    entries, min_eig, pairs, ref = _gram_case()
    bad = entries.copy()
    bad[2, 3] += 1e-12
    assert checks.check_gram(bad, min_eig, ref["trace"], True, pairs, ref) == \
        "matrix is not exactly Hermitian"


def test_verify_check():
    good = json.dumps({"schema": 1, "n_failed": 0, "failed": []}).encode()
    bad = json.dumps({"schema": 1, "n_failed": 1, "failed": ["eta-bounds-log-scale"]}).encode()
    assert checks.check_verify(0, good) is None
    assert "n_failed = 1" in checks.check_verify(0, bad)
    assert checks.check_verify(3, bad) is not None
    assert checks.check_verify(2, b"") is not None


@pytest.mark.parametrize("workload", ["verify", "gram", "quadrature"])
def test_op_lists_follow_the_seed(workload):
    make = workloads.ROUNDS[workload]
    assert make(5) == make(5)
    assert make(5) != make(6)
    fault_share = sum(op[2] for op in make(5)) / len(make(5))
    assert fault_share == sum(op[2] for op in make(6)) / len(make(6))
