#!/usr/bin/env python3
"""Regenerate the bundled golden-values file.

Every entry is computed at 50-digit working precision by two independent
methods (series vs. quadrature, closed form vs. recurrence, ...); a value is
only written if the two methods agree to 1e-38.  The moments eta_n come from
tests/mp_oracle.py, the one home of the test suite's mpmath references; this
script keeps the quadrature and series routes that witness them.  The output
is committed as src/hfock/data/golden_values.json and loaded read-only by the
test suite.

Requires mpmath.  The installed package never imports this script.
"""
from __future__ import annotations

import json
import pathlib
import sys

import mpmath as mp

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
import mp_oracle  # noqa: E402

mp.mp.dps = 50

OUT = ROOT / "src" / "hfock" / "data" / "golden_values.json"

entries: dict[str, dict[str, str]] = {}


def put(name: str, a, b, oracle: str) -> None:
    gap = abs(a - b)
    if gap > mp.mpf("1e-38"):
        raise SystemExit(f"{name}: cross-method gap {mp.nstr(gap, 5)} too large")
    entries[name] = {"value": mp.nstr(a, 40), "oracle": oracle}


def e1_series(x):
    # E1(x) = -gamma - log(x) + sum_{k>=1} (-1)^(k+1) x^k / (k k!)
    s = mp.nsum(lambda k: (-1) ** (k + 1) * mp.mpf(x) ** k / (k * mp.factorial(k)),
                [1, mp.inf])
    return -mp.euler - mp.log(x) + s


def e1_quad(x):
    return mp.quad(lambda t: mp.exp(-x * t) / t, [1, mp.inf])


def eta_quad(n):
    return mp.quad(lambda t: t ** n * mp.exp(-t) / (1 + t) ** 2, [0, mp.inf])


def main() -> None:
    put("euler_gamma", mp.euler, -mp.digamma(1),
        "Euler-Mascheroni constant; mpmath reference constant cross-checked "
        "against -digamma(1) at 50 digits")

    for x in (1, 2):
        put(f"e1_of_{x}", e1_series(x), e1_quad(x),
            f"E1({x}) by the alternating power series (-gamma - log x + sum) "
            "against tanh-sinh quadrature of exp(-x t)/t over (1, inf), 50 digits")

    put("e2_of_1", mp.exp(-1) - e1_series(1),
        mp.quad(lambda t: mp.exp(-t) / t ** 2, [1, mp.inf]),
        "E2(1) via the first-order recurrence exp(-1) - E1(1) against "
        "tanh-sinh quadrature of exp(-t)/t^2 over (1, inf)")

    for n in (0, 1, 2, 3, 5, 10):
        put(f"eta{n}", eta_quad(n), mp_oracle.eta(n),
            f"moment integral of t^{n} exp(-t)/(1+t)^2 over (0, inf) by "
            "tanh-sinh quadrature against the forward E_n(1) recurrence of "
            "tests/mp_oracle.py, 50 digits")

    put("int_exp_over_one_plus_t",
        mp.quad(lambda t: mp.exp(-t) / (1 + t), [0, mp.inf]),
        mp.e * e1_series(1),
        "integral of exp(-t)/(1+t) over (0, inf) by tanh-sinh quadrature "
        "against e*E1(1) from the alternating series")

    # reciprocal-moment series sum_{n} z^n / eta_n at z = +1 and z = -1;
    # 1/eta_n <= 8 * 2^n / n! so 140 terms leave a tail far below 1e-45
    etas_quad = [eta_quad(n) for n in range(141)]
    for z, name in ((1, "efun_at_1"), (-1, "efun_at_minus_1")):
        s_quad = mp.fsum(mp.mpf(z) ** n / etas_quad[n] for n in range(141))
        put(name, s_quad, mp_oracle.efun(z).real,
            f"sum of {z}^n / eta_n to n=140 (certified tail < 1e-45 from "
            "eta_n >= n!/(8*2^n)) with eta_n from per-n quadrature against "
            "the 40-digit efun of tests/mp_oracle.py")

    put("zeta_2_1", mp.zeta(2),
        mp.quad(lambda t: t * mp.exp(-t) / (1 - mp.exp(-t)), [0, mp.inf]),
        "zeta(2) = pi^2/6; mpmath zeta against tanh-sinh quadrature of the "
        "integral representation t/(e^t (1 - e^-t)) over (0, inf)")

    put("phi1_at_half", 2 * mp.log(2),
        mp.nsum(lambda k: mp.mpf("0.5") ** k / (k + 1), [0, mp.inf]),
        "sum of 0.5^k/(k+1) against the closed form -log(1-z)/z = 2 log 2")

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {OUT}")


if __name__ == "__main__":
    main()
