"""The mpmath references of mp_oracle.py against routes of their own."""
import pathlib
import subprocess
import sys

import pytest

from hfock import golden


@pytest.mark.parametrize("n", [0, 1, 2, 50, 170, 1000])
def test_eta_recurrence_matches_the_expint_closed_form(mp_oracle, n):
    ctx = mp_oracle.ctx
    with ctx.workdps(70):
        closed = (1 - ctx.e * ctx.e1(1) if n == 0
                  else (ctx.e * (1 + n) * ctx.expint(n, 1) - 1) * ctx.gamma(n))
        assert abs(mp_oracle.eta(n) - closed) <= ctx.mpf(10) ** -45 * closed


# sum |t| / |sum t| is 10^141.7 at -300 and 10^130.3 at 300i.  At -241.5 the
# first sum, at 150 digits, keeps too few (the cancellation is 10^114.3), so
# the 40 digits need the retry
@pytest.mark.parametrize("q, value", [
    (-300, 3.57778761452815e-7), (300j, 2588.50650991779 + 89961.7981127561j),
    (-100, 2.79117930014039e-5), (-40, 3.33777326705384e-4), (-241.5, -2.33454768916157e-5)])
def test_efun_keeps_40_digits_through_cancellation(mp_oracle, q, value):
    ctx = mp_oracle.ctx
    a, b = mp_oracle.efun(q), mp_oracle.efun(q, dps=80)
    assert abs(a - b) <= ctx.mpf(10) ** -40 * abs(b)
    assert abs(complex(a) - value) <= 1e-14 * abs(value)


@pytest.mark.parametrize("z, x", [(2.75, -2.65), (1 - 1j, 1.5)])
def test_bargmann_kernel_keeps_40_digits(mp_oracle, z, x):
    ctx = mp_oracle.ctx
    a, b = mp_oracle.bargmann_kernel(z, x), mp_oracle.bargmann_kernel(z, x, dps=80)
    assert abs(a - b) <= ctx.mpf(10) ** -40 * abs(b)


# mp.zeta at 40 digits is 3.5e-10 off at (20, 100), 80 digits 5.5e-13 off at
# (50, 1e4) and 160 digits 5.2e-12 off at (55.7, 1956)
@pytest.mark.parametrize("s, a", [(20, 100), (50, 1e4), (55.7, 1956), (1.01, 0.5)])
def test_hurwitz_zeta_keeps_40_digits(mp_oracle, s, a):
    ctx = mp_oracle.ctx
    with ctx.workdps(500):
        ref = ctx.zeta(ctx.mpf(s), ctx.mpf(a))
    assert abs(mp_oracle.hurwitz_zeta(s, a) - ref) <= ctx.mpf(10) ** -40 * abs(ref)


def test_bargmann_kernel_hermite_normalisation(mp_oracle):
    # with every eta_n = n!, the series is the classical generating function
    # pi^(-1/4) exp(-(z^2 + x^2)/2 + sqrt(2) z x)
    ctx = mp_oracle.ctx
    z, x = ctx.mpc(0.7, -0.4), ctx.mpf(1.3)
    total = ctx.fsum(z ** n / ctx.sqrt(ctx.factorial(n)) * mp_oracle._psi(n, x)
                     for n in range(120))
    closed = ctx.exp(-(z * z + x * x) / 2 + ctx.sqrt(2) * z * x) / ctx.sqrt(ctx.sqrt(ctx.pi))
    assert abs(total - closed) <= ctx.mpf(10) ** -40 * abs(closed)


def test_import_leaves_hfock_and_pytest_out(mp_oracle):
    code = ("import sys; import mp_oracle; "
            "print(sorted({'hfock', 'pytest'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], cwd=pathlib.Path(__file__).parent,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


# every golden value with a cheap route of the oracle's
_CHEAP_ROUTES = {
    "e1_of_1": lambda o: o.ctx.e1(1),
    "e1_of_2": lambda o: o.ctx.e1(2),
    "e2_of_1": lambda o: o.ctx.expint(2, 1),
    "efun_at_1": lambda o: o.efun(1).real,
    "efun_at_minus_1": lambda o: o.efun(-1).real,
    "zeta_2_1": lambda o: o.hurwitz_zeta(2, 1),
    "phi1_at_half": lambda o: o.phi(1, 0.5).real,
    **{f"eta{n}": lambda o, n=n: o.eta(n) for n in (0, 1, 2, 3, 5, 10)},
}


def test_golden_values_match_the_oracle(mp_oracle):
    entries = golden.load()
    assert {name for name in entries if name.startswith("eta")} <= set(_CHEAP_ROUTES)
    ctx = mp_oracle.ctx
    for name, route in _CHEAP_ROUTES.items():
        ref = route(mp_oracle)
        assert abs(ctx.mpf(entries[name]["value"]) - ref) <= ctx.mpf(10) ** -38 * abs(ref), name
