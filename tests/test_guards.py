"""NaN and infinity fail every argument guard: no call returns nan or reports a failure
of the numerics in place of the guard's own error.  An order argument is an integer in
its function's range, or the call raises ConfigurationError."""
import math

import numpy as np
import pytest

from hfock import bargmann, dbar, expint, lerch, moments, numerics, space
from hfock.errors import ConfigurationError, DomainError, PrecisionLossError, check_order

NAN = math.nan
_DBAR_U = dbar.assemble_solution(space.EntireSeries((1.0,)), space.EntireSeries((0j,)))


@pytest.mark.parametrize("call", [
    lambda: space.efun(1.0, tol=NAN),
    lambda: space.efun(0.0, tol=NAN),
    lambda: space.kernel(1.0, 0.5j, tol=NAN),
    lambda: space.gram_kernel([0.5, 1j], tol=NAN),
    lambda: bargmann.bargmann_kernel(1.0, 0.5, NAN),
    lambda: bargmann.bargmann_kernel(0.0, 0.5, NAN),
    lambda: numerics.integrate_semi_infinite(lambda t: math.exp(-t), NAN),
    lambda: moments.eta_quadrature(3, NAN),
    lambda: lerch.lerch_phi(0.5, 2.0, 1.0, NAN),
], ids=["efun", "efun-at-0", "kernel", "gram_kernel", "bargmann_kernel",
        "bargmann_kernel-at-0", "integrate_semi_infinite", "eta_quadrature", "lerch_phi"])
def test_nan_tol_raises(call):
    with pytest.raises(ConfigurationError, match="tol must be > 0"):
        call()


# (call, error, the function whose guard names the argument)
@pytest.mark.parametrize("call, error, where", [
    (lambda: bargmann.kernel_l2_norm_sq(NAN), ConfigurationError, "kernel_l2_norm_sq"),
    (lambda: bargmann.bargmann_kernel(NAN, 0.5), ConfigurationError, "bargmann_kernel"),
    (lambda: bargmann.hermite_generating_pair(NAN, 0.1), ConfigurationError,
     "hermite_generating_pair"),
    (lambda: bargmann.hermite_generating_pair(0.1, NAN), ConfigurationError,
     "hermite_generating_pair"),
    (lambda: moments.generating_series(NAN), DomainError, "generating_series"),
    (lambda: moments.generating_series(complex(1.0, NAN)), DomainError, "generating_series"),
    (lambda: moments.generating_closed_form(NAN), DomainError, "generating_closed_form"),
    (lambda: moments.generating_closed_form(complex(1.0, NAN)), DomainError,
     "generating_closed_form"),
    (lambda: expint.incomplete_gamma_int(3, NAN), DomainError, "incomplete_gamma_int"),
    (lambda: expint.e1(NAN), DomainError, "e1"),
    (lambda: expint.en_family(3, NAN), DomainError, "en_family_scaled"),
    (lambda: expint.en_family(3, math.inf), DomainError, "en_family_scaled"),
    (lambda: expint.e1(math.inf), DomainError, "e1"),
    (lambda: expint.e1(complex(2.0, NAN)), DomainError, "e1"),
    (lambda: expint.incomplete_gamma_int(3, math.inf), DomainError, "incomplete_gamma_int"),
    (lambda: space.efun(NAN), DomainError, "efun"),
    (lambda: space.efun(math.inf), DomainError, "efun"),
    (lambda: space.kernel(math.inf, 1.0), DomainError, "efun"),
    (lambda: dbar.dbar_residual(_DBAR_U, space.EntireSeries((1.0,)), [NAN, 0.0]),
     ConfigurationError, "dbar_residual"),
    (lambda: dbar.dbar_residual(_DBAR_U, space.EntireSeries((1.0,)), [0.5 + 0.5j, NAN]),
     ConfigurationError, "dbar_residual"),
    (lambda: lerch.lerch_phi_integral(NAN, 2.0, 1.0), DomainError, "lerch_phi_integral"),
    (lambda: lerch.lerch_phi_integral(0.5, NAN, 1.0), ConfigurationError, "lerch_phi_integral"),
    (lambda: lerch.lerch_phi_integral(0.5, 2.0, NAN), DomainError, "lerch_phi_integral"),
    (lambda: bargmann.weighted_generating_pair(0.1, NAN), ConfigurationError,
     "weighted_generating_pair"),
    (lambda: bargmann.weighted_generating_pair(NAN, 0.5), DomainError,
     "weighted_generating_pair"),
], ids=["kernel_l2_norm_sq", "bargmann_kernel", "hermite_generating_pair-z",
        "hermite_generating_pair-x", "generating_series", "generating_series-imag",
        "generating_closed_form", "generating_closed_form-imag", "incomplete_gamma_int",
        "e1", "en_family", "en_family-inf", "e1-inf", "e1-imag", "incomplete_gamma_int-inf",
        "efun", "efun-inf", "kernel-inf", "dbar_residual-first", "dbar_residual-second",
        "lerch_phi_integral-z", "lerch_phi_integral-s", "lerch_phi_integral-a",
        "weighted_generating_pair-x", "weighted_generating_pair-z"])
def test_nan_argument_fails_the_guard(call, error, where):
    with pytest.raises(error, match=f"^{where}: "):
        call()


# (function, lowest and highest order, the call at order n, the error above the highest)
_ORDERS = [
    ("hermite_psi", 0, 1000, lambda n: bargmann.hermite_psi(n, 0.5), ConfigurationError),
    ("poly_fock_kernel", 1, 20, lambda n: dbar.poly_fock_kernel(n, 0.3, 0.2j), ConfigurationError),
    ("en_family_scaled", 0, 10_000, lambda n: expint.en_family_scaled(n, 1.5), ConfigurationError),
    ("incomplete_gamma_int", 1, 170, lambda n: expint.incomplete_gamma_int(n, 1.0),
     ConfigurationError),
    ("en_negative_order_at_1", 2, 171, expint.en_negative_order_at_1, ConfigurationError),
    ("laplace_en", 1, 10_000, lambda n: expint.laplace_en(n, 0.1), ConfigurationError),
    ("phi", 1, 10_000, lambda n: lerch.phi(n, 0.1), ConfigurationError),
    ("gram_phi", 1, 10_000, lambda n: lerch.gram_phi(n, [0.1, 0.2j]), ConfigurationError),
    ("residual_sequence", 1, 10_000, moments.residual_sequence, ConfigurationError),
    ("eta_closed_form", 0, 170, moments.eta_closed_form, ConfigurationError),
    ("log_eta", 0, 10_000, moments.log_eta, ConfigurationError),
    ("log_eta_sequence", 0, 10_000, moments.log_eta_sequence, ConfigurationError),
    ("eta_quadrature", 0, 170, moments.eta_quadrature, ConfigurationError),
    ("log_eta_quadrature", 0, 400, moments.log_eta_quadrature, ConfigurationError),
    ("eta_binomial", 0, 25, moments.eta_binomial, PrecisionLossError),
    ("eta_table", 0, 10_000, moments.eta_table, ConfigurationError),
    ("eta_factorial_sum", 0, 10_000, moments.eta_factorial_sum, ConfigurationError),
    ("en_integral_identity", 0, 60, moments.en_integral_identity, ConfigurationError),
    ("gauss_laguerre", 1, 64, numerics.gauss_laguerre, ConfigurationError),
    ("gauss_hermite", 1, 200, numerics.gauss_hermite, ConfigurationError),
    ("monomial", 0, 10_000, space.EntireSeries.monomial, ConfigurationError),
    ("exponential", 0, 10_000, lambda n: space.EntireSeries.exponential(1.0, n), ConfigurationError),
]


@pytest.mark.parametrize("name, lo, hi, call, over", _ORDERS, ids=[row[0] for row in _ORDERS])
@pytest.mark.parametrize("order", ["2.5", "5.0", "nan", "lo-1", "hi+1"])
def test_order_off_the_rule_is_refused(name, lo, hi, call, over, order):
    n = {"2.5": 2.5, "5.0": 5.0, "nan": NAN, "lo-1": lo - 1, "hi+1": hi + 1}[order]
    if order == "hi+1" and over is not ConfigurationError:
        with pytest.raises(over):
            call(n)
        return
    with pytest.raises(ConfigurationError, match=rf"^{name}: \w+ must be an integer in \[{lo}, "):
        call(n)


@pytest.mark.parametrize("name, lo, hi, call, over", _ORDERS, ids=[row[0] for row in _ORDERS])
def test_order_at_either_end_is_accepted(name, lo, hi, call, over):
    call(lo)
    call(hi)


# the calls that returned a number for a non-integer order before the rule had one home
@pytest.mark.parametrize("call", [
    lambda: moments.eta_quadrature(5.5),
    lambda: moments.log_eta_quadrature(5.5),
    lambda: expint.laplace_en(2.5, 0.1),
    lambda: lerch.phi(2.5, 0.1),
    lambda: lerch.gram_phi(1.5, [0.1, 0.2j]),
], ids=["eta_quadrature(5.5)", "log_eta_quadrature(5.5)", "laplace_en(2.5, 0.1)",
        "phi(2.5, 0.1)", "gram_phi(1.5)"])
def test_non_integer_order_returns_no_number(call):
    with pytest.raises(ConfigurationError, match="must be an integer in"):
        call()


def test_numpy_integer_order_is_an_int():
    assert check_order("f", "n", np.int64(7), 0, 10) == 7
    assert type(check_order("f", "n", np.int64(7), 0, 10)) is int
    assert moments.log_eta(np.int64(5)) == moments.log_eta(5)
    with pytest.raises(ConfigurationError,
                       match=r"^f: n must be an integer in \[0, 10\], got 7.0$"):
        check_order("f", "n", np.float64(7.0), 0, 10)


# an empty coefficient tuple is no series: its degree, -1, is off the order rule
@pytest.mark.parametrize("call", [
    lambda: space.EntireSeries(()),
    lambda: space.EntireSeries([]),
    lambda: space.EntireSeries.monomial(-1),
    lambda: space.EntireSeries.exponential(1.0, -1),
], ids=["EntireSeries(())", "EntireSeries([])", "monomial(-1)", "exponential(1.0, -1)"])
def test_series_of_no_coefficient_is_refused(call):
    with pytest.raises(ConfigurationError, match=r"must be an integer in \[0, 10000\], got -1$"):
        call()
