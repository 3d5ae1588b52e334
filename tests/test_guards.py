"""NaN and infinity fail every argument guard: no call returns nan or reports a failure
of the numerics in place of the guard's own error."""
import math

import pytest

from hfock import bargmann, expint, moments, space
from hfock.errors import ConfigurationError, DomainError

NAN = math.nan


@pytest.mark.parametrize("call", [
    lambda: space.efun(1.0, tol=NAN),
    lambda: space.efun(0.0, tol=NAN),
    lambda: space.kernel(1.0, 0.5j, tol=NAN),
    lambda: space.gram_kernel([0.5, 1j], tol=NAN),
    lambda: bargmann.bargmann_kernel(1.0, 0.5, NAN),
    lambda: bargmann.bargmann_kernel(0.0, 0.5, NAN),
], ids=["efun", "efun-at-0", "kernel", "gram_kernel", "bargmann_kernel",
        "bargmann_kernel-at-0"])
def test_nan_tol_raises(call):
    with pytest.raises(ConfigurationError, match="tol must be > 0"):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: bargmann.kernel_l2_norm_sq(NAN), ConfigurationError),
    (lambda: bargmann.bargmann_kernel(NAN, 0.5), ConfigurationError),
    (lambda: bargmann.hermite_generating_pair(NAN, 0.1), ConfigurationError),
    (lambda: bargmann.hermite_generating_pair(0.1, NAN), ConfigurationError),
    (lambda: moments.generating_series(NAN), DomainError),
    (lambda: moments.generating_series(complex(1.0, NAN)), DomainError),
    (lambda: moments.generating_closed_form(NAN), DomainError),
    (lambda: moments.generating_closed_form(complex(1.0, NAN)), DomainError),
    (lambda: expint.incomplete_gamma_int(3, NAN), DomainError),
    (lambda: expint.e1(NAN), DomainError),
    (lambda: expint.en_family(3, NAN), DomainError),
    (lambda: expint.en_family(3, math.inf), DomainError),
    (lambda: expint.e1(math.inf), DomainError),
    (lambda: expint.e1(complex(2.0, NAN)), DomainError),
    (lambda: expint.incomplete_gamma_int(3, math.inf), DomainError),
    (lambda: space.efun(NAN), DomainError),
    (lambda: space.efun(math.inf), DomainError),
    (lambda: space.kernel(math.inf, 1.0), DomainError),
], ids=["kernel_l2_norm_sq", "bargmann_kernel", "hermite_generating_pair-z",
        "hermite_generating_pair-x", "generating_series", "generating_series-imag",
        "generating_closed_form", "generating_closed_form-imag", "incomplete_gamma_int",
        "e1", "en_family", "en_family-inf", "e1-inf", "e1-imag", "incomplete_gamma_int-inf",
        "efun", "efun-inf", "kernel-inf"])
def test_nan_argument_fails_the_guard(call, error):
    with pytest.raises(error):
        call()
