"""Numerics for a weighted Fock-type space of entire functions.

Submodules:

* ``numerics``  -- Gauss rules, adaptive semi-infinite integration,
  Hermitian eigen-diagnostics, Wirtinger finite differences
* ``expint``    -- exponential integrals E_n, incomplete gamma, Laplace
  transform of E_n
* ``moments``   -- the moment sequence eta_n by three cross-checked routes
  and its generating function
* ``space``     -- the entire function efun, the reproducing kernel,
  coefficient norms, Gram diagnostics
* ``bargmann``  -- orthonormal Hermite functions and the moment-weighted
  Bargmann kernel
* ``lerch``     -- disk kernels phi_n, Lerch transcendent, Hurwitz zeta,
  kernel-class audits
* ``dbar``      -- polyanalytic series and residual checks for
  du/d(conj z) = f
"""

from . import bargmann, dbar, expint, golden, lerch, moments, numerics, space
from .errors import (AccuracyError, ConfigurationError, DomainError,
                     PrecisionLossError, ValidationError)

__version__ = "0.1.0"

__all__ = [
    "bargmann", "dbar", "expint", "golden", "lerch", "moments", "numerics",
    "space", "AccuracyError", "ConfigurationError", "DomainError",
    "PrecisionLossError", "ValidationError", "__version__",
]
