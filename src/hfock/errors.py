"""Exception taxonomy shared by all modules, and the argument checks that raise it."""

import operator


class ConfigurationError(ValueError):
    """An argument is outside the supported configuration range."""


class DomainError(ValueError):
    """A mathematical argument is outside the domain of the operation."""


class ValidationError(ValueError):
    """Structured input failed a consistency check (e.g. non-Hermitian matrix)."""


class PrecisionLossError(ValueError):
    """The requested computation cannot be delivered at double precision."""


class AccuracyError(ArithmeticError):
    """The error target could not be met within the work budget.

    The best available result, when one exists, is attached as ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


def check_order(where: str, name: str, n, lo: int, hi: float) -> int:
    """``n`` as an int when it is an integer in [lo, hi]: an int or anything
    ``operator.index`` accepts (numpy integers), never a float, not even 5.0;
    hi may be math.inf.  Anything else raises :class:`ConfigurationError` under ``where``."""
    try:
        i = operator.index(n)
    except TypeError:
        i = None
    if i is None or not lo <= i <= hi:
        raise ConfigurationError(f"{where}: {name} must be an integer in [{lo}, {hi}], got {n}")
    return i


def check_tol(where: str, tol: float) -> None:
    """Raise :class:`ConfigurationError` under ``where`` unless tol > 0; a NaN tol raises."""
    if not tol > 0.0:
        raise ConfigurationError(f"{where}: tol must be > 0, got {tol}")


def refuse_unread(where: str, given: dict) -> None:
    """Raise :class:`ConfigurationError` naming each option of ``given``
    (name -> value) that was set, not None, though ``where`` does not read it."""
    names = [name for name, value in given.items() if value is not None]
    if names:
        raise ConfigurationError(f"{where} reads no {', '.join(names)}")
