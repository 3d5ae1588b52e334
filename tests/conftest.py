import pytest

from hfock import golden


@pytest.fixture(scope="session")
def gold():
    """Golden values (pre-computed at 50 digits, see tools/) as floats."""
    return {name: float(entry["value"]) for name, entry in golden.load().items()}


@pytest.fixture(scope="session")
def mp_oracle():
    """The 40-digit mpmath references of ``tests/mp_oracle.py``; a test that
    asks for them is skipped where mpmath is not installed."""
    pytest.importorskip("mpmath")
    import mp_oracle
    return mp_oracle


@pytest.fixture(scope="session")
def laplace_bound():
    """n -> the relative error bound that ``expint.laplace_en`` documents at
    order n, (10 n + n^2/25) 2^-53; ``lerch.phi`` inherits it."""
    return lambda n: (10 * n + n * n / 25) * 2.0 ** -53
