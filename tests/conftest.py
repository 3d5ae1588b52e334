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
