"""Read-only access to the bundled golden-values file.

The file is a JSON map ``name -> {value, oracle}`` where ``value`` is a
decimal string of at least 30 significant digits and ``oracle`` describes how
the value was computed (two independent high-precision methods per entry; see
tools/generate_golden_values.py).  Values were produced before the library and
pin its test suite.
"""
from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources


@lru_cache(maxsize=1)
def load() -> dict:
    """Return the bundled golden-values map."""
    return json.loads(resources.files("hfock.data").joinpath("golden_values.json").read_text())
