"""Acceptance checks kept outside the verify registry.

Most exit criteria run as named checks in ``hfock.verify`` (see
``tests/test_verify.py``).  The two below stay here at their stated
tolerances.  Each prints one [PASS]/[FAIL] line (run with ``pytest -s`` to
watch them) and asserts the criterion.
"""
from hfock import expint, moments


def _report(num, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_03_factorial_sum():
    s = moments.eta_factorial_sum(1000)
    prefix = [moments.eta_factorial_sum(n) for n in (10, 100, 500, 1000)]
    ok = 1.0 - 1.1 / 1000.0 < s <= 1.0 and all(
        a < b for a, b in zip(prefix, prefix[1:]))
    _report(3, "sum of eta_n/n! reaches 1", ok, f"S(1000) = {s:.12f}")


def test_criterion_11_golden_value_pins(gold):
    pins = [
        ("eta0", moments.eta_closed_form(0)),
        ("eta1", moments.eta_closed_form(1)),
        ("e1_of_1", expint.e1(1.0)),
    ]
    worst = 0.0
    for name, got in pins:
        worst = max(worst, abs(got - gold[name]))
    _report(11, "golden-value pins reproduced", worst <= 1e-12, f"max gap {worst:.2e}")
