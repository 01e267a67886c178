"""Shared helpers for the test suite."""

import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import settings

from nashblowup.limits import limit_ideal
from nashblowup.parser import parse_polynomial

# the same examples on every run, so that a failure repeats and the suite's
# time does not change with the draw; @settings on a test keeps this
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def P(text, ring):
    """Shorthand: parse a polynomial over the given variable names."""
    return parse_polynomial(text, tuple(ring))


def F(x):
    return Fraction(x)


def as_sympy(f, symbols):
    """f as a sympy expression, its ring's variables mapped to `symbols`."""
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[v ** e for v, e in zip(symbols, m)])
                for m, c in f.terms.items()), sympy.Integer(0))


# limit ideals at the origin at n=2, computed once per session: the node
# takes seconds, and test_limits and test_acceptance both check it
@pytest.fixture(scope="session")
def cusp_result():
    return limit_ideal(P("x^3 - y^2", ("x", "y")), 2, (0, 0))


@pytest.fixture(scope="session")
def node_result():
    return limit_ideal(P("x^3 + x^2 - y^2", ("x", "y")), 2, (0, 0))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, ()):
            nodeid = getattr(rep, "nodeid", "")
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)\w*", nodeid)
            if m and getattr(rep, "when", "call") == "call":
                verdict = "PASS" if outcome == "passed" else "FAIL"
                rows.append((int(m.group(1)), verdict, nodeid.split("::")[1]))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num, verdict, name in sorted(rows):
            terminalreporter.write_line(f"criterion {num:2d}: {verdict}  {name}")
