"""Shared helpers for the test suite."""

import collections
import itertools
import math
import re
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import settings
from sympy.polys.matrices import DomainMatrix

from nashblowup.groebner import Ideal, buchberger, eliminate
from nashblowup.hjac import maximal_minors
from nashblowup.limits import describe_planes, limit_ideal, translate_to_origin
from nashblowup.parser import parse_polynomial
from nashblowup.polynomial import Polynomial, _fresh, grevlex

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


def sympy_det(rows):
    """Determinant of a square matrix of Polynomials over one ring, taken by
    sympy's DomainMatrix and converted back to a Polynomial."""
    ring = rows[0][0].ring
    symbols = sympy.symbols(ring)
    matrix = DomainMatrix.from_list_sympy(
        len(rows), len(rows), [[as_sympy(e, symbols) for e in row] for row in rows])
    det = sympy.Poly(matrix.domain.to_sympy(matrix.det()), *symbols)
    return Polynomial(ring, {m: Fraction(c.p, c.q)
                             for m, c in det.as_dict().items()})


def sympy_rref(rows):
    """sympy's RREF of a matrix of exact rationals: its nonzero rows, as lists
    of Fractions, and its pivot columns."""
    R, pivots = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                              for row in rows]).rref()
    return ([[Fraction(int(c.p), int(c.q)) for c in R.row(r)] for r in range(len(pivots))],
            list(pivots))


def factorial(alpha):
    """alpha! = alpha_1! * ... * alpha_s!."""
    return math.prod(map(math.factorial, alpha))


def taylor_coeff(f, alpha):
    """The Taylor coefficient d^alpha f / alpha!, exactly."""
    return f.derivative(alpha).scalar_mul(Fraction(1, factorial(alpha)))


def sub(alpha, beta):
    """The multi-index alpha - beta, for beta <= alpha componentwise."""
    return tuple(a - b for a, b in zip(alpha, beta))


def entry(jac, beta, alpha):
    """The (beta, alpha) entry of a `HigherJacobian`, read from its grid by the labels."""
    return jac.entries[jac.row_labels.index(tuple(beta))][jac.col_labels.index(tuple(alpha))]


def translate(f, point):
    """f(x + point), by substituting x_i + p_i for each x_i: the reference
    for the Taylor expansion at a point, which `limits.translate_to_origin`,
    `hjac.evaluate_at` and `hilbert.nonsingular_by_dimension` share."""
    return f.substitute({v: Polynomial.variable(f.ring, v) + p for v, p in zip(f.ring, point)})


def is_row_echelon(matrix):
    """True iff each nonzero row's first nonzero entry lies right of the
    previous row's, and zero rows come last."""
    last = -1
    for row in matrix:
        pivot = next((j for j, v in enumerate(row) if v != 0), None)
        if pivot is None:
            last = len(row)  # all later rows must be zero too
            continue
        if pivot <= last:
            return False
        last = pivot
    return True


def s_poly(f, g, order):
    """S(f, g) = m_f*f - m_g*g with m_p = (lcm(lt f, lt g) / lt p) / lc p."""
    lt_f, lt_g = f.leading_monomial(order), g.leading_monomial(order)
    lcm = tuple(max(a, b) for a, b in zip(lt_f, lt_g))
    m_f = Polynomial(f.ring, {tuple(a - b for a, b in zip(lcm, lt_f)): 1 / f.terms[lt_f]})
    m_g = Polynomial(g.ring, {tuple(a - b for a, b in zip(lcm, lt_g)): 1 / g.terms[lt_g]})
    return m_f * f - m_g * g


def reference_basis(gens, order, ring):
    """The reduced Groebner basis of `gens` by plain Buchberger over Q: every
    S-pair reduced, first in first out, with no criteria; then minimised,
    tail-reduced and made monic, in increasing order of leading monomial.
    The reference for the pair bookkeeping of `groebner.buchberger`."""
    key = order.key_func(ring)

    def lead(f):
        return max(f.terms, key=key)

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def reduce(f, G):
        remainder = Polynomial.zero(ring)
        while not f.is_zero():
            m = lead(f)
            g = next((g for g in G if divides(lead(g), m)), None)
            if g is None:
                term = Polynomial(ring, {m: f.terms[m]})
                remainder, f = remainder + term, f - term
            else:
                f = f - g * Polynomial(ring, {sub(m, lead(g)): f.terms[m] / g.terms[lead(g)]})
        return remainder

    G = [g for g in gens if not g.is_zero()]
    queue = collections.deque(itertools.combinations(range(len(G)), 2))
    while queue:
        i, j = queue.popleft()
        r = reduce(s_poly(G[i], G[j], order), G)
        if not r.is_zero():
            queue.extend((k, len(G)) for k in range(len(G)))
            G.append(r)
    minimal = []
    for g in sorted(G, key=lambda g: key(lead(g))):
        if not any(divides(lead(h), lead(g)) for h in minimal):
            minimal.append(g)
    return [r.scalar_mul(1 / r.terms[lead(r)])
            for r in (reduce(g, [h for h in minimal if h is not g]) for g in minimal)]


def graph_ideal_limit(F, n, center):
    """(generators, planes) of the limit ideal by the paper's elimination
    over all lambda minors: t eliminated from <F, u_J - t*Delta_J> in the
    ring (t, x, u_1..u_lambda), x set to 0 and the rest reduced in grevlex
    over the u's.  The reference for `limit_ideal`, which eliminates over
    the free u's only."""
    shifted = translate_to_origin(F, center)
    minors = maximal_minors(shifted, n)
    tname = _fresh("t", F.ring)
    unames = tuple(_fresh(f"u_{k}", F.ring) for k in range(1, len(minors) + 1))
    ring_a = (tname,) + F.ring + unames
    t = Polynomial.variable(ring_a, tname)
    gens = [shifted.to_ring(ring_a)] + [
        Polynomial.variable(ring_a, u) - t * delta.to_ring(ring_a)
        for (_, delta), u in zip(minors, unames)]
    xu = eliminate(Ideal(ring_a, gens), (tname,))
    zero_x = {v: 0 for v in F.ring}
    projected = [h.to_ring(unames) for h in (g.substitute(zero_x) for g in xu.generators)
                 if not h.is_zero()]
    reduced = tuple(buchberger(projected, grevlex(), unames)) if projected else ()
    return reduced, describe_planes(reduced)


# limit ideals at the origin at n=2, computed once per session for
# test_limits and test_acceptance
@pytest.fixture
def digit_limit():
    """int()'s default limit of 4,300 digits on string conversion, where the
    interpreter has one (Python 3.11, and 3.10 from 3.10.7)."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no limit on the digits of a string conversion")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


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
