import math
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nashblowup.polynomial import (
    MonomialOrder,
    Polynomial,
    RingMismatchError,
    elimination_order,
    grevlex,
    grlex,
    lex,
)

from conftest import P, as_sympy, sub, taylor_coeff

RING2 = ("x", "y")
RING3 = ("x", "y", "z")


def rand_poly(ring, draw_terms):
    terms = {}
    for mono, num, den in draw_terms:
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(num, den)
    return Polynomial(ring, {m: c for m, c in terms.items() if c})


def poly_strategy(ring):
    s = len(ring)
    mono = st.tuples(*([st.integers(0, 3)] * s))
    term = st.tuples(mono, st.integers(-9, 9), st.integers(1, 9))
    return st.lists(term, min_size=0, max_size=5).map(
        lambda ts: rand_poly(ring, ts))


# -- arithmetic ------------------------------------------------------------


def test_product_fixture():
    x, y = Polynomial.variables(RING2)
    assert (x + y) * (x - y) == x * x - y * y


def test_additive_identity():
    f = P("x^2 - 3*y", RING2)
    assert f + Polynomial.zero(RING2) == f


def test_cube_coefficient():
    # (x - 2)^3 has coefficient -3*2 = -6 on x^2
    x = Polynomial.variable(("x",), "x")
    f = (x - Polynomial.constant(("x",), 2)) ** 3
    assert f.terms[(2,)] == -6


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        P("x", RING2) + P("x", RING3)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(RING3), poly_strategy(RING3), poly_strategy(RING3))
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40)
@given(poly_strategy(RING2), poly_strategy(RING2))
def test_evaluate_is_ring_hom(f, g):
    p = (Fraction(1, 2), Fraction(-3))
    assert (f * g).evaluate(p) == f.evaluate(p) * g.evaluate(p)
    assert (f + g).evaluate(p) == f.evaluate(p) + g.evaluate(p)


def assert_well_formed(f):
    for mono, c in f.terms.items():
        assert type(mono) is tuple and len(mono) == len(f.ring)
        assert type(c) is Fraction and c != 0


@settings(max_examples=60, deadline=None)
@given(poly_strategy(RING3),
       st.dictionaries(st.tuples(*([st.integers(0, 2)] * 3)), st.integers(-3, 3), max_size=5),
       st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 3)))
def test_arithmetic_matches_sympy(f, raw, alpha):
    # g is built from int coefficients, zeros among them, and its terms
    # cancel every term of f on a monomial with an even x exponent
    terms = {**raw, **{m: -c for m, c in f.terms.items() if m[0] % 2 == 0}}
    g = Polynomial(RING3, terms)
    x = sympy.symbols(RING3)
    sf, sg = as_sympy(f, x), as_sympy(g, x)
    assert_well_formed(g)
    assert sympy.expand(sg - sympy.Add(*[sympy.Rational(c) * sympy.Mul(*map(sympy.Pow, x, m))
                                         for m, c in terms.items()])) == 0
    for ours, theirs in ((f + g, sf + sg), (f - g, sf - sg), (f * g, sf * sg),
                         (f.derivative(alpha), sympy.diff(sf, *zip(x, alpha)))):
        assert_well_formed(ours)
        assert sympy.expand(as_sympy(ours, x) - theirs) == 0


def assert_canonical(f):
    """f's numerators are nonzero ints over a positive den in lowest terms,
    the same as those of f rebuilt from its rational terms."""
    assert f.den > 0 and math.gcd(f.den, *f.numerators.values()) == 1
    assert all(type(v) is int and v for v in f.numerators.values())
    assert_same(Polynomial(f.ring, f.terms), f)


def assert_same(f, g):
    """Equal values store equal (numerators, den) and hash alike."""
    assert (f.ring, f.numerators, f.den) == (g.ring, g.numerators, g.den)
    assert f == g and hash(f) == hash(g)


RING4 = ("w",) + RING3
NONZERO = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(RING3), poly_strategy(RING3), NONZERO, st.integers(0, 3),
       st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2)))
def test_every_operation_returns_the_canonical_form(f, g, c, k, alpha):
    # each result is canonical, and so is every other route to the same value
    x, y, z = Polynomial.variables(RING3)
    for h in (f + g, f - g, f * g, f.scalar_mul(c), f ** k, f.derivative(alpha),
              f.substitute({"x": g, "z": c}), f.to_ring(RING4), -f, f - f):
        assert_canonical(h)
    assert_same((f + g) - g, f)
    assert_same(f - f, Polynomial.zero(RING3))
    assert_same(f * g, g * f)
    assert_same(f.scalar_mul(c).scalar_mul(1 / c), f)
    assert_same(f.scalar_mul(c), f * Polynomial.constant(RING3, c))
    assert_same(f ** 2, f * f)
    assert_same(f.to_ring(RING4).to_ring(RING3), f)
    assert_same(f.substitute({"x": x, "y": y}), f)
    assert_same(Polynomial(RING3, {m: v * c for m, v in f.terms.items()}), f.scalar_mul(c))


def test_canonical_form_fixtures():
    half = P("1/2*x + 1/4*y", RING2)
    assert (half.numerators, half.den) == ({(1, 0): 2, (0, 1): 1}, 4)
    assert (half.scalar_mul(4).numerators, half.scalar_mul(4).den) == ({(1, 0): 2, (0, 1): 1}, 1)
    assert (half.scalar_mul(-8).numerators, half.scalar_mul(-8).den) == (
        {(1, 0): -4, (0, 1): -2}, 1)
    assert ((half - half).numerators, (half - half).den) == ({}, 1)
    assert half.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 4)}
    # the engine's constructor divides by a leading coefficient of either sign
    monic = Polynomial._over(RING2, {(1, 0): 6, (0, 1): -4}, -6)
    assert (monic.numerators, monic.den) == ({(1, 0): -3, (0, 1): 2}, 3)


# -- derivatives -----------------------------------------------------------


def test_derivative_fixtures():
    f = P("x^3 - y^2", RING2)
    assert f.derivative((1, 0)) == P("3*x^2", RING2)
    assert f.derivative((0, 2)) == P("-2", RING2)
    assert f.derivative((0, 0)) == f


def test_derivative_rejects_negative_indices():
    f = P("x^2*y + y", RING2)
    for alpha in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            f.derivative(alpha)


def test_taylor_coeff_fixtures():
    f = P("x^3 - y^2", RING2)
    assert taylor_coeff(f, (2, 0)) == P("3*x", RING2)
    assert taylor_coeff(f, (0, 2)) == P("-1", RING2)
    g = P("x*y - z^4", RING3)
    assert taylor_coeff(g, (0, 0, 2)) == P("-6*z^2", RING3)


@settings(max_examples=40)
@given(poly_strategy(RING2),
       st.tuples(st.integers(0, 2), st.integers(0, 2)),
       st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_derivative_composes(f, alpha, beta):
    ab = tuple(a + b for a, b in zip(alpha, beta))
    assert f.derivative(alpha).derivative(beta) == f.derivative(ab)


@settings(max_examples=40, deadline=None)
@given(poly_strategy(RING3), poly_strategy(RING3),
       st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 1)))
def test_general_leibniz_rule(f, g, alpha):
    # d^a(f g) = sum over b <= a of binom(a,b) d^(a-b) f * d^b g
    from nashblowup import multiindex as mi
    lhs = (f * g).derivative(alpha)
    rhs = Polynomial.zero(RING3)
    for beta in mi.enumerate_indices(3, 0, sum(alpha)):
        if not mi.leq(beta, alpha):
            continue
        coeff = math.prod(map(math.comb, alpha, beta))
        rhs = rhs + (f.derivative(sub(alpha, beta)) * g.derivative(beta)
                     ).scalar_mul(coeff)
    assert lhs == rhs


# -- substitution and components --------------------------------------------


def test_substitute_fixtures():
    ring = ("t", "x", "u_1")
    f = P("u_1 - t*x^2", ring)
    assert f.substitute({"x": Polynomial.zero(ring)}) == P("u_1", ring)
    g = P("x^3 - y^2", RING2)
    one = Polynomial.constant(RING2, 1)
    shifted = g.substitute({"x": Polynomial.variable(RING2, "x") + one})
    assert shifted == P("x^3 + 3*x^2 + 3*x + 1 - y^2", RING2)
    h = P("x*y - z^4", RING3)
    assert h.substitute({"z": Polynomial.zero(RING3)}) == P("x*y", RING3)


# -- monomial orders ---------------------------------------------------------


def test_compare_fixtures():
    # lex x > y: x beats y^2 regardless of degree
    key = lex().key_func(RING2)
    assert key((1, 0)) > key((0, 2))
    # grlex: degree dominates
    key = grlex().key_func(RING2)
    assert key((0, 2)) > key((1, 0))
    # elimination of t: t beats x^5
    key = elimination_order(("t",)).key_func(("t", "x", "y"))
    assert key((1, 0, 0)) > key((0, 5, 0))


def test_grevlex_vs_grlex_differ():
    # classic: x*z^2 vs y^3 with x > y > z (degree 3 each)
    # grlex: x wins; grevlex: smaller last exponent wins, so y^3 > x*z^2
    key = grlex().key_func(RING3)
    assert key((1, 0, 2)) > key((0, 3, 0))
    key = grevlex().key_func(RING3)
    assert key((1, 0, 2)) < key((0, 3, 0))


def test_elimination_order():
    key = elimination_order(("t",)).key_func(("t", "x", "y"))
    assert key((1, 0, 0)) > key((0, 9, 9))
    # the dropped variable need not come first in the ring
    key = elimination_order(("t",)).key_func(("x", "y", "t"))
    assert key((0, 0, 1)) > key((9, 9, 0))
    # within each block, grevlex in the ring's variable order
    assert key((0, 3, 1)) > key((1, 0, 1)) > key((1, 1, 0)) > key((0, 2, 0))
    # grevlex, not grlex, inside each block: y^3 > x*z^2
    ring = ("x", "y", "z", "t")
    for drop in (("t",), ("x", "y", "z")):
        key = elimination_order(drop).key_func(ring)
        assert key((0, 3, 0, 0)) > key((1, 0, 2, 0))
    with pytest.raises(ValueError):
        elimination_order(("q",)).key_func(RING2)


ORDERS = {"lex": lex(), "grlex": grlex(), "grevlex": grevlex(),
          "elim-x": elimination_order(("x",)), "elim-y": elimination_order(("y",)),
          "elim-z": elimination_order(("z",)), "elim-xy": elimination_order(("x", "y")),
          "elim-xz": elimination_order(("x", "z")), "elim-yz": elimination_order(("y", "z"))}


@settings(max_examples=120)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
       st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
       st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
       st.sampled_from(sorted(ORDERS)))
def test_orders_multiplicative_and_one_minimal(u, v, w, kind):
    key = ORDERS[kind].key_func(RING3)

    def compare(a, b):
        return (key(a) > key(b)) - (key(a) < key(b))

    c = compare(u, v)
    assert (c == 0) == (u == v)
    uw = tuple(a + b for a, b in zip(u, w))
    vw = tuple(a + b for a, b in zip(v, w))
    assert compare(uw, vw) == c
    if u != (0, 0, 0):
        assert compare(u, (0, 0, 0)) > 0


def test_leading_monomial():
    f = P("2*x^2*y + 4*y^3", RING2)
    assert f.leading_monomial(lex()) == (2, 1)
    # grevlex agrees here
    assert f.leading_monomial(grevlex()) == (2, 1)


# -- scalar operands and refusals ---------------------------------------------

HALF = "1/2*x - y"


@pytest.mark.parametrize("operation, expected", [
    (lambda f: f - 1, "1/2*x - y - 1"),
    (lambda f: 2 - f, "-1/2*x + y + 2"),
    (lambda f: 3 * f, "3/2*x - 3*y"),
    (lambda f: f * Fraction(2, 3), "1/3*x - 2/3*y"),
    (lambda f: f.scalar_mul(0), "0"),
], ids=["minus-int", "int-minus", "int-times", "times-fraction", "scalar-mul-zero"])
def test_scalar_operands(operation, expected):
    assert_same(operation(P(HALF, RING2)), P(expected, RING2))


def test_scalar_equality_and_foreign_operands():
    f = P(HALF, RING2)
    assert Polynomial.constant(RING2, 3) == 3 and f != 3
    assert Polynomial.constant(RING2, Fraction(1, 2)) == Fraction(1, 2)
    assert f != "x"
    with pytest.raises(TypeError, match="unsupported operand"):
        f + "x"


REFUSALS = {
    "empty ring": (lambda f: Polynomial((), {}), ValueError,
                   "ring needs at least one variable"),
    "repeated ring": (lambda f: Polynomial(("x", "x")), ValueError,
                      "duplicate variable names: ('x', 'x')"),
    "short exponents": (lambda f: Polynomial(RING2, {(1,): 1}), ValueError,
                        "exponent tuple (1,) has wrong length for ring ('x', 'y')"),
    "negative exponent": (lambda f: Polynomial(RING2, {(1, -1): 1}), ValueError,
                          "negative exponent in (1, -1)"),
    # terms are checked in order, each exponent tuple before its coefficient
    "float coefficient first": (lambda f: Polynomial(RING2, {(1, 0): 0.5, (1,): 1}), TypeError,
                                "not an exact rational scalar: 0.5"),
    "exponents before coefficient": (lambda f: Polynomial(RING2, {(1,): 0.5}), ValueError,
                                     "exponent tuple (1,) has wrong length for ring ('x', 'y')"),
    "float scalar": (lambda f: f.scalar_mul(0.5), TypeError, "not an exact rational scalar: 0.5"),
    "negative power": (lambda f: f ** -1, ValueError, "exponent must be a non-negative integer: -1"),
    "derivative length": (lambda f: f.derivative((1,)), ValueError,
                          "multi-index length does not match the ring"),
    "evaluate length": (lambda f: f.evaluate((1,)), ValueError,
                        "point dimension does not match the ring"),
    "float point": (lambda f: f.evaluate((0.5, 1)), TypeError, "not an exact rational scalar: 0.5"),
    "unknown substitution": (lambda f: f.substitute({"z": 1}), ValueError,
                             "unknown variable 'z' in ring ('x', 'y')"),
    "leading monomial of zero": (lambda f: (f - f).leading_monomial(grevlex()), ValueError,
                                 "the zero polynomial has no leading monomial"),
    "order kind": (lambda f: MonomialOrder("foo"), ValueError, "unknown order kind 'foo'"),
}


@pytest.mark.parametrize("kind", list(REFUSALS))
def test_malformed_input_is_refused(kind):
    operation, error, message = REFUSALS[kind]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        operation(P(HALF, RING2))
