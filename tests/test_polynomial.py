from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashblowup.polynomial import (
    Polynomial,
    RingMismatchError,
    elimination_order,
    grevlex,
    grlex,
    lex,
)

from conftest import P

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
    assert f.taylor_coeff((2, 0)) == P("3*x", RING2)
    assert f.taylor_coeff((0, 2)) == P("-1", RING2)
    g = P("x*y - z^4", RING3)
    assert g.taylor_coeff((0, 0, 2)) == P("-6*z^2", RING3)


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
        coeff = mi.multi_binomial(alpha, beta)
        rhs = rhs + (f.derivative(mi.sub(alpha, beta)) * g.derivative(beta)
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


def test_lowest_homogeneous_component():
    assert P("x^3 - y^2", RING2).lowest_homogeneous_component() == P("-y^2", RING2)
    assert (P("x^3 + x^2 - y^2", RING2).lowest_homogeneous_component()
            == P("x^2 - y^2", RING2))
    f = P("x^2 + x*y", RING2)
    assert f.lowest_homogeneous_component() == f
    with pytest.raises(ValueError):
        Polynomial.zero(RING2).lowest_homogeneous_component()


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
