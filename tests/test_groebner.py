import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nashblowup.groebner import (
    BudgetExceededError,
    Ideal,
    buchberger,
    eliminate,
    ideal_equal,
    ideal_membership,
    incremental_basis,
    normal_form,
    radical_membership,
    s_polynomial,
)
from nashblowup.polynomial import Polynomial, elimination_order, grevlex, grlex, lex

from conftest import P, as_sympy

RING2 = ("x", "y")
RING3 = ("x", "y", "z")


# -- normal form ----------------------------------------------------------


def test_normal_form_fixtures():
    order = lex()
    G = [P("x^2 - y", RING2), P("y^2 - 1", RING2)]
    assert normal_form(P("x^4", RING2), G, order) == P("1", RING2)
    assert normal_form(P("x^2*y", RING2), G, order) == P("y^2", RING2) or \
        normal_form(P("x^2*y", RING2), G, order) == P("1", RING2)
    # remainder has no term divisible by any leading term
    f = P("x^3*y^2 + x*y + 1", RING2)
    r = normal_form(f, G, order)
    lts = [g.leading_monomial(order) for g in G]
    for m in r.terms:
        assert not any(all(a >= b for a, b in zip(m, lt)) for lt in lts)


def test_normal_form_membership_witness():
    order = grevlex()
    G = [P("x - y", RING2)]
    assert normal_form(P("x^3 - y^3", RING2), G, order).is_zero()
    assert not normal_form(P("x + y", RING2), G, order).is_zero()


def test_normal_form_zero_and_empty():
    assert normal_form(Polynomial.zero(RING2), [], grevlex()).is_zero()
    f = P("x + 1", RING2)
    assert normal_form(f, [], grevlex()) == f


def rationals():
    return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


def polynomials(ring, max_exp, constant=True):
    monomials = st.tuples(*[st.integers(0, max_exp)] * len(ring))
    if not constant:
        monomials = monomials.filter(any)
    return st.dictionaries(monomials, rationals(), min_size=1, max_size=4).map(
        lambda terms: Polynomial(ring, terms))


@settings(max_examples=40, deadline=None)
@given(f=polynomials(RING3, 3),
       gens=st.lists(polynomials(RING2, 2, constant=False), min_size=1, max_size=2),
       scales=st.lists(st.sampled_from([2, -3, Fraction(5, 2), Fraction(-1, 3)]),
                       min_size=1, max_size=3))
def test_normal_form_matches_sympy(f, gens, scales):
    # a reduced basis of an ideal of Q[x, y], leading coefficients made
    # other than 1, divides f in Q[x, y, z]: the remainder is unique
    basis = [g.scalar_mul(c) for g, c in
             zip(buchberger(gens, grevlex(), RING2), itertools.cycle(scales))]
    symbols = sympy.symbols(RING3)
    _, expected = sympy.reduced(as_sympy(f, symbols), [as_sympy(g, symbols) for g in basis],
                                *symbols, order="grevlex")
    assert sympy.expand(as_sympy(normal_form(f, basis, grevlex()), symbols) - expected) == 0


# -- s-polynomials -----------------------------------------------------------


def test_s_polynomial_fixture():
    f = P("x^2 - y", RING2)
    g = P("x*y - 1", RING2)
    s = s_polynomial(f, g, lex())
    # lcm(x^2, xy) = x^2 y: y*f - x*g = -y^2 + x
    assert s == P("x - y^2", RING2)


def test_s_polynomial_coprime_leading_terms():
    # Buchberger's first criterion case: S-poly reduces to zero by {f, g}
    f = P("x^2 + 1", RING2)
    g = P("y^2 + 1", RING2)
    s = s_polynomial(f, g, lex())
    assert normal_form(s, [f, g], lex()).is_zero()


@settings(max_examples=60, deadline=None)
@given(f=polynomials(RING3, 3).filter(lambda p: not p.is_zero()),
       g=polynomials(RING3, 3).filter(lambda p: not p.is_zero()),
       order=st.sampled_from([lex(), grlex(), grevlex()]))
def test_s_polynomial_matches_monic_definition(f, g, order):
    # S(f, g) = m_f*f - m_g*g with m_p = (lcm(lt f, lt g) / lt p) / lc p
    lt_f, lt_g = f.leading_monomial(order), g.leading_monomial(order)
    lcm = tuple(max(a, b) for a, b in zip(lt_f, lt_g))
    m_f = Polynomial(RING3, {tuple(a - b for a, b in zip(lcm, lt_f)): 1 / f.terms[lt_f]})
    m_g = Polynomial(RING3, {tuple(a - b for a, b in zip(lcm, lt_g)): 1 / g.terms[lt_g]})
    assert s_polynomial(f, g, order) == m_f * f - m_g * g


def test_s_polynomial_of_zero_rejected():
    with pytest.raises(ValueError):
        s_polynomial(Polynomial.zero(RING2), P("x", RING2))


# -- buchberger ---------------------------------------------------------------


def is_reduced_basis(basis, order):
    for g in basis:
        lt = g.leading_monomial(order)
        assert g.terms[lt] == 1  # monic
        for h in basis:
            if h is g:
                continue
            hlt = h.leading_monomial(order)
            for m in g.terms:
                assert not all(a >= b for a, b in zip(m, hlt))
    return True


def test_buchberger_principal():
    basis = buchberger([P("3*x", RING2)], grevlex(), RING2)
    assert list(basis) == [P("x", RING2)]


def test_buchberger_twisted_cubic():
    basis = buchberger([P("x^2 - y", RING3), P("x^3 - z", RING3)],
                       lex(), RING3)
    assert P("y^3 - z^2", RING3) in list(basis)
    assert is_reduced_basis(basis, lex())


def test_buchberger_reads_generators_in_the_given_ring():
    gens = [P("a^2 - b", ("a", "b")), P("a*b - 1", ("a", "b"))]
    for order in (grevlex(), lex(), elimination_order(("a",))):
        expected = buchberger([P("a^2 - b", ("b", "a")), P("a*b - 1", ("b", "a"))],
                              order, ("b", "a"))
        assert buchberger(gens, order, ("b", "a")) == expected
        with pytest.raises(ValueError, match="absent from"):
            buchberger(gens, order, RING3)


def test_buchberger_every_spoly_reduces():
    cases = [
        ([P("x^2 - y", RING3), P("x^3 - z", RING3)], lex()),
        ([P("x^3 - y^2", RING2), P("3*x^2", RING2), P("-2*y", RING2)], grevlex()),
        ([P("x*y - z^4", RING3), P("x + y + z", RING3)], grlex()),
    ]
    for gens, order in cases:
        ring = gens[0].ring
        basis = buchberger(gens, order, ring)
        for f, g in itertools.combinations(basis, 2):
            s = s_polynomial(f, g, order)
            assert normal_form(s, basis, order).is_zero()


ORDERS = {"lex": lex(), "grlex": grlex(), "grevlex": grevlex()}


def sympy_basis(gens, symbols, order):
    """sympy's reduced basis of the ideal of `gens`, as monic expressions."""
    basis = sympy.groebner([as_sympy(g, symbols) for g in gens], *symbols,
                           order=order, domain="QQ")
    return {sympy.expand(p.as_expr() / p.LC(order=order)) for p in basis.polys}


@settings(max_examples=40, deadline=None)
@given(gens=st.lists(polynomials(RING3, 1), min_size=2, max_size=4).filter(
           lambda gs: any(not g.is_zero() for g in gs)),
       order=st.sampled_from(sorted(ORDERS)))
def test_buchberger_matches_sympy(gens, order):
    symbols = sympy.symbols(RING3)
    ours = buchberger(gens, ORDERS[order], RING3)
    assert {sympy.expand(as_sympy(g, symbols)) for g in ours} == \
        sympy_basis(gens, symbols, order)


def redundant_combinations(gens, draw):
    """Elements of the ideal of `gens`: sums of monomial multiples of them."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        total = Polynomial.zero(RING3)
        for g in gens:
            c = draw(st.sampled_from([0, 1, -2, Fraction(1, 3)]))
            m = draw(st.tuples(*[st.integers(0, 1)] * 3))
            total = total + g * Polynomial(RING3, {m: c})
        out.append(total)
    return out


@settings(max_examples=30, deadline=None)
@given(gens=st.lists(polynomials(RING3, 1), min_size=1, max_size=3).filter(
           lambda gs: any(not g.is_zero() for g in gs)),
       order=st.sampled_from(sorted(ORDERS)),
       data=st.data())
def test_incremental_basis_matches_buchberger(gens, order, data):
    # the first generator starts the basis; the padding, redundant by
    # construction, lands anywhere after it
    padded = gens[:1] + data.draw(st.permutations(
        gens[1:] + redundant_combinations(gens, data.draw)))
    assert incremental_basis(padded, ORDERS[order], RING3) == \
        buchberger(gens, ORDERS[order], RING3)


def test_incremental_basis_edge_cases():
    assert incremental_basis([], grevlex(), RING2) == []
    assert incremental_basis([Polynomial.zero(RING2)], grevlex(), RING2) == []
    with pytest.raises(ValueError, match="empty generator list"):
        incremental_basis([])
    # a redundant first generator still gives the reduced basis
    gens = [P("x^2*y - x*y", RING2), P("x*y", RING2), P("2*x^3 + y", RING2)]
    assert incremental_basis(gens, lex()) == buchberger(gens, lex())
    assert incremental_basis([P("2*x + 1", RING2), P("x", RING2)]) == [P("1", RING2)]


def test_reduced_basis_permutation_invariant():
    gens = [P("x^2 + y", RING3), P("x*y + z", RING3), P("y^3 - z^2", RING3)]
    rng = random.Random(3)
    reference = buchberger(gens, grevlex(), RING3)
    for _ in range(4):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, grevlex(), RING3) == reference


def test_basis_generates_same_ideal():
    gens = [P("x^2 - y", RING2), P("x*y - 1", RING2)]
    I = Ideal(RING2, gens)
    basis = I.groebner_basis(lex())
    # each original generator reduces to zero by the basis, and vice versa
    for g in gens:
        assert normal_form(g, basis, lex()).is_zero()
    J = Ideal(RING2, list(basis))
    for b in basis:
        assert ideal_membership(b, I, lex())
    assert ideal_equal(I, J, lex())


def test_budget_exceeded():
    gens = [P("x^5*y^4 - z^3", RING3), P("x*y^6 + z^5 - y", RING3),
            P("y^2*z^4 - x^3 - 1", RING3)]
    with pytest.raises(BudgetExceededError):
        buchberger(gens, lex(), RING3, max_pairs=2)
    with pytest.raises(BudgetExceededError):
        buchberger(gens, lex(), RING3, max_reductions=5)


def test_negative_budget_is_an_input_error():
    # a negative cap is rejected before any work, whatever the input; 0 is
    # a valid cap
    easy = [P("x*y - 1", RING2)]
    for budget in ({"max_pairs": -5}, {"max_reductions": -1}):
        with pytest.raises(ValueError, match=r"must be >= 0"):
            buchberger(easy, grevlex(), RING2, **budget)
        with pytest.raises(ValueError, match=r"must be >= 0"):
            Ideal(RING2, easy).groebner_basis(grevlex(), **budget)
        with pytest.raises(ValueError, match=r"must be >= 0"):
            radical_membership(P("x", RING2), Ideal(RING2, easy), **budget)
        with pytest.raises(ValueError, match=r"must be >= 0"):
            eliminate(Ideal(RING2, easy), ("x",), **budget)
    assert buchberger(easy, grevlex(), RING2, max_pairs=0) == easy


# -- elimination ----------------------------------------------------------------


def test_eliminate_twisted_cubic():
    I = Ideal(RING3, [P("x^2 - y", RING3), P("x^3 - z", RING3)])
    J = eliminate(I, ("x",))
    assert J.ring == ("y", "z")
    expected = Ideal(("y", "z"), [P("y^3 - z^2", ("y", "z"))])
    assert ideal_equal(J, expected)


RING_TXY = ("t", "x", "y")


@settings(max_examples=25, deadline=None)
@given(gens=st.lists(polynomials(RING_TXY, 2, constant=False), min_size=2, max_size=3),
       t_last=st.booleans())
def test_eliminate_matches_sympy(gens, t_last):
    # sympy's reduced lex basis for t > x > y: its t-free elements are the
    # reduced lex basis of the ideal intersected with Q[x, y]; with t_last
    # the ring is (x, y, t), so t is not the first variable of the order
    symbols = sympy.symbols(RING_TXY)
    basis = sympy.groebner([as_sympy(g, symbols) for g in gens], *symbols,
                           order="lex", domain="QQ")
    expected = [e for e in basis.exprs if not e.has(symbols[0])]
    ring = ("x", "y", "t") if t_last else RING_TXY
    J = eliminate(Ideal(ring, [g.to_ring(ring) for g in gens]), ("t",))
    assert J.ring == ("x", "y")
    ours = buchberger(J.generators, lex(), J.ring)
    assert {sympy.expand(as_sympy(g, symbols[1:])) for g in ours} == \
        {sympy.expand(e) for e in expected}


def test_eliminate_to_zero_ideal():
    ring = ("t", "x")
    I = Ideal(ring, [P("t*x - 1", ring)])
    J = eliminate(I, ("t",))
    assert J.generators == ()


def test_eliminate_rejects_bad_input():
    I = Ideal(RING2, [P("x", RING2)])
    with pytest.raises(ValueError):
        eliminate(I, ("q",))
    with pytest.raises(ValueError):
        eliminate(I, ("x", "y"))


# -- membership and radicals -----------------------------------------------


def test_ideal_membership_fixtures():
    I = Ideal(RING2, [P("x^2 - y", RING2), P("y^2 - x", RING2)])
    assert ideal_membership(P("x^4 - x", RING2), I)
    assert not ideal_membership(P("x", RING2), I)
    assert ideal_membership(Polynomial.zero(RING2), I)


def test_ideal_equal_fixtures():
    I = Ideal(RING2, [P("x + y", RING2), P("x - y", RING2)])
    J = Ideal(RING2, [P("x", RING2), P("y", RING2)])
    assert ideal_equal(I, J)
    assert not ideal_equal(I, Ideal(RING2, [P("x", RING2)]))
    with pytest.raises(ValueError):
        ideal_equal(I, Ideal(RING3, [P("x", RING3)]))


def test_radical_membership_fixtures():
    I = Ideal(RING2, [P("x^2", RING2)])
    assert radical_membership(P("x", RING2), I)
    assert not radical_membership(P("y", RING2), I)
    J = Ideal(RING2, [P("x^2", RING2), P("y^3", RING2)])
    assert radical_membership(P("x*y", RING2), J)
    # V(J) is the origin, so the radical is <x, y>
    assert radical_membership(P("x + y", RING2), J)
    assert not radical_membership(P("x + 1", RING2), J)
    assert radical_membership(Polynomial.zero(RING2), I)


def rabinowitsch_by_sympy(f, gens, ring):
    """sympy's verdict on f in sqrt(<gens>): is <gens, 1 - w*f> the unit ideal?"""
    symbols = sympy.symbols(ring + ("w",))
    w = symbols[-1]
    exprs = [as_sympy(g, symbols) for g in gens] + [1 - w * as_sympy(f, symbols)]
    return list(sympy.groebner(exprs, *symbols, order="grevlex", domain="QQ").exprs) == [1]


@pytest.mark.parametrize("f,gens", [
    ("x", ["x^2", "y"]),
    ("x + y", ["x^2 + 2*x*y + y^2", "x*y^3"]),
    ("x*y - 1", ["x^2*y^2 - 2*x*y + 1", "x^3 - y"]),
    ("x*y", ["x^2*y", "x*y^2 + y^3"]),
])
def test_radical_membership_beyond_the_ideal_matches_sympy(f, gens):
    # f lies in the radical of I but not in I itself
    f, gens = P(f, RING2), [P(g, RING2) for g in gens]
    I = Ideal(RING2, gens)
    assert not ideal_membership(f, I)
    assert rabinowitsch_by_sympy(f, gens, RING2)
    assert radical_membership(f, I)


@settings(max_examples=40, deadline=None)
@given(f=polynomials(RING2, 2),
       gens=st.lists(polynomials(RING2, 2, constant=False), min_size=1, max_size=3),
       power=st.integers(0, 3))
def test_radical_membership_matches_sympy(f, gens, power):
    # with power >= 1, f^power joins the generators, so f lies in the
    # radical while it need not lie in the ideal
    if power:
        gens = gens + [f ** power]
    assert radical_membership(f, Ideal(RING2, gens)) == rabinowitsch_by_sympy(f, gens, RING2)


def test_radical_membership_not_plain_membership():
    I = Ideal(RING2, [P("x^2", RING2)])
    assert not ideal_membership(P("x", RING2), I)
    assert radical_membership(P("x", RING2), I)


def test_groebner_basis_budgets_hold_after_an_uncapped_call():
    I = Ideal(RING2, [P("x*y - 1", RING2), P("x^2 - y", RING2)])
    assert I.groebner_basis() == Ideal(RING2, I.generators).groebner_basis()
    with pytest.raises(ValueError, match=r"must be >= 0"):
        I.groebner_basis(max_pairs=-1)
    with pytest.raises(BudgetExceededError):
        I.groebner_basis(max_pairs=0)


def test_coefficient_arithmetic_stays_exact():
    # fractions with growing denominators must not lose precision
    f = P("1/3*x^2 - 1/7*y", RING2)
    g = P("1/11*x*y - 5", RING2)
    basis = buchberger([f, g], lex(), RING2)
    for b in basis:
        for c in b.terms.values():
            assert isinstance(c, Fraction) or c == int(c)
    assert normal_form(f, basis, lex()).is_zero()
    assert normal_form(g, basis, lex()).is_zero()
