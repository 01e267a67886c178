import itertools
import random
from operator import add, le
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nashblowup import groebner
from nashblowup.groebner import (
    BudgetExceededError,
    Ideal,
    buchberger,
    eliminate,
    ideal_equal,
    ideal_membership,
    normal_form,
    radical_membership,
)
from nashblowup.polynomial import Polynomial, elimination_order, grevlex, grlex, lex

from conftest import P, as_sympy, reference_basis, s_poly

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


@settings(max_examples=40, deadline=None)
@given(fs=st.lists(polynomials(RING3, 3), min_size=2, max_size=5),
       G=st.lists(polynomials(RING3, 2, constant=False), max_size=3),
       order=st.sampled_from([grevlex(), lex()]))
def test_one_pass_reduces_like_one_call_per_polynomial(fs, G, order):
    # G, any divisors and not a basis, is cleared and keyed once for all of
    # fs; each remainder r/d is the one a pass over f alone gives
    batch = groebner._remainders(fs, G, order, RING3)
    assert batch == [groebner._remainders([f], G, order, RING3)[0] for f in fs]


# -- s-polynomials -----------------------------------------------------------


def test_s_polynomial_fixture():
    # conftest.s_poly, the reference the S-pair self-checks rely on
    f = P("x^2 - y", RING2)
    g = P("x*y - 1", RING2)
    s = s_poly(f, g, lex())
    # lcm(x^2, xy) = x^2 y: y*f - x*g = -y^2 + x
    assert s == P("x - y^2", RING2)


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
            s = s_poly(f, g, order)
            assert normal_form(s, basis, order).is_zero()


ORDERS = {"lex": lex(), "grlex": grlex(), "grevlex": grevlex()}


def sympy_basis(gens, symbols, order):
    """sympy's reduced basis of the ideal of `gens`, as monic expressions."""
    basis = sympy.groebner([as_sympy(g, symbols) for g in gens], *symbols,
                           order=order, domain="QQ")
    return {sympy.expand(p.as_expr() / p.LC(order=order)) for p in basis.polys}


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


@settings(max_examples=40, deadline=None)
@given(gens=st.lists(polynomials(RING3, 1), min_size=2, max_size=4).filter(
           lambda gs: any(not g.is_zero() for g in gs)),
       order=st.sampled_from(sorted(ORDERS)))
def test_buchberger_matches_sympy(gens, order):
    symbols = sympy.symbols(RING3)
    ours = buchberger(gens, ORDERS[order], RING3)
    assert {sympy.expand(as_sympy(g, symbols)) for g in ours} == \
        sympy_basis(gens, symbols, order)


@settings(max_examples=30, deadline=None)
@given(gens=st.lists(polynomials(RING3, 1), min_size=1, max_size=3).filter(
           lambda gs: any(not g.is_zero() for g in gs)),
       order=st.sampled_from(sorted(ORDERS)),
       data=st.data())
def test_buchberger_ignores_redundant_generators(gens, order, data):
    # the drawn generators padded with elements of their ideal, which the
    # engine meets in any order and must find redundant
    padded = data.draw(st.permutations(gens + redundant_combinations(gens, data.draw)))
    assert buchberger(padded, ORDERS[order], RING3) == \
        buchberger(gens, ORDERS[order], RING3)


ALL_ORDERS = {**ORDERS, "elimination": elimination_order(("x",))}


@settings(max_examples=30, deadline=None)
@given(gens=st.lists(polynomials(RING3, 1), min_size=1, max_size=3).filter(
           lambda gs: any(not g.is_zero() for g in gs)),
       order=st.sampled_from(sorted(ALL_ORDERS)),
       data=st.data())
def test_buchberger_scalar_duplicates_are_exact(gens, order, data):
    # nonzero rational multiples of some generators, of either sign, between
    # two copies of the list: the engine keeps one generator per scalar class
    chosen = data.draw(st.lists(st.sampled_from(gens), max_size=4))
    scales = data.draw(st.lists(rationals().filter(bool), min_size=len(chosen),
                                max_size=len(chosen)))
    padded = gens + [g.scalar_mul(c) for g, c in zip(chosen, scales)] + gens
    basis = buchberger(padded, ALL_ORDERS[order], RING3)
    assert basis == buchberger(gens, ALL_ORDERS[order], RING3)
    # and no generator was dropped that the basis does not generate
    assert all(normal_form(g, basis, ALL_ORDERS[order]).is_zero() for g in gens)


@settings(max_examples=40, deadline=None)
@given(gens=st.lists(polynomials(RING3, 1), min_size=2, max_size=4).filter(
           lambda gs: any(not g.is_zero() for g in gs)),
       order=st.sampled_from(sorted(ALL_ORDERS)))
def test_buchberger_matches_plain_reference(gens, order):
    # every pair reduced, no criteria: the pruning and the sugar selection
    # change the work, never the basis, under the elimination order of
    # limit_ideal too, which sympy cannot check
    assert buchberger(gens, ALL_ORDERS[order], RING3) == \
        reference_basis(gens, ALL_ORDERS[order], RING3)


def test_buchberger_restarts_wider_when_degrees_outgrow_the_packing(monkeypatch):
    # degree 3 in, so a cap of 7; the lex basis holds x - z^9, which needs
    # the width doubled, and the restart returns the reference basis
    packing = groebner._Packing
    widths = []
    monkeypatch.setattr(groebner, "_Packing", lambda ring, order, width: (
        widths.append(width) or packing(ring, order, width)))
    gens = [P("x - y^3", RING3), P("y - z^3", RING3)]
    basis = buchberger(gens, lex(), RING3)
    assert basis == reference_basis(gens, lex(), RING3)
    assert max(g.total_degree() for g in basis) > 7
    assert widths == [3, 6]


def test_buchberger_restarts_wider_when_an_s_polynomial_outgrows_the_packing(monkeypatch):
    # degree 3 in, so a cap of 7; the lex basis meets x*y + y^4 and y^5 + y,
    # whose S-polynomial y^8 - x*y has degree 8, so `_spoly_int` refuses it
    # before forming it, and the restart returns the reference basis
    spoly, refused = groebner._spoly_int, []

    def recorded(f, g, lcm, K):
        try:
            return spoly(f, g, lcm, K)
        except OverflowError:
            refused.append(K.width)
            raise

    monkeypatch.setattr(groebner, "_spoly_int", recorded)
    gens = [P("x*y^2 - y", RING2), P("x^2 + y^2", RING2)]
    assert buchberger(gens, lex(), RING2) == reference_basis(gens, lex(), RING2)
    assert refused == [3]


def test_buchberger_edge_cases():
    assert buchberger([], grevlex(), RING2) == []
    assert buchberger([Polynomial.zero(RING2)], grevlex(), RING2) == []
    with pytest.raises(ValueError, match="empty generator list"):
        buchberger([])
    # a redundant first generator still gives the reduced basis
    gens = [P("x^2*y - x*y", RING2), P("x*y", RING2), P("2*x^3 + y", RING2)]
    assert buchberger(gens, lex()) == \
        [P("y^2", RING2), P("x*y", RING2), P("x^3 + 1/2*y", RING2)]
    assert buchberger([P("2*x + 1", RING2), P("x", RING2)]) == [P("1", RING2)]


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
    basis = buchberger(gens, lex(), RING2)
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
    # reducing an input generator counts: x + y^2 reduces to y^2 by x in
    # two steps, and the basis {x, y^2} has no S-pair to reduce
    gens = [P("x", RING2), P("x + y^2", RING2)]
    with pytest.raises(BudgetExceededError, match="reduction budget"):
        buchberger(gens, grevlex(), RING2, max_reductions=1)
    assert buchberger(gens, grevlex(), RING2, max_reductions=2) == \
        [P("x", RING2), P("y^2", RING2)]


def _fits(gens, order, max_reductions):
    try:
        buchberger(gens, order, RING3, max_reductions=max_reductions)
    except BudgetExceededError:
        return False
    return True


def test_duplicate_generators_cost_no_reduction():
    # a copy of a generator up to a scalar is dropped before any reduction,
    # so the list three times over fits the budget of the list once
    gens = [P("x^2 - y", RING3), P("x*y - z", RING3), P("y^2 - x*z", RING3)]
    for order in ALL_ORDERS.values():
        need = next(r for r in itertools.count() if _fits(gens, order, r))
        assert _fits(gens * 3, order, need)
        assert _fits(gens + [g.scalar_mul(Fraction(-2, 3)) for g in gens], order, need)
        assert not _fits(gens * 3, order, need - 1)


def test_negative_budget_is_an_input_error():
    # a negative cap is rejected before any work, whatever the input; 0 is
    # a valid cap
    easy = [P("x*y - 1", RING2)]
    for budget in ({"max_pairs": -5}, {"max_reductions": -1}):
        with pytest.raises(ValueError, match=r"must be >= 0"):
            buchberger(easy, grevlex(), RING2, **budget)
        with pytest.raises(ValueError, match=r"must be >= 0"):
            radical_membership(P("x", RING2), Ideal(RING2, easy), **budget)
        with pytest.raises(ValueError, match=r"must be >= 0"):
            eliminate(Ideal(RING2, easy), ("x",), **budget)
    assert buchberger(easy, grevlex(), RING2, max_pairs=0) == easy


def _counted_reductions(monkeypatch):
    """A list that grows by one with every `_reduce_int` call."""
    calls = []
    reduce_int = groebner._reduce_int

    def counted(*args):
        calls.append(None)
        return reduce_int(*args)

    monkeypatch.setattr(groebner, "_reduce_int", counted)
    return calls


@pytest.mark.parametrize("texts, expected, reductions", [
    # the new lt y divides a term of the old x - y, which is reduced again
    (["x - y", "y - z"], ["y - z", "x - z"], 4),
    # no term of the old x - z holds y, so it is kept as it is
    (["x - z", "y - z"], ["y - z", "x - z"], 3),
])
def test_interreduction_reduces_only_what_a_new_lead_touches(
        monkeypatch, texts, expected, reductions):
    gens = [P(t, RING3) for t in texts]
    calls = _counted_reductions(monkeypatch)
    basis = buchberger(gens, grevlex(), RING3)
    assert basis == [P(t, RING3) for t in expected] == reference_basis(gens, grevlex(), RING3)
    # the second generator, and each new entry once; an old one only if touched
    assert len(calls) == reductions


def test_interreduction_of_independent_leads_is_linear(monkeypatch):
    # 117 of the 126 u's of the xy - z^4 limit at n=2: each new lt touches
    # no old entry, so only the generators and the new entries are reduced
    ring = tuple(f"u_{k}" for k in range(1, 127))
    gens = [Polynomial.variable(ring, f"u_{k}") for k in range(1, 118)]
    calls = _counted_reductions(monkeypatch)
    assert buchberger(gens, grevlex(), ring) == gens[::-1]
    assert len(calls) <= 2 * 117


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


# -- packed monomials --------------------------------------------------------


def test_packing_orders_multiplies_divides_and_unpacks_like_tuples():
    # random monomials up to the packing's degree cap, under the four orders
    rng = random.Random(28)
    ring = ("t", "x", "y", "z")
    for order in ALL_ORDERS.values():
        key = order.key_func(ring)
        for width in (1, 2, 3, 5):
            K = groebner._Packing(ring, order, width)

            def mono(cap):
                cut = sorted(rng.randint(0, cap) for _ in ring[1:])
                return tuple(b - a for a, b in zip([0] + cut, cut + [cap]))

            for _ in range(60):
                a, b = mono(rng.randint(0, K.cap)), mono(rng.randint(0, K.cap))
                assert K.unpack(K[a]) == a
                assert (K[a] < K[b]) == (key(a) < key(b))
                assert ((K[b] - (K[a] - K.borrow)) & K.guard == K.plus) == all(map(le, a, b))
                if sum(a) + sum(b) <= K.cap:
                    assert K[a] + K[b] - K.one == K[tuple(map(add, a, b))]
                if sum(map(max, a, b)) <= K.cap:
                    assert K.lcm(K[a], K[b]) == K[tuple(map(max, a, b))]
                else:
                    with pytest.raises(OverflowError):
                        K.lcm(K[a], K[b])
