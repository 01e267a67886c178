import functools
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nashblowup.groebner import BudgetExceededError, Ideal, eliminate, ideal_equal, normal_form
from nashblowup.hjac import PointNotOnHypersurfaceError, SingularPointError, maximal_minors
from nashblowup.limits import containment_oracle, describe_planes, limit_ideal, translate_to_origin
from nashblowup.parser import parse_polynomial
from nashblowup.polynomial import Polynomial, grevlex

from conftest import P, as_sympy

RING2 = ("x", "y")

CUSP = "x^3 - y^2"
NODE = "x^3 + x^2 - y^2"

U10 = tuple(f"u_{k}" for k in range(1, 11))


def u_ideal(result, texts):
    ring = result.u_ring
    return Ideal(ring, [parse_polynomial(t, ring) for t in texts])


# -- construction --------------------------------------------------------------


def test_center_must_be_on_hypersurface():
    with pytest.raises(PointNotOnHypersurfaceError):
        limit_ideal(P(CUSP, RING2), 2, (1, 2))


def test_order_is_checked_before_the_center():
    # as in hjac.build: an order below 1 is an input error wherever the center is
    for center in ((0, 0), (1, 2)):
        with pytest.raises(ValueError, match="order must be >= 1, got 0") as info:
            limit_ideal(P(CUSP, RING2), 0, center)
        assert not isinstance(info.value, PointNotOnHypersurfaceError)


def test_center_must_be_singular():
    with pytest.raises(SingularPointError):
        limit_ideal(P(CUSP, RING2), 2, (1, 1))


def test_budget_propagates():
    with pytest.raises(BudgetExceededError):
        limit_ideal(P(CUSP, RING2), 2, (0, 0), max_pairs=1)


def test_budget_abort_carries_the_minor_table():
    F = translate_to_origin(P(CUSP, RING2), (-1, 1))
    with pytest.raises(BudgetExceededError) as info:
        limit_ideal(F, 2, (1, -1), max_reductions=1)
    assert info.value.minors == tuple(maximal_minors(P(CUSP, RING2), 2))


def test_translate_to_origin():
    F = P("(x - 1)^3 - y^2", RING2)
    assert translate_to_origin(F, (1, 0)) == P(CUSP, RING2)


def test_translate_to_origin_needs_one_coordinate_per_variable():
    for center in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="coordinates, expected 2"):
            translate_to_origin(P(CUSP, RING2), center)


# -- frozen limit-space fixtures -------------------------------------------


def test_cusp_limit_ideal(cusp_result):
    # frozen from independent elimination runs (block and pure-lex orders
    # agree) plus vanishing-order analysis along the branch (t^2, t^3)
    expected = u_ideal(cusp_result, [
        "u_1", "u_2", "u_3", "u_4", "u_5", "u_6", "u_7", "u_8", "u_9^2"])
    computed = Ideal(cusp_result.u_ring, list(cusp_result.generators))
    assert ideal_equal(computed, expected)


def test_cusp_limit_is_one_line(cusp_result):
    planes = cusp_result.planes
    assert planes is not None and len(planes) == 1
    (line,) = planes
    assert len(line) == 1
    assert list(line[0]) == [0] * 9 + [1]  # the last coordinate direction


def test_node_limit_ideal(node_result):
    expected = u_ideal(node_result, [
        "u_1", "u_2", "u_3",
        "u_4 - 2*u_10", "u_5 - u_9", "u_6 - 2*u_10",
        "u_7 - u_9", "u_8 - 2*u_10", "u_9^2 - 4*u_10^2"])
    computed = Ideal(node_result.u_ring, list(node_result.generators))
    assert ideal_equal(computed, expected)


def test_node_limit_is_two_lines(node_result):
    planes = node_result.planes
    assert planes is not None and len(planes) == 2
    for line in planes:
        assert len(line) == 1
        v = line[0]
        # homogeneous generators must vanish on the whole line
        for g in node_result.generators:
            assert g.evaluate(v) == 0
    assert planes[0] != planes[1]


def test_generators_live_in_u_ring(cusp_result, node_result):
    for result in (cusp_result, node_result):
        for g in result.generators:
            assert g.ring == result.u_ring
    assert cusp_result.lambda_size == len(cusp_result.minors) == 10


def test_translation_invariance(cusp_result):
    shifted = limit_ideal(P("(x - 1)^3 - y^2", RING2), 2, (1, 0))
    origin = cusp_result
    assert shifted.generators == origin.generators
    assert shifted.planes == origin.planes


# -- oracles ----------------------------------------------------------------


def test_containment_oracle_on_results(cusp_result, node_result):
    assert containment_oracle(cusp_result)
    assert containment_oracle(node_result)


def test_containment_oracle_rejects_junk(cusp_result):
    bad = parse_polynomial("u_10 - 1", cusp_result.u_ring)
    broken = replace(cusp_result, generators=cusp_result.generators + (bad,))
    assert not containment_oracle(broken)


@pytest.fixture(scope="module")
def shifted_node_result():
    F = P("(x - 1/2)^3 + (x - 1/2)^2 - (y + 2)^2", RING2)
    return limit_ideal(F, 2, (Fraction(1, 2), -2))


def u_polynomials(ring):
    """Up to three terms of degree 1..3 in `ring`, plus a constant that is
    zero about half the time."""
    monomials = st.lists(st.integers(0, len(ring) - 1), min_size=1, max_size=3).map(
        lambda idx: tuple(idx.count(i) for i in range(len(ring))))
    coeffs = st.integers(-5, 5).filter(bool)
    constants = st.one_of(st.just(0), st.integers(-5, 5))
    return st.tuples(st.dictionaries(monomials, coeffs, min_size=1, max_size=3), constants).map(
        lambda tc: Polynomial(ring, {**tc[0], (0,) * len(ring): tc[1]}))


@functools.cache
def sympy_graph_data(result):
    """(t, x symbols, u symbols, {u_J: t*Delta_J(x + center)}, F(x + center))."""
    t, *xs = sympy.symbols(("t",) + result.F.ring)
    shift = {x: x + c for x, c in zip(xs, result.center)}
    us = sympy.symbols(result.u_ring)
    images = {u: t * sympy.expand(as_sympy(delta, xs).subs(shift, simultaneous=True))
              for u, (_, delta) in zip(us, maximal_minors(result.F, result.n))}
    shifted = sympy.expand(as_sympy(result.F, xs).subs(shift, simultaneous=True))
    return t, xs, us, images, shifted


def vanishes_after_substitution(g, result):
    """The computation the oracle stands for, done in sympy: u_J ->
    t*Delta_J(x + center), remainder modulo F(x + center) in grevlex over
    (t, x), then x = 0."""
    t, xs, us, images, shifted = sympy_graph_data(result)
    image = sympy.expand(as_sympy(g, us).subs(images, simultaneous=True))
    _, remainder = sympy.reduced(image, [shifted], t, *xs, order="grevlex")
    return sympy.expand(remainder.subs({x: 0 for x in xs})) == 0


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_containment_oracle_matches_sympy(data, cusp_result, shifted_node_result):
    for result in (cusp_result, shifted_node_result):
        g = data.draw(u_polynomials(result.u_ring))
        assert containment_oracle(replace(result, generators=(g,))) == \
            vanishes_after_substitution(g, result)


def test_elimination_stage_oracle():
    # the x,u-stage basis of the cusp's A (t eliminated, x not yet set to
    # zero) maps under u_J -> t*Delta_J to a multiple of the hypersurface
    # equation
    F = P(CUSP, RING2)
    ring_a = ("t",) + RING2 + U10
    ring_tx = ("t",) + RING2
    t = Polynomial.variable(ring_a, "t")
    images = {u: t * delta.to_ring(ring_a) for u, (_, delta) in zip(U10, maximal_minors(F, 2))}
    A = Ideal(ring_a, [F] + [Polynomial.variable(ring_a, u) - image for u, image in images.items()])
    stage = eliminate(A, ("t",))
    assert stage.generators
    for g in stage.generators:
        image = g.to_ring(ring_a).substitute(images).to_ring(ring_tx)
        assert normal_form(image, [F.to_ring(ring_tx)], grevlex()).is_zero()


# -- plane reporting ----------------------------------------------------------


def uplane(texts, ring):
    return describe_planes([parse_polynomial(t, ring) for t in texts])


def test_describe_planes_coordinate_subspace():
    ring = ("u_1", "u_2", "u_3")
    planes = uplane(["u_1", "u_2^2"], ring)
    assert planes == (((Fraction(0), Fraction(0), Fraction(1)),),)


def test_describe_planes_monomial_branching():
    ring = ("u_1", "u_2", "u_3")
    planes = uplane(["u_1*u_2"], ring)
    assert planes is not None and len(planes) == 2


def test_describe_planes_quadric_split():
    ring = ("u_1", "u_2")
    planes = uplane(["u_1^2 - 4*u_2^2"], ring)
    assert planes is not None and len(planes) == 2
    directions = {tuple(p[0]) for p in planes}
    assert directions == {(Fraction(1), Fraction(1, 2)),
                          (Fraction(1), Fraction(-1, 2))}


def test_describe_planes_inconsistent_branch_dropped():
    ring = ("u_1", "u_2")
    planes = uplane(["u_1 - u_2", "u_1 + u_2", "u_1^2"], ring)
    # only the origin remains; reported as the zero-dimensional subspace
    assert planes == ((),)


def test_describe_planes_unsupported_pattern():
    ring = ("u_1", "u_2", "u_3")
    planes = uplane(["u_1^2 + u_2^2 + u_3^2"], ring)
    assert planes is None


def test_describe_planes_empty_input():
    assert describe_planes([]) is None
