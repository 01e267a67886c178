import functools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nashblowup import groebner, limits, linalg
from nashblowup.groebner import (BudgetExceededError, Ideal, buchberger, eliminate, ideal_equal,
                                 normal_form)
from nashblowup.hjac import (PointNotOnHypersurfaceError, SingularPointError, is_singular,
                             maximal_minors)
from nashblowup.limits import containment_oracle, describe_planes, limit_ideal, translate_to_origin
from nashblowup.parser import parse_polynomial
from nashblowup.polynomial import Polynomial, grevlex

from conftest import P, as_sympy, graph_ideal_limit, sympy_rref

RING2 = ("x", "y")
RING3 = ("x", "y", "z")

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


@pytest.mark.parametrize("text, ring, center, n", [
    (CUSP, RING2, (1, 1), 2),
    ("x*y - z^4 + x", RING3, (0, 0, 0), 3),
    ("x^2 + y^3 + z^5 + y", RING3, (0, 0, 0), 3),
    ("x*y - z^4 + x", RING3, (0, 0, 0), 4),  # a table maximal_minors would refuse
], ids=["cusp", "A3-3", "E8-3", "A3-4"])
def test_a_non_singular_center_is_refused_before_any_minor(text, ring, center, n, monkeypatch):
    # the translate has a term of degree 1, which decides it: no minor is built
    monkeypatch.setattr(limits, "maximal_minors", lambda *args: pytest.fail("minors were built"))
    with pytest.raises(SingularPointError, match="computed at singular centers"):
        limit_ideal(P(text, ring), n, center)


def on_hypersurface(ring):
    """(F, p): F(x) = G(x - p) for G of degree 2..3 with small integer
    coefficients, no constant term and, about half the time, no linear term,
    and p a rational point, so that p lies on V(F) and is often singular."""
    def monomials(low, high):
        return st.lists(st.integers(0, len(ring) - 1), min_size=low, max_size=high).map(
            lambda idx: tuple(idx.count(i) for i in range(len(ring))))

    coeffs = st.sampled_from([-3, -2, -1, 1, 2, 3])
    linear = st.one_of(st.just({}), st.dictionaries(monomials(1, 1), coeffs, max_size=2))
    higher = st.dictionaries(monomials(2, 3), coeffs, min_size=1, max_size=3)
    point = st.tuples(*[st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))] * len(ring))
    return st.tuples(linear, higher, point).map(lambda lhp: (translate_to_origin(
        Polynomial(ring, lhp[0] | lhp[1]), tuple(-c for c in lhp[2])), lhp[2]))


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(st.tuples(on_hypersurface(RING2), st.integers(1, 2)),
                      st.tuples(on_hypersurface(RING3), st.just(1))))
def test_limit_ideal_refuses_exactly_the_non_singular_centers(case):
    # the order rule on the translate agrees with the rank test; a singular
    # center that runs out of its budget was not refused
    (F, center), n = case
    try:
        limit_ideal(F, n, center, max_pairs=40)
        refused = False
    except SingularPointError:
        refused = True
    except BudgetExceededError:
        refused = False
    assert refused == (not is_singular(F, n, center))


def test_budget_propagates():
    with pytest.raises(BudgetExceededError):
        limit_ideal(P(CUSP, RING2), 2, (0, 0), max_pairs=1)


def test_pair_budget_pins_the_pruning(cusp_result):
    # the cusp's elimination reduces exactly 25 S-pairs: a criterion lost
    # from buchberger's pair update raises here, and one that prunes more
    # than it may fails to raise
    assert limit_ideal(P(CUSP, RING2), 2, (0, 0), max_pairs=25) == cusp_result
    with pytest.raises(BudgetExceededError, match="pair budget"):
        limit_ideal(P(CUSP, RING2), 2, (0, 0), max_pairs=24)


def test_budget_abort_carries_the_minor_table():
    # the budgets cap the elimination over the free u's; the error still
    # carries every minor and every u name
    F = translate_to_origin(P(CUSP, RING2), (-1, 1))
    for budget in ({"max_reductions": 1}, {"max_pairs": 1}):
        with pytest.raises(BudgetExceededError) as info:
            limit_ideal(F, 2, (1, -1), **budget)
        assert info.value.minors == tuple(maximal_minors(P(CUSP, RING2), 2))
        assert info.value.u_ring == U10
    with pytest.raises(BudgetExceededError) as info:
        limit_ideal(P("u_1^3 - y^2", ("u_1", "y")), 1, (0, 0), max_pairs=0)
    assert info.value.u_ring == ("u_1_0", "u_2")
    assert len(info.value.minors) == 2


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


# -- the degree-1 step and the reference elimination ------------------------


def free_u_names(text, ring, n):
    F = P(text, ring)
    deltas = [delta for _, delta in maximal_minors(F, n)]
    unames = tuple(f"u_{k}" for k in range(1, len(deltas) + 1))
    free, linear = limits._degree_one(F, deltas, unames)
    assert len(free) + len(linear) == len(deltas)
    return {unames[k] for k in free}


def test_degree_one_free_minors_of_the_curves():
    # mu = dim I/(m*I + (F)) is 2 for the cusp and the node at every order
    assert free_u_names(CUSP, RING2, 2) == {"u_9", "u_10"}
    assert free_u_names(NODE, RING2, 2) == {"u_9", "u_10"}
    assert free_u_names(NODE, RING2, 3) == {"u_83", "u_84"}


CURVES = ("x^3 - y^2", "y^2 - x^4", "y^2 - x^5", "x^2*y - y^3", "x^3 + x^2 - y^2")
SURFACES = ("x*y - z^2", "x^2 + y^3 + z^5", "x*y - z^4")
DIFFERENTIAL_CASES = ([(text, RING2, n) for text in CURVES for n in (1, 2)]
                      + [(text, ("x", "y", "z"), 1) for text in SURFACES])


@pytest.mark.parametrize("case", range(len(DIFFERENTIAL_CASES)),
                         ids=[f"{t}-n{n}" for t, _, n in DIFFERENTIAL_CASES])
def test_limit_ideal_equals_the_graph_ideal_elimination(case):
    # the singular point of each case moved to a seeded rational center
    text, ring, n = DIFFERENTIAL_CASES[case]
    rng = random.Random(case)
    center = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in ring)
    F = translate_to_origin(P(text, ring), tuple(-c for c in center))
    result = limit_ideal(F, n, center)
    assert (result.generators, result.planes) == graph_ideal_limit(F, n, center)


@pytest.mark.parametrize("text, ring", [(text, RING2) for text in CURVES]
                         + [("x*y - z^2", ("x", "y", "z"))], ids=[*CURVES, "x*y - z^2"])
def test_limit_ideal_is_returned_in_increasing_leading_term(text, ring):
    # limit_ideal does not sort: the linear generators come first, ascending,
    # and the reduced basis in the free u's after them holds no linear form
    F = P(text, ring)
    result = limit_ideal(F, 2, (0,) * len(ring))
    _, linear = limits._degree_one(F, [delta for _, delta in result.minors], result.u_ring)
    gens = result.generators
    assert linear and gens[:len(linear)] == tuple(linear)
    assert all(g.total_degree() > 1 for g in gens[len(linear):])
    order = grevlex()
    key = order.key_func(result.u_ring)
    keys = [key(g.leading_monomial(order)) for g in gens]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


@pytest.mark.parametrize("text, ring", [("1/2*x^3 - 2/3*y^2 + x*y^2", RING2),
                                        ("x*y - 3/2*z^2 + 1/5*x^2*z", ("x", "y", "z"))])
def test_degree_one_hands_rref_the_remainders_in_integers(text, ring, monkeypatch):
    # each column is a remainder times D/d over the common denominator D, so
    # the rows are ints and their rref is that of the remainders over Q
    F = P(text, ring)
    deltas = [delta for _, delta in maximal_minors(F, 2)]
    handed = []
    reduced = linalg._reduced
    monkeypatch.setattr(linalg, "_reduced", lambda rows: handed.append(rows) or reduced(rows))
    limits._degree_one(F, deltas, tuple(f"u_{k}" for k in range(1, len(deltas) + 1)))
    [rows] = handed
    assert rows and {type(c) for row in rows for c in row} == {int}
    order = grevlex()
    ideal = [F] + [x * g for g in buchberger([F] + deltas, order, ring)
                   for x in Polynomial.variables(ring)]
    forms = [normal_form(delta, buchberger(ideal, order, ring), order) for delta in deltas[::-1]]
    assert any(c.denominator > 1 for f in forms for c in f.terms.values())
    monomials = sorted({m for f in forms for m in f.terms})
    assert sympy_rref(rows) == sympy_rref([[f.terms.get(m, 0) for f in forms] for m in monomials])


def test_degree_one_keys_the_order_once_per_basis(monkeypatch):
    # two bases and one pass over all lambda minors, each under one packing
    packing = groebner._Packing
    calls = []
    monkeypatch.setattr(groebner, "_Packing", lambda *args: calls.append(args) or packing(*args))
    for text, ring, size in ((CUSP, RING2, 10), ("x*y - z^2", ("x", "y", "z"), 126)):
        F = P(text, ring)
        deltas = [delta for _, delta in maximal_minors(F, 2)]
        assert len(deltas) == size
        calls.clear()
        limits._degree_one(F, deltas, tuple(f"u_{k}" for k in range(1, size + 1)))
        assert len(calls) == 3


def test_plane_rows_reach_linalg_as_ints(monkeypatch):
    # describe_planes hands linalg each linear form and each plane key as a
    # row of ints; the only Fraction rows linalg meets on the five curves are
    # the kernel vectors it returned, on their way to the keys' `_reduced`
    handed, returned = [], []
    cleared, kernel_basis = linalg._cleared, linalg.kernel_basis
    monkeypatch.setattr(linalg, "_cleared", lambda rows: handed.extend(rows) or cleared(rows))
    monkeypatch.setattr(linalg, "kernel_basis", lambda *args, **kwargs: (
        returned.extend(out := kernel_basis(*args, **kwargs)) or out))
    for text in CURVES:
        limit_ideal(P(text, RING2), 2, (0, 0))
    fractional = [row for row in handed if any(isinstance(c, Fraction) for c in row)]
    assert len(handed) > 100 and len(fractional) < 20
    assert all(any(row is v for v in returned) for row in fractional)


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


def test_describe_planes_affine_linear_generator():
    # a linear generator with a constant term (here directly, and as the
    # quotient u_2 + 1 of u_1*u_2 + u_1) has an affine zero set
    ring = ("u_1", "u_2")
    assert uplane(["u_1 + 1"], ring) is None
    assert uplane(["u_1*u_2 + u_1"], ring) is None


_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_branch_restriction_is_the_substitution_of_the_solved_rows(data):
    # reducing modulo the rref rows read as linear forms is substituting, for
    # each pivot u_p, the solved row: one term -c*u_j per nonzero entry c at j > p
    k = data.draw(st.integers(1, 6))
    ring = tuple(f"u_{i}" for i in range(1, k + 1))
    rows = data.draw(st.lists(st.lists(_fraction, min_size=k, max_size=k).filter(any),
                              min_size=1, max_size=k))
    gens = [Polynomial(ring, data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * k), _fraction, max_size=5))) for _ in range(3)]
    R, pivots = sympy_rref(rows)
    solved = {ring[p]: Polynomial(ring, {tuple(int(i == j) for i in range(k)): -c
                                         for j, c in enumerate(R[r][p + 1:], p + 1) if c})
              for r, p in enumerate(pivots)}
    assert limits._restricted(gens, rows, ring) == [g.substitute(solved) for g in gens]


def test_describe_planes_empty_input():
    assert describe_planes([]) is None


def test_describe_planes_pure_powers_in_one_batch():
    # u_1 = u_2 = 0 together leave the linear form -u_3 - u_4, whatever the
    # order of the two squares; set one at a time, u_2 - u_3 - u_4 would pin
    # u_2 first and turn u_2^2 into an unsplittable trinomial
    ring = ("u_1", "u_2", "u_3", "u_4", "u_5")
    plane = ((0, 0, 1, -1, 0), (0, 0, 0, 0, 1))
    for squares in (["u_1^2", "u_2^2"], ["u_2^2", "u_1^2"]):
        assert uplane(squares + ["u_2 - u_3 - u_4 + u_1*u_5"], ring) == (plane,)


def test_describe_planes_linear_forms_and_pure_powers_in_one_batch():
    # u_1 = 0 and u_1 + u_2 - u_3 = 0 together; substituting the linear form
    # first would turn u_1^2 into the unsplittable trinomial (u_3 - u_2)^2
    ring = ("u_1", "u_2", "u_3")
    for gens in (["u_1^2", "u_1 + u_2 - u_3"], ["u_1 + u_2 - u_3", "u_1^2"]):
        assert uplane(gens, ring) == (((0, 1, 1),),)


def test_describe_planes_depth_cap(monkeypatch):
    ring = ("u_1", "u_2", "u_3", "u_4")
    planes = uplane(["u_1*u_2", "u_3*u_4"], ring)
    assert [[tuple(i for i, c in enumerate(v) if c) for v in p] for p in planes] == [
        [(1,), (3,)], [(1,), (2,)], [(0,), (3,)], [(0,), (2,)]]
    monkeypatch.setattr(limits, "MAX_DEPTH", 1)  # the second split goes to depth 2
    assert uplane(["u_1*u_2", "u_3*u_4"], ring) is None


U4 = ("u_1", "u_2", "u_3", "u_4")
_unit = st.integers(-3, 3).filter(bool)
_exponents = st.tuples(*[st.integers(0, 2)] * len(U4))


@st.composite
def _supported_generator(draw):
    """One generator of a pattern `describe_planes` splits: a linear form, a
    monomial, a binomial with a common monomial factor, or a quadric
    c*(a^2*u_i^2 - b^2*u_j^2) with rational roots."""
    kind = draw(st.sampled_from(["linear", "monomial", "binomial", "quadric"]))
    if kind == "linear":
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(any))
        return Polynomial(U4, {tuple(int(j == i) for j in range(4)): c
                               for i, c in enumerate(coeffs) if c})
    if kind == "monomial":
        return Polynomial(U4, {draw(_exponents.filter(any)): draw(_unit)})
    if kind == "binomial":  # common * (c1*u_i + c2*u_j)
        common = draw(_exponents.filter(any))
        i, j = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
        return Polynomial(U4, {tuple(e + (k == i) for k, e in enumerate(common)): draw(_unit),
                               tuple(e + (k == j) for k, e in enumerate(common)): draw(_unit)})
    i, j = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
    a, b, c = draw(_unit), draw(_unit), draw(_unit)
    return Polynomial(U4, {tuple(2 * (k == i) for k in range(4)): c * a * a,
                           tuple(2 * (k == j) for k in range(4)): -c * b * b})


@settings(max_examples=40, deadline=None)
@given(st.lists(_supported_generator(), min_size=1, max_size=4))
def test_describe_planes_lie_in_the_zero_set(gens):
    planes = describe_planes(gens)
    if planes is None:
        return
    t = sympy.symbols("t0:4")

    def rank(vectors):
        return sympy.Matrix(len(vectors), 4, [sympy.Rational(c) for v in vectors for c in v]).rank()

    for plane in planes:
        # each generator vanishes identically on the plane's parametrization
        point = [sum((sympy.Rational(v[k]) * t[m] for m, v in enumerate(plane)), sympy.Integer(0))
                 for k in range(4)]
        for g in gens:
            assert sympy.expand(as_sympy(g, point)) == 0
        for other in planes:
            if other != plane:
                assert rank(other + plane) > rank(other)  # plane is not inside other
