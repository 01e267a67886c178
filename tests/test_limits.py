from fractions import Fraction

import pytest

from nashblowup.groebner import BudgetExceededError, Ideal, eliminate, ideal_equal
from nashblowup.hjac import PointNotOnHypersurfaceError, SingularPointError, maximal_minors
from nashblowup.limits import (
    build_graph_ideal,
    containment_oracle,
    describe_planes,
    elimination_stage_oracle,
    limit_ideal,
    translate_to_origin,
)
from nashblowup.parser import parse_polynomial

from conftest import P

RING2 = ("x", "y")

CUSP = "x^3 - y^2"
NODE = "x^3 + x^2 - y^2"

U10 = tuple(f"u_{k}" for k in range(1, 11))


def u_ideal(result, texts):
    ring = result.u_ring
    return Ideal(ring, [parse_polynomial(t, ring) for t in texts])


# -- construction --------------------------------------------------------------


def test_graph_ideal_shape():
    A = build_graph_ideal(P(CUSP, RING2), 2, (0, 0))
    # ring is (t, x, y, u_1..u_10); one hypersurface equation + 10 graph relations
    assert A.ring == ("t", "x", "y") + U10
    assert len(A.generators) == 11
    t_idx = 0
    graph = [g for g in A.generators if any(m[t_idx] for m in g.terms)]
    assert len(graph) == 10


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
    from dataclasses import replace
    bad = parse_polynomial("u_10 - 1", cusp_result.u_ring)
    broken = replace(cusp_result, generators=cusp_result.generators + (bad,))
    assert not containment_oracle(broken)


def test_elimination_stage_oracle(cusp_result):
    # the x,u-stage basis (t eliminated, x not yet set to zero) substitutes
    # to an actual multiple of the hypersurface equation
    A = build_graph_ideal(P(CUSP, RING2), 2, (0, 0))
    stage = eliminate(A, ("t",), max_pairs=None)
    assert elimination_stage_oracle(cusp_result, stage.generators)


# -- plane reporting ----------------------------------------------------------


def uplane(texts, ring):
    return describe_planes([parse_polynomial(t, ring) for t in texts], len(ring))


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
    assert describe_planes([], 3) is None
