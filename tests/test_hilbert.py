import math
import random
from fractions import Fraction

import pytest

from nashblowup.hilbert import MonomialIdeal, graded_dim, local_hilbert, \
    nonsingular_by_dimension
from nashblowup.hjac import PointNotOnHypersurfaceError, is_singular, rank_at, shape
from nashblowup.polynomial import Polynomial

from conftest import P

RING2 = ("x", "y")
RING3 = ("x", "y", "z")

CUSP = "x^3 - y^2"
NODE = "x^3 + x^2 - y^2"
SURF = "x*y - z^4"


# -- monomial ideals and graded dimensions ---------------------------------


def test_monomial_ideal_minimality():
    a = MonomialIdeal(2, [(2, 0), (2, 1), (0, 3)])
    assert a.generators == ((2, 0), (0, 3))
    assert a.contains_monomial((2, 5))
    assert not a.contains_monomial((1, 2))


def test_monomial_ideal_rejects_bad_generators():
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(1, 0, 0)])
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(1, -1)])


def test_graded_dim_fixtures():
    a = MonomialIdeal(2, [(2, 0), (0, 2)])  # <x^2, y^2>
    assert graded_dim(a, 3) == 0
    assert graded_dim(a, 2) == 1  # only xy survives
    b = MonomialIdeal(2, [(0, 2)])  # <y^2>
    assert graded_dim(b, 2) == 2  # x^2, xy
    with pytest.raises(ValueError):
        graded_dim(a, -1)


def test_graded_dim_below_minimal_degree():
    # below the smallest generator degree nothing is removed
    rng = random.Random(11)
    for s in (1, 2, 3, 4):
        gens = [tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(3)]
        gens = [g for g in gens if sum(g) >= 2] or [(2,) + (0,) * (s - 1)]
        a = MonomialIdeal(s, gens)
        l = min(sum(g) for g in a.generators)
        for n in range(l):
            assert graded_dim(a, n) == math.comb(n + s - 1, s - 1)


def test_shared_variable_lower_bound():
    # if every generator is a multiple of one fixed variable, the quotient
    # keeps at least all monomials free of that variable
    rng = random.Random(23)
    for _ in range(40):
        s = rng.randint(2, 4)
        i = rng.randrange(s)
        gens = []
        for _ in range(rng.randint(1, 4)):
            g = [rng.randint(0, 3) for _ in range(s)]
            g[i] = rng.randint(1, 3)
            gens.append(tuple(g))
        a = MonomialIdeal(s, gens)
        for n in range(11):
            assert graded_dim(a, n) >= math.comb(n + s - 2, s - 2)


# -- local hilbert function --------------------------------------------------


def test_local_hilbert_fixtures():
    F = P(CUSP, RING2)
    assert local_hilbert(F, 0) == 1
    assert local_hilbert(F, 1) == 2
    assert local_hilbert(F, 2) == 2  # initial ideal <y^2>
    assert local_hilbert(F, 3) == 2


def test_local_hilbert_linear():
    # non-singular model: for s=2 a linear F gives 1 in every degree >= 1
    F = P("x", RING2)
    for k in range(5):
        assert local_hilbert(F, k) == (1 if k else 1)
    G = P("x", RING3)
    for k in range(1, 5):
        assert local_hilbert(G, k) == math.comb(k + 1, 1)


def test_local_hilbert_preconditions():
    with pytest.raises(ValueError):
        local_hilbert(Polynomial.zero(RING2), 2)
    with pytest.raises(ValueError):
        local_hilbert(P("x + 1", RING2), 2)


def test_local_hilbert_origin_off_surface_is_specific():
    with pytest.raises(PointNotOnHypersurfaceError, match="origin is not on"):
        local_hilbert(P("x^3 - y^2 + 1", RING2), 2)


def test_local_hilbert_lower_bound():
    for text, ring in ((CUSP, RING2), (NODE, RING2), (SURF, RING3)):
        F = P(text, ring)
        s = len(ring)
        for n in range(6):
            assert local_hilbert(F, n) >= math.comb(n + s - 2, s - 2)


# -- dimension criterion -------------------------------------------------------


def test_nonsingular_by_dimension_fixtures():
    F = P(CUSP, RING2)
    assert not nonsingular_by_dimension(F, 2, (0, 0))
    assert nonsingular_by_dimension(F, 2, (1, 1))
    assert not nonsingular_by_dimension(F, 1, (0, 0))
    with pytest.raises(PointNotOnHypersurfaceError):
        nonsingular_by_dimension(F, 2, (1, 2))


def test_nonsingular_by_dimension_checks_the_order():
    # the same input error as the rank criterion, not a verdict
    F = P(CUSP, RING2)
    for n in (0, -1):
        with pytest.raises(ValueError, match="order must be >= 1"):
            is_singular(F, n, (1, 1))
        with pytest.raises(ValueError, match="order must be >= 1"):
            nonsingular_by_dimension(F, n, (1, 1))


def translate(F, p):
    return F.substitute({
        name: Polynomial.variable(F.ring, name) + Polynomial.constant(F.ring, c)
        for name, c in zip(F.ring, p)})


SAMPLES = {
    CUSP: (RING2, [(0, 0), (1, 1), (4, 8), (Fraction(1, 4), Fraction(1, 8))]),
    NODE: (RING2, [(0, 0), (3, 6), (Fraction(-3, 4), Fraction(3, 8))]),
    SURF: (RING3, [(0, 0, 0), (1, 1, 1), (16, 1, 2), (2, 8, 2)]),
}


def test_cross_check_with_rank():
    # sum of graded pieces equals corank of the evaluated matrix
    for text, (ring, pts) in SAMPLES.items():
        F = P(text, ring)
        s = len(ring)
        for p in pts:
            assert F.evaluate(p) == 0
            Fp = translate(F, p)
            for n in (1, 2, 3):
                total = sum(local_hilbert(Fp, k) for k in range(1, n + 1))
                M, C = shape(s, n)
                assert total == C - rank_at(F, n, p)


def test_dimension_criterion_matches_rank_criterion():
    for text, (ring, pts) in SAMPLES.items():
        F = P(text, ring)
        for p in pts:
            for n in (1, 2, 3):
                assert nonsingular_by_dimension(F, n, p) == (
                    not is_singular(F, n, p))
