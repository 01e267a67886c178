import math
import random
from fractions import Fraction

import pytest

from nashblowup import multiindex as mi
from nashblowup.hilbert import MonomialIdeal, graded_dim, local_hilbert, \
    nonsingular_by_dimension
from nashblowup.hjac import PointNotOnHypersurfaceError, is_singular, rank_at, shape
from nashblowup.polynomial import Polynomial, grevlex

from conftest import P, translate

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
    # refused at construction, before graded_dim could recurse over no variables
    for s in (0, -1):
        with pytest.raises(ValueError, match="need at least one variable"):
            MonomialIdeal(s, [])


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


def test_local_hilbert_checks_the_origin_before_the_degree():
    with pytest.raises(PointNotOnHypersurfaceError):
        local_hilbert(P("1 + x", RING2), -1)
    with pytest.raises(ValueError, match="degree must be non-negative"):
        local_hilbert(P("x", RING2), -1)


def test_local_hilbert_matches_the_enumeration():
    # the closed form against the count of degree-n monomials outside the
    # initial ideal, generated by the grevlex leading monomial of the
    # lowest-degree terms of F
    rng = random.Random(17)
    for s in range(1, 5):
        ring = tuple(f"x_{i}" for i in range(s))
        for e in range(1, 6):
            lowest = list(mi.iter_degree(s, e))
            higher = [m for d in range(e + 1, e + 3) for m in mi.iter_degree(s, d)]
            for _ in range(3):
                terms = {m: rng.choice([-3, -1, 1, 2])
                         for m in rng.sample(lowest, min(3, len(lowest)))}
                terms.update((m, rng.randint(-4, 4))
                             for m in rng.sample(higher, min(4, len(higher))))
                F = Polynomial(ring, terms)
                lead = max((m for m in F.terms if sum(m) == e), key=grevlex().key_func(ring))
                for n in range(9):
                    assert local_hilbert(F, n) == graded_dim(MonomialIdeal(s, [lead]), n)


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


def random_points(rng):
    """Seeded points of the cusp, the node and x*y - z^4, the singular point
    of each among them, from their parametrisations."""
    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    ts = [q() for _ in range(4)]
    return {
        CUSP: [(t**2, t**3) for t in ts + [0]],
        NODE: [(t**2 - 1, t * (t**2 - 1)) for t in ts + [1, -1]],
        SURF: [(t**4 / s, s, t) for t, s in zip(ts, [q() or 1 for _ in ts])]
        + [(q(), 0, 0), (0, q(), 0), (0, 0, 0)],
    }


@pytest.mark.parametrize("seed", range(3))
def test_dimension_criterion_matches_the_translate(seed):
    # the order of F at p read from its Taylor expansion against the local
    # Hilbert function of the whole translate F(x + p), by substitution
    for text, points in random_points(random.Random(seed)).items():
        F = P(text, RING3 if text == SURF else RING2)
        s = F.num_vars
        for p in points:
            shifted = translate(F, p)
            for n in range(1, 5):
                total = sum(local_hilbert(shifted, k) for k in range(1, n + 1))
                assert nonsingular_by_dimension(F, n, p) == (
                    total == math.comb(n + s - 1, s - 1) - 1)
