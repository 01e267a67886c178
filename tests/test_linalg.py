import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nashblowup import hjac, linalg
from nashblowup.parser import parse_polynomial

from conftest import sympy_rref


def test_rank_fixtures():
    assert linalg.rank([]) == 0
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[Fraction(1, 2), 1], [1, 2]]) == 1


def test_rref_fixture():
    R, d, pivots = linalg._reduced([[2, 4, 0], [1, 2, 1]])
    assert pivots == [0, 2] and d == 1
    assert R[0] == [1, 2, 0]
    assert R[1] == [0, 0, 1]


def test_reduced_fixture():
    # rref [[1, 0, -1/6], [0, 1, 1/3]] as ints over its lcd 6
    assert linalg._reduced([[2, 1, 0], [0, 3, 1], [2, 4, 1]]) == ([[6, 0, -1], [0, 6, 2]], 6, [0, 1])
    assert linalg._reduced([[0, 0]]) == ([], 1, [])


def test_kernel_fixture():
    basis = linalg.kernel_basis([[3, -2]])
    assert len(basis) == 1
    assert 3 * basis[0][0] - 2 * basis[0][1] == 0


def test_kernel_empty_matrix_needs_width():
    with pytest.raises(ValueError):
        linalg.kernel_basis([])
    basis = linalg.kernel_basis([], width=3)
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("call", [
    lambda: linalg.rank([[0.1, 0.2]]),
    lambda: linalg._reduced([[0.5, 1]]),
    lambda: linalg.kernel_basis([[1, Fraction(1, 2)], [2, 1.0]]),
    lambda: linalg.rank([[1, Decimal("0.5")]]),
    lambda: linalg.rank([["1/2", 1]]),
])
def test_inexact_scalars_are_refused(call):
    with pytest.raises(TypeError, match="not an exact rational scalar"):
        call()


def test_exact_scalars_of_every_kind_are_taken():
    assert linalg.rank([[True, 2], [Fraction(1, 2), 1]]) == 1
    assert linalg._reduced([[2, 4], [1, Fraction(3)]]) == ([[1, 0], [0, 1]], 1, [0, 1])


def test_ragged_rows_are_refused():
    with pytest.raises(ValueError, match="widths 2 and 1"):
        linalg.rank([[1, 2], [3]])
    with pytest.raises(ValueError, match="widths 1 and 3"):
        linalg._reduced([[Fraction(1, 2)], [1, 2, 3]])


def test_kernel_width_must_match_the_rows():
    with pytest.raises(ValueError, match="width 5 given for rows of width 2"):
        linalg.kernel_basis([[1, 2]], width=5)
    assert linalg.kernel_basis([[1, 2]], width=2) == [[-2, 1]]


def test_integer_rows_are_left_as_they_are():
    # a row of ints is eliminated as given; the caller's rows are not written into
    rows = [[2, 4, 6], [1, 2, 4], [0, 0, 0]]
    copy = [list(row) for row in rows]
    assert linalg._reduced(rows) == ([[1, 2, 0], [0, 0, 1]], 1, [0, 2])
    assert linalg.kernel_basis(rows) == [[-2, 1, 0]]
    assert linalg.rank(rows) == 2 and rows == copy


def matrix_strategy():
    dims = st.tuples(st.integers(1, 4), st.integers(1, 4))
    return dims.flatmap(lambda d: st.lists(
        st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
                 min_size=d[1], max_size=d[1]),
        min_size=d[0], max_size=d[0]))


@settings(max_examples=60, deadline=None)
@given(matrix_strategy())
def test_rank_nullity(rows):
    n = len(rows[0])
    r = linalg.rank(rows)
    kernel = linalg.kernel_basis(rows, width=n)
    assert r + len(kernel) == n
    for v in kernel:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


@settings(max_examples=60, deadline=None)
@given(matrix_strategy())
def test_rref_consistent_with_rank(rows):
    R, d, pivots = linalg._reduced(rows)
    assert len(pivots) == len(R) == linalg.rank(rows)
    for r, p in enumerate(pivots):
        assert R[r][p] == d
        for i in range(len(R)):
            if i != r:
                assert R[i][p] == 0


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                         for row in rows])


def low_rank_strategy():
    """m x n products of an m x k and a k x n matrix: rank at most k."""
    entries = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    dims = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(0, 3))
    return dims.flatmap(lambda d: st.tuples(
        st.lists(st.lists(entries, min_size=d[2], max_size=d[2]), min_size=d[0], max_size=d[0]),
        st.lists(st.lists(entries, min_size=d[1], max_size=d[1]), min_size=d[2], max_size=d[2]),
        st.just(d[1]))).map(lambda ab: [
            [sum((a[t] * ab[1][t][j] for t in range(len(a))), Fraction(0)) for j in range(ab[2])]
            for a in ab[0]])


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrix_strategy(), low_rank_strategy()), st.data())
def test_reduced_is_the_canonical_integer_rref(rows, data):
    # the nonzero rref rows as ints over their lcd d > 0, each pivot entry d,
    # a function of the row space alone
    R, d, pivots = linalg._reduced(rows)
    expected, expected_pivots = sympy_rref(rows)
    assert pivots == expected_pivots
    assert d > 0 and d == math.lcm(*(x.denominator for row in expected for x in row))
    assert all(R[r][p] == d for r, p in enumerate(pivots))
    assert {type(x) for row in R for x in row} <= {int}
    assert [[Fraction(x, d) for x in row] for row in R] == expected
    # the same row space: the rows each times a nonzero int, and the rows
    # with integer combinations of them, shuffled
    k, n = len(rows), len(rows[0])
    scales = data.draw(st.lists(st.integers(-4, 4).filter(bool), min_size=k, max_size=k))
    combinations = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                                      max_size=4))
    more = rows + [[sum((c * row[j] for c, row in zip(cs, rows)), Fraction(0)) for j in range(n)]
                   for cs in combinations]
    assert linalg._reduced([[c * x for x in row] for c, row in zip(scales, rows)]) == (R, d, pivots)
    assert linalg._reduced(data.draw(st.permutations(more))) == (R, d, pivots)


def assert_matches_sympy(rows):
    expected, expected_pivots = sympy_rref(rows)
    R, d, pivots = linalg._reduced(rows)
    assert pivots == expected_pivots
    assert [[Fraction(x, d) for x in row] for row in R] == expected
    assert linalg.rank(rows) == len(expected_pivots)
    kernel = linalg.kernel_basis(rows, width=len(rows[0]))
    assert [to_sympy([v]).T for v in kernel] == to_sympy(rows).nullspace()


@settings(max_examples=80, deadline=None)
@given(st.one_of(matrix_strategy(), low_rank_strategy()))
def test_rank_rref_kernel_match_sympy(rows):
    assert_matches_sympy(rows)


# Jacobian-sized input: wide, sparse and rank-deficient, where the
# elimination skips rows with a zero in the pivot column and divides rows
# by the gcd of their entries


def workload_points():
    """The singular origin, then points (t^4/s, s, t) of x*y - z^4, the
    first with t = 0."""
    rng = random.Random(0)
    points = [(0, 0, 0)]
    for k in range(5):
        s = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if k else Fraction(0)
        points.append((t ** 4 / s, s, t))
    return points


@pytest.mark.parametrize("point", workload_points())
def test_match_sympy_on_order_four_jacobians(point):
    # x*y - z^4 at n=4 (20 x 34), at the points the pointwise benchmark queries
    F = parse_polynomial("x*y - z^4", ("x", "y", "z"))
    rows = hjac.evaluate_at(hjac.build(F, 4), point)
    assert (len(rows), len(rows[0])) == (20, 34)
    assert_matches_sympy(rows)
    assert linalg.rank(rows) == (10 if point == (0, 0, 0) else 20)


def test_rank_needs_no_back_substitution(monkeypatch):
    # rank reads the pivots off the echelon form; only _reduced and
    # kernel_basis clear the pivot columns above their pivots
    F = parse_polynomial("x*y - z^4", ("x", "y", "z"))
    jac = hjac.build(F, 4)
    origin, point = workload_points()[:2]

    def refuse(work, pivots):
        raise AssertionError("back-substitution")

    monkeypatch.setattr(linalg, "_back_substitute", refuse)
    rows = hjac.evaluate_at(jac, point)
    assert linalg.rank(rows) == 20
    assert linalg.rank(hjac.evaluate_at(jac, origin)) == 10
    with pytest.raises(AssertionError, match="back-substitution"):
        linalg._reduced(rows)
    with pytest.raises(AssertionError, match="back-substitution"):
        linalg.kernel_basis(rows)


@pytest.mark.parametrize("k", [0, 1, 4, 9, 13, 19, 20])
def test_match_sympy_on_wide_low_rank_products(k):
    # 20 x 34 products of sparse 20 x k and k x 34 factors: rank at most k,
    # with zero rows and columns
    rng = random.Random(k)
    left = [[rng.choice([0, 0, 0, 1, -1, 2, Fraction(1, 3)]) for _ in range(k)]
            for _ in range(20)]
    right = [[rng.choice([0, 0, 0, 0, 1, -2, 3, Fraction(-1, 2)]) for _ in range(34)]
             for _ in range(k)]
    rows = [[sum((a[i] * right[i][j] for i in range(k)), Fraction(0)) for j in range(34)]
            for a in left]
    assert linalg.rank(rows) <= k
    assert_matches_sympy(rows)
