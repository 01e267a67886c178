from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nashblowup import linalg


def test_rank_fixtures():
    assert linalg.rank([]) == 0
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[Fraction(1, 2), 1], [1, 2]]) == 1


def test_rref_fixture():
    R, pivots = linalg.rref([[2, 4, 0], [1, 2, 1]])
    assert pivots == [0, 2]
    assert R[0] == [1, 2, 0]
    assert R[1] == [0, 0, 1]


def test_kernel_fixture():
    basis = linalg.kernel_basis([[3, -2]])
    assert len(basis) == 1
    assert 3 * basis[0][0] - 2 * basis[0][1] == 0


def test_kernel_empty_matrix_needs_width():
    with pytest.raises(ValueError):
        linalg.kernel_basis([])
    basis = linalg.kernel_basis([], width=3)
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_det_fixtures():
    assert linalg.det([[Fraction(1, 2)]]) == Fraction(1, 2)
    assert linalg.det([[0, 1], [1, 0]]) == -1
    assert linalg.det([[1, 2], [2, 4]]) == 0
    assert linalg.det([[0, 0, 1], [0, 2, 0], [Fraction(1, 3), 0, 0]]) == Fraction(-2, 3)
    with pytest.raises(ValueError):
        linalg.det([[1, 2]])
    with pytest.raises(ValueError):
        linalg.det([])


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
    R, pivots = linalg.rref(rows)
    assert len(pivots) == linalg.rank(rows)
    for r, p in enumerate(pivots):
        assert R[r][p] == 1
        for i in range(len(R)):
            if i != r:
                assert R[i][p] == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
             min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_det_matches_sympy(rows):
    assert linalg.det(rows) == Fraction(str(sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows]).det()))


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


@settings(max_examples=80, deadline=None)
@given(st.one_of(matrix_strategy(), low_rank_strategy()))
def test_rank_rref_kernel_match_sympy(rows):
    expected, expected_pivots = to_sympy(rows).rref()
    R, pivots = linalg.rref(rows)
    assert pivots == list(expected_pivots)
    assert to_sympy(R) == expected
    assert linalg.rank(rows) == len(expected_pivots)
    kernel = linalg.kernel_basis(rows, width=len(rows[0]))
    assert [to_sympy([v]).T for v in kernel] == to_sympy(rows).nullspace()
