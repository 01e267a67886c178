import gc
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nashblowup import hjac, linalg
from nashblowup import multiindex as mi
from nashblowup.groebner import BudgetExceededError, Ideal, ideal_equal, normal_form
from nashblowup.hjac import (
    PointNotOnHypersurfaceError,
    SingularPointError,
    build,
    evaluate_at,
    is_singular,
    maximal_minors,
    nash_ideal,
    rank_at,
    shape,
    tangent_space,
)
from nashblowup.limits import limit_ideal, translate_to_origin
from nashblowup.parser import format_polynomial
from nashblowup.polynomial import Polynomial, grevlex

from conftest import P, as_sympy, is_row_echelon, sub, sympy_det, taylor_coeff, translate

RING2 = ("x", "y")
RING3 = ("x", "y", "z")

CUSP = "x^3 - y^2"
NODE = "x^3 + x^2 - y^2"
SURF = "x*y - z^4"


def rows_as_strings(jac):
    return [[format_polynomial(e) for e in row] for row in jac.entries]


def canonical(rows, ring):
    # the reference rows below use assorted term orders; compare canonical forms
    return [[format_polynomial(P(e, ring)) for e in row] for row in rows]


# -- matrix fixtures ---------------------------------------------------------


def test_cusp_matrix():
    jac = build(P(CUSP, RING2), 2)
    assert rows_as_strings(jac) == [
        ["3*x^2", "-2*y", "3*x", "0", "-1"],
        ["x^3 - y^2", "0", "3*x^2", "-2*y", "0"],
        ["0", "x^3 - y^2", "0", "3*x^2", "-2*y"],
    ]
    assert jac.col_labels == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert jac.row_labels == ((0, 0), (1, 0), (0, 1))


def test_node_matrix():
    jac = build(P(NODE, RING2), 2)
    assert rows_as_strings(jac) == [
        ["3*x^2 + 2*x", "-2*y", "3*x + 1", "0", "-1"],
        ["x^3 + x^2 - y^2", "0", "3*x^2 + 2*x", "-2*y", "0"],
        ["0", "x^3 + x^2 - y^2", "0", "3*x^2 + 2*x", "-2*y"],
    ]


def test_surface_matrix():
    F = "x*y - z^4"
    jac = build(P(SURF, RING3), 2)
    assert rows_as_strings(jac) == canonical([
        ["y", "x", "-4*z^3", "0", "1", "0", "0", "0", "-6*z^2"],
        [F, "0", "0", "y", "x", "0", "-4*z^3", "0", "0"],
        ["0", F, "0", "0", "y", "x", "0", "-4*z^3", "0"],
        ["0", "0", F, "0", "0", "0", "y", "x", "-4*z^3"],
    ], RING3)


def test_shape():
    assert shape(2, 2) == (3, 5)
    assert shape(3, 2) == (4, 9)
    assert shape(2, 1) == (1, 2)
    for s in (1, 2, 3):
        for n in (1, 2, 3):
            jac = build(P("+".join(f"{v}^2" for v in RING3[:s]), RING3[:s]), n)
            assert (jac.num_rows, jac.num_cols) == shape(s, n)


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build(Polynomial.zero(RING2), 2)
    with pytest.raises(ValueError):
        build(P(CUSP, RING2), 0)


def test_jac1_equals_classical():
    # the order-1 matrix is the row of first partials
    for text, ring in ((CUSP, RING2), (SURF, RING3), ("x + y", RING2)):
        F = P(text, ring)
        s = len(ring)
        partials = tuple(F.derivative(tuple(int(i == j) for i in range(s))) for j in range(s))
        assert build(F, 1).entries == (partials,)
    jac = build(P(CUSP, RING2), 1)
    assert rows_as_strings(jac) == [["3*x^2", "-2*y"]]


# -- entry laws ----------------------------------------------------------------


def test_entry_law_full():
    # every entry recomputed independently from the Taylor coefficients
    for text, ring in ((CUSP, RING2), (NODE, RING2), (SURF, RING3)):
        F = P(text, ring)
        for n in (1, 2, 3):
            jac = build(F, n)
            for beta in jac.row_labels:
                for alpha in jac.col_labels:
                    if mi.leq(beta, alpha):
                        expected = taylor_coeff(F, sub(alpha, beta))
                    else:
                        expected = Polynomial.zero(ring)
                    assert jac.entry(beta, alpha) == expected


@pytest.mark.parametrize("text,ring,n", [(CUSP, RING2, 2), (SURF, RING3, 3), ("x^3", ("x",), 1)])
def test_build_shares_one_polynomial_per_difference(text, ring, n):
    # the matrix is its Taylor table read through the cells: the table holds
    # d^gamma F / gamma! for |gamma| <= n in the canonical order and then 0,
    # and each cell holds the position of alpha - beta, or that of the 0
    F = P(text, ring)
    jac = build(F, n)
    gammas = mi.enumerate_indices(len(ring), 0, n)
    assert jac.taylor == tuple(taylor_coeff(F, g) for g in gammas) + (Polynomial.zero(ring),)
    for beta, row, cells in zip(jac.row_labels, jac.entries, jac.cells):
        for alpha, e, k in zip(jac.col_labels, row, cells):
            gamma = sub(alpha, beta)
            assert k == (gammas.index(gamma) if min(gamma) >= 0 else len(gammas))
            assert e is jac.taylor[k]


def test_diagonal_law():
    F = P(SURF, RING3)
    jac = build(F, 3)
    for beta in jac.row_labels:
        if 1 <= sum(beta) <= 2:
            assert jac.entry(beta, beta) == F


def test_shift_law():
    F = P(CUSP, RING2)
    n = 3
    jac = build(F, n)
    zero = (0, 0)
    for beta in jac.row_labels:
        for alpha in jac.col_labels:
            if 1 <= sum(alpha) <= n - sum(beta):
                shifted = tuple(b + a for b, a in zip(beta, alpha))
                assert jac.entry(beta, shifted) == jac.entry(zero, alpha)


# -- evaluation, rank, tangent spaces ------------------------------------------


def test_evaluate_fixtures():
    jac = build(P(CUSP, RING2), 2)
    assert evaluate_at(jac, (0, 0)) == [
        [0, 0, 0, 0, -1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]
    assert evaluate_at(jac, (1, 1)) == [
        [3, -2, 3, 0, -1], [0, 0, 3, -2, 0], [0, 0, 0, 3, -2]]
    assert evaluate_at(build(P(CUSP, RING2), 1), (0, 0)) == [[0, 0]]


def test_evaluate_off_hypersurface():
    jac = build(P(CUSP, RING2), 2)
    with pytest.raises(PointNotOnHypersurfaceError):
        evaluate_at(jac, (1, 2))


def test_off_hypersurface_message_prints_rational_coordinates():
    with pytest.raises(PointNotOnHypersurfaceError) as exc:
        rank_at(P(CUSP, RING2), 2, (Fraction(1, 2), 1))
    assert str(exc.value) == "F(1/2, 1) = -7/8 != 0"


def test_rank_fixtures():
    F = P(CUSP, RING2)
    assert rank_at(F, 2, (1, 1)) == 3
    assert rank_at(F, 2, (0, 0)) == 1
    assert rank_at(F, 1, (0, 0)) == 0


def test_is_singular_fixtures():
    assert is_singular(P(CUSP, RING2), 2, (0, 0))
    assert not is_singular(P(CUSP, RING2), 2, (1, 1))
    assert is_singular(P(NODE, RING2), 2, (0, 0))
    assert is_singular(P(SURF, RING3), 2, (0, 0, 0))


def test_tangent_space_fixtures():
    F = P(CUSP, RING2)
    basis = tangent_space(F, 1, (1, 1))
    assert len(basis) == 1
    # kernel of (3, -2)
    assert 3 * basis[0][0] - 2 * basis[0][1] == 0
    basis2 = tangent_space(F, 2, (1, 1))
    assert len(basis2) == 2
    with pytest.raises(SingularPointError):
        tangent_space(F, 2, (0, 0))
    hyper = tangent_space(P("x", RING3), 1, (0, 0, 0))
    assert hyper == [[0, 1, 0], [0, 0, 1]]


def test_tangent_space_checks_the_point_before_any_rank(monkeypatch):
    def no_rank(*args, **kwargs):
        raise AssertionError("rank taken before the point was checked")

    for name in ("rank", "rref", "kernel_basis"):
        monkeypatch.setattr(linalg, name, no_rank)
    with pytest.raises(PointNotOnHypersurfaceError):
        tangent_space(P(CUSP, RING2), 2, (1, 2))


def cusp_points(count=25):
    return [(Fraction(t) ** 2, Fraction(t) ** 3)
            for t in list(range(-count // 2, 0)) + list(range(1, count // 2 + 2))]


def node_points(count=25):
    # y = w*x with w^2 = 1 + x: rational for rational w
    pts = []
    for k in range(1, count + 1):
        w = Fraction(k, k + 1)
        x = w ** 2 - 1
        pts.append((x, w * x))
    return pts


def test_criterion_equivalence_on_samples():
    for text, ring, pts in ((CUSP, RING2, cusp_points()),
                            (NODE, RING2, node_points())):
        F = P(text, ring)
        partials = [F.derivative(tuple(1 if i == j else 0 for i in range(len(ring))))
                    for j in range(len(ring))]
        for p in pts + [(Fraction(0), Fraction(0))]:
            classical = all(g.evaluate(p) == 0 for g in partials)
            for n in (1, 2, 3):
                assert is_singular(F, n, p) == classical


def test_kernel_dimension_at_nonsingular_samples():
    for text, ring, pts in ((CUSP, RING2, cusp_points(10)),
                            (NODE, RING2, node_points(10))):
        F = P(text, ring)
        s = len(ring)
        for p in pts:
            for n in (1, 2, 3):
                if is_singular(F, n, p):
                    continue
                M, C = shape(s, n)
                assert len(tangent_space(F, n, p)) == C - M


# rational parametrizations by (t, s), s != 0, of the three hypersurfaces
ON_HYPERSURFACE = {
    CUSP: (RING2, lambda t, s: (t ** 2, t ** 3)),
    NODE: (RING2, lambda t, s: (t ** 2 - 1, t * (t ** 2 - 1))),
    SURF: (RING3, lambda t, s: (t ** 4 / s, s, t)),
}


@pytest.mark.parametrize("text", sorted(ON_HYPERSURFACE))
def test_entries_are_the_coefficients_of_the_translate(text):
    # F(x + p) = sum over gamma of (d^gamma F / gamma!)(p) x^gamma, so entry
    # (beta, alpha) of the evaluated matrix is the coefficient of
    # x^(alpha - beta) in F(x + p).  evaluate_at and translate_to_origin
    # share one Taylor expansion, so both are checked against references
    # that do not use it: the translate by substitution, and the symbolic
    # entries of `build` evaluated one by one
    ring, param = ON_HYPERSURFACE[text]
    F = P(text, ring)
    rng = random.Random(text)

    def rational(nonzero=False):
        return Fraction(rng.choice([-1, 1]) * rng.randint(int(nonzero), 9), rng.randint(1, 7))

    points = [(Fraction(0),) * len(ring)] + [param(rational(), rational(True)) for _ in range(6)]
    partials = [F.derivative(tuple(int(i == j) for i in range(len(ring))))
                for j in range(len(ring))]
    kinds = {all(d.evaluate(p) == 0 for d in partials) for p in points}
    assert kinds == {True, False}  # singular and non-singular points both
    for p in points:
        shifted = translate(F, p)
        assert translate_to_origin(F, p) == shifted
        for n in (1, 2, 3, 4):
            jac = build(F, n)
            matrix = evaluate_at(jac, p)
            assert matrix == [[e.evaluate(p) for e in row] for row in jac.entries]
            for beta, row in zip(jac.row_labels, matrix):
                for alpha, value in zip(jac.col_labels, row):
                    if mi.leq(beta, alpha):
                        assert value == shifted.terms.get(sub(alpha, beta), 0)
                    else:
                        assert value == 0


# (t, s) with 4- to 6-digit denominators and mixed numerators, for ON_HYPERSURFACE
LARGE_DENOMINATORS = [
    (Fraction(-31415, 2718), Fraction(100003, 99991)),
    (Fraction(65537, 1024), Fraction(-7, 123457)),
    (Fraction(1009, 271828), Fraction(-4321, 8765)),
]


@pytest.mark.parametrize("text", sorted(ON_HYPERSURFACE))
def test_integer_rows_give_the_rank_and_kernel_of_the_fraction_matrix(text):
    # rank_at and tangent_space eliminate evaluate_at's rows times d, the lcm
    # of their denominators (every Taylor value of degree 1..n sits in row 0);
    # linalg on the Fraction matrix is the reference
    ring, param = ON_HYPERSURFACE[text]
    F = P(text, ring)
    points = [(Fraction(0),) * len(ring)] + [param(t, s) for t, s in LARGE_DENOMINATORS]
    singular = set()
    for p in points:
        for n in (1, 2, 3, 4):
            jac = build(F, n)
            reference = evaluate_at(jac, p)
            d = math.lcm(*(x.denominator for row in reference for x in row))
            rows = hjac._integer_rows_at(jac, p)
            assert rows == [[d * x for x in row] for row in reference]
            assert {type(x) for row in rows for x in row} == {int}
            assert rank_at(F, n, p) == linalg.rank(reference)
            M, C = shape(len(ring), n)
            kernel = linalg.kernel_basis(reference, width=C)
            singular.add(len(kernel) > C - M)
            if len(kernel) > C - M:
                with pytest.raises(SingularPointError):
                    tangent_space(F, n, p)
            else:
                assert tangent_space(F, n, p) == kernel
    assert singular == {True, False}


def rational_polynomials(ring):
    coeffs = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 40))
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(ring)), coeffs,
                           max_size=5).map(lambda terms: Polynomial(ring, terms))


def rational_points(ring):
    large = [x for pair in LARGE_DENOMINATORS for x in pair]
    coords = st.one_of(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
                       st.sampled_from(large))
    return st.tuples(*[coords] * len(ring))


@settings(max_examples=120, deadline=None)
@given(data=st.sampled_from([("x",), RING2, RING3]).flatmap(
           lambda ring: st.tuples(rational_polynomials(ring), rational_points(ring))),
       degree=st.one_of(st.none(), st.integers(0, 4)))
def test_taylor_at_is_the_translate_in_integers(data, degree):
    # _taylor_at's integer numerators over its scale S = L*q^D are the terms of
    # F(x + p) of degree <= degree, against the translate by substitution
    F, p = data
    values, scale = hjac._taylor_at(F, p, degree)
    L = math.lcm(*(c.denominator for c in F.terms.values()))
    q = math.lcm(*(x.denominator for x in p))
    assert scale == L * q ** max(F.total_degree(), 0)
    assert all(type(v) is int and v for v in values.values())
    expected = {g: c for g, c in translate(F, p).terms.items()
                if degree is None or sum(g) <= degree}
    assert {g: Fraction(v, scale) for g, v in values.items()} == expected


def test_pointwise_queries_need_no_fraction_arithmetic_and_no_symbolic_table(monkeypatch):
    # the rank, the verdict and the kernel come from integer rows alone; Fractions
    # are only constructed (the point, the kernel's entries), never added,
    # multiplied or raised to a power, and no query sums the symbolic table
    F = P(SURF, RING3)
    points = [(Fraction(0),) * 3] + [ON_HYPERSURFACE[SURF][1](t, s) for t, s in LARGE_DENOMINATORS]
    expected = [(is_singular(F, 4, p), rank_at(F, 4, p),
                 None if is_singular(F, 4, p) else tangent_space(F, 4, p)) for p in points]
    assert {singular for singular, _, _ in expected} == {True, False}

    def no_arithmetic(*args):
        raise AssertionError("Fraction arithmetic on the pointwise path")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__pow__", "__rpow__"):
        monkeypatch.setattr(Fraction, name, no_arithmetic)
    for p, (singular, rank, basis) in zip(points, expected):
        assert (is_singular(F, 4, p), rank_at(F, 4, p)) == (singular, rank)
        if singular:
            with pytest.raises(SingularPointError):
                tangent_space(F, 4, p)
        else:
            assert tangent_space(F, 4, p) == basis
        jac = build(F, 4)
        hjac._integer_rows_at(jac, p)
        assert "taylor" not in vars(jac)
    monkeypatch.undo()
    assert jac.entries[0][0] is jac.taylor[jac.cells[0][0]]
    assert "taylor" in vars(jac)


def test_echelon_property():
    # when dF/dx_1 (first variable) does not vanish at p, the evaluated
    # matrix is already in row echelon form with that partial as every pivot
    for text, ring, pts in ((CUSP, RING2, cusp_points(8)),
                            (NODE, RING2, node_points(8))):
        F = P(text, ring)
        d1 = F.derivative(tuple(1 if i == 0 else 0 for i in range(len(ring))))
        for p in pts:
            if d1.evaluate(p) == 0:
                continue
            for n in (1, 2, 3):
                m = evaluate_at(build(F, n), p)
                assert is_row_echelon(m)
                pivot_value = d1.evaluate(p)
                for row in m:
                    nz = next(v for v in row if v != 0)
                    assert nz == pivot_value


def test_echelon_after_coordinate_permutation():
    # swap variables so the non-vanishing partial comes first
    F = P("y^3 - x^2", RING2)  # dF/dx = -2x vanishes on x = 0
    p = (Fraction(0), Fraction(0))
    # take a point with x = 0 impossible on this curve except origin; use a
    # generic point and permute so the first partial is nonzero
    Fp = P("x^3 - y^2", ("y", "x"))  # same surface, variables swapped
    q = (Fraction(1), Fraction(1))
    d1 = Fp.derivative((1, 0))
    assert d1.evaluate(q) != 0
    assert is_row_echelon(evaluate_at(build(Fp, 2), q))


# -- determinants and minors -----------------------------------------------


def test_det_row_swaps_and_singular_3x3():
    # the test-side reference determinant, on fixtures whose values are known
    x, y = Polynomial.variables(RING2)
    one = Polynomial.constant(RING2, 1)
    zero = Polynomial.zero(RING2)
    # a zero first pivot: one swap, so the sign flips
    assert sympy_det([[zero, x, y], [x, zero, one], [y, one, zero]]) == (x * y).scalar_mul(2)
    # the second pivot vanishes only after the first step: a swap mid-way
    assert sympy_det([[x, y, one], [x, y, x], [one, one, one]]) == x * y - x * x + x - y
    # the second row is x times the first
    assert sympy_det([[x, y, one], [x * x, x * y, x], [one, x, y]]) == zero
    # rank 1: every row a multiple of the first
    assert sympy_det([[x, y, one], [y * x, y * y, y], [-x, -y, -one]]) == zero


def test_minors_cusp_fixtures():
    F = P(CUSP, RING2)
    table = maximal_minors(F, 2)
    assert len(table) == 10
    assert [J for J, _ in table] == list(combinations(range(5), 3))
    by_cols = {J: d for J, d in table}
    # u_1 <-> columns (1,2,3): 3xF^2 - 9x^4 F expanded
    x = Polynomial.variable(RING2, "x")
    assert by_cols[(0, 1, 2)] == (x * F * F).scalar_mul(3) - (x ** 4 * F).scalar_mul(9)
    # u_10 <-> columns (3,4,5)
    assert by_cols[(2, 3, 4)] == P("12*x*y^2 - 9*x^4", RING2)


def dense_minor(jac, J):
    return sympy_det([[jac.entries[i][j] for j in J] for i in range(jac.num_rows)])


def test_minors_match_dense_determinants():
    # the sparse wedge expansion against sympy's dense determinant
    for text, ring, n in ((CUSP, RING2, 2), (NODE, RING2, 2), (SURF, RING3, 2)):
        F = P(text, ring)
        jac = build(F, n)
        table = maximal_minors(F, n)
        sample = table if len(table) <= 12 else table[::11]
        for J, d in sample:
            assert d == dense_minor(jac, J)


def test_minors_one_by_one():
    F = P("x^3 - x", ("x",))
    table = maximal_minors(F, 1)
    assert table == [((0,), F.derivative((1,)))]


def test_minor_count_for_surface():
    assert len(maximal_minors(P(SURF, RING3), 2)) == math.comb(9, 4)


def non_integral_polynomials(ring):
    # denominators prime to every binomial C(a, k) with a <= 4, so that every
    # nonzero Taylor coefficient, and so every nonzero entry, has a
    # non-integral coefficient and the minors' common denominator is not 1
    coeffs = st.builds(Fraction, st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]),
                       st.sampled_from([5, 7, 11]))
    monomials = st.tuples(*[st.integers(0, 4)] * len(ring)).filter(any)
    return st.dictionaries(monomials, coeffs, min_size=1, max_size=4).map(
        lambda terms: Polynomial(ring, terms))


@settings(max_examples=30, deadline=None)
@given(F=st.sampled_from([("x",), RING2, RING3]).flatmap(non_integral_polynomials),
       n=st.sampled_from([1, 2]))
def test_minors_match_dense_determinants_on_rational_F(F, n):
    jac = build(F, n)
    assert any(c.denominator > 1 for row in jac.entries for e in row
               for c in e.terms.values())
    table = maximal_minors(F, n)
    assert [J for J, _ in table] == list(combinations(range(jac.num_cols), jac.num_rows))
    # every minor of a small table, else a fixed spread of at least 20
    sample = table if len(table) <= 40 else table[::len(table) // 20]
    for J, d in sample:
        assert d == dense_minor(jac, J)


# M*deg F on a power of two and one below it: the packed exponent field is
# (M*deg F).bit_length() bits wide, exactly filled at 2^k - 1
@pytest.mark.parametrize("text,ring,n,bound", [
    ("x^7 - y^3", RING2, 1, 7),
    ("x^8 - y^3", RING2, 1, 8),
    ("x^5 - y^2", RING2, 2, 15),
    (SURF, RING3, 2, 16),
    ("x^5 - x^2", ("x",), 3, 15),
    ("x^4 - x^3", ("x",), 4, 16),
], ids=["7", "8", "15", "16", "15-univariate", "16-univariate"])
def test_minors_at_packing_boundaries(text, ring, n, bound):
    F = P(text, ring)
    jac = build(F, n)
    assert jac.num_rows * F.total_degree() == bound
    table = maximal_minors(F, n)
    for J, d in table:
        assert d == dense_minor(jac, J)
    if bound & (bound + 1) == 0:
        # some exponent needs every bit of the field, so a narrower one carries
        top = max(e for _, d in table for m in d.terms for e in m)
        assert top.bit_length() == bound.bit_length()


@pytest.mark.parametrize("text,n", [
    ("x*y - z*w", 2),
    ("1/2*x^4 - 3/5*y*z*w + 2/7*x*y - w^2", 2),
], ids=["binomial", "rational-quartic"])
def test_minors_match_dense_determinants_in_four_variables(text, n):
    # C(14, 5) = 2,002 minors, packed in five lex fields: one per variable and the degree
    F = P(text, ("x", "y", "z", "w"))
    jac = build(F, n)
    table = maximal_minors(F, n)
    assert [J for J, _ in table] == list(combinations(range(14), 5))
    sample = table[::47]
    assert sum(not d.is_zero() for _, d in sample) >= 10
    for J, d in sample:
        assert d == dense_minor(jac, J)


@pytest.mark.parametrize("text,ring,n", [
    (CUSP, RING2, 2),
    ("3/2*x^3 - 5/7*y^2", RING2, 2),
    ("1/3*x*y - 2/5*z^4 + 7/4*x^2*z", RING3, 2),
], ids=["cusp", "rational-curve", "rational-surface"])
def test_minors_are_well_formed_polynomials(text, ring, n):
    # the minors are built without validation; they must be what validation
    # would have built
    F = P(text, ring)
    for _, d in maximal_minors(F, n):
        assert d.ring == F.ring
        assert all(type(c) is Fraction and c != 0 for c in d.terms.values())
        assert all(type(m) is tuple and len(m) == len(ring) for m in d.terms)
        rebuilt = Polynomial(F.ring, d.terms)
        assert d == rebuilt and hash(d) == hash(rebuilt)


# -- nash ideal -----------------------------------------------------------------


def closed_form(p, q, ring):
    if p in (2, 3):
        gens = [f"x^{q-2}*y^{2*p-2}", f"y^{3*p-3}"]
    else:
        gens = [f"x^{q-3}*y^{2*p}", f"x^{q-2}*y^{2*p-2}", f"y^{3*p-3}"]
    return [P(g, ring) for g in gens]


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (4, 5)])
def test_nash_ideal_closed_form(p, q):
    F = P(f"y^{p} - x^{q}", RING2)
    computed = nash_ideal(F, 2)
    expected = Ideal(RING2, closed_form(p, q, RING2) + [F])
    assert ideal_equal(Ideal(RING2, list(computed.generators) + [F]), expected)


def test_nash_ideal_nonsingular_hyperplane():
    I = nash_ideal(P("x", RING2), 2)
    # some minor is a nonzero constant, so the ideal is the unit ideal
    assert any(g.is_constant() and not g.is_zero() for g in I.generators)


def test_nash_ideal_generators_are_reduced_mod_F():
    F = P(CUSP, RING2)
    I = nash_ideal(F, 2)
    order = grevlex()
    for g in I.generators:
        assert normal_form(g, [F], order) == g


@pytest.mark.parametrize("text,ring,n", [
    (CUSP, RING2, 2), (CUSP, RING2, 3), (NODE, RING2, 2), (NODE, RING2, 3),
    ("x*y - z^2", RING3, 2),
], ids=["cusp-2", "cusp-3", "node-2", "node-3", "A1-surface-2"])
def test_nash_ideal_is_the_reduced_basis_by_sympy(text, ring, n):
    # the generators and F are the monic normal forms modulo F of sympy's
    # reduced grevlex basis of <F> + (minors), F added
    F = P(text, ring)
    symbols = sympy.symbols(ring)
    f = as_sympy(F, symbols)
    minors = [as_sympy(d, symbols) for _, d in maximal_minors(F, n) if not d.is_zero()]
    basis = sympy.groebner([f] + minors, *symbols, order="grevlex", domain="QQ")

    def monic(e):
        return sympy.expand(e / sympy.Poly(e, *symbols).LC(order="grevlex"))

    expected = {monic(f)}
    for g in basis.exprs:
        _, r = sympy.reduced(g, [f], *symbols, order="grevlex")
        if r != 0:
            expected.add(monic(r))
    computed = {sympy.expand(as_sympy(g, symbols)) for g in nash_ideal(F, n).generators}
    assert computed | {monic(f)} == expected


@pytest.mark.parametrize("text,ring,n", [
    (CUSP, RING2, 3), (NODE, RING2, 2), ("x^2 + y^3 + z^5", RING3, 2),
    ("1/3*x*y - 2/5*z^4 + 7/4*x^2*z", RING3, 2),
], ids=["cusp-3", "node-2", "E8-2", "rational-surface-2"])
def test_nash_ideal_generators_are_monic_and_reduced(text, ring, n):
    F = P(text, ring)
    order = grevlex()
    gens = nash_ideal(F, n).generators
    assert gens and len(set(gens)) == len(gens)
    for g in gens:
        assert g.terms[g.leading_monomial(order)] == 1
        assert normal_form(g, [F], order) == g


def test_minor_table_over_the_cap_is_refused_before_it_is_built(monkeypatch):
    # x*y - z^4 at n=4 would have C(34, 20) minors; the count alone refuses it
    assert shape(3, 4) == (20, 34) and math.comb(34, 20) == 1_391_975_640 > hjac.MAX_MINORS
    assert math.comb(19, 10) == 92_378 <= hjac.MAX_MINORS  # x*y - z^4 at n=3
    monkeypatch.setattr(hjac, "build", lambda F, n: pytest.fail("the matrix was built"))
    F = Polynomial(("x", "y", "z"), {(1, 1, 0): 1, (0, 0, 4): -1})
    for call in (maximal_minors, nash_ideal, lambda F, n: limit_ideal(F, n, (0, 0, 0))):
        with pytest.raises(BudgetExceededError) as info:
            call(F, 4)
        assert str(info.value) == "minors: 1,391,975,640 maximal minors, over 1,000,000"
        assert not hasattr(info.value, "minors")


# -- the collector pause around the minor table ------------------------------


@pytest.fixture
def collector():
    """Give the collector back in the state the test found it in."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def set_collector(enabled):
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_minor_table_leaves_the_collector_as_it_found_it(collector, enabled):
    F = P(CUSP, RING2)
    set_collector(enabled)
    maximal_minors(F, 2)
    assert gc.isenabled() == enabled
    nash_ideal(F, 2)
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("call", [maximal_minors, nash_ideal], ids=["minors", "nash"])
def test_collector_is_restored_when_the_table_raises(collector, call, enabled):
    set_collector(enabled)
    with pytest.raises(ValueError, match="zero polynomial"):
        call(Polynomial.zero(RING2), 2)
    assert gc.isenabled() == enabled
    with pytest.raises(ValueError, match="order must be >= 1"):
        call(P(CUSP, RING2), 0)
    assert gc.isenabled() == enabled


def test_collector_is_paused_while_the_table_is_built(collector, monkeypatch):
    # build runs inside maximal_minors, buchberger inside nash_ideal
    seen = []
    for name in ("build", "buchberger"):
        def spy(*args, _name=name, _fn=getattr(hjac, name)):
            seen.append((_name, gc.isenabled()))
            return _fn(*args)
        monkeypatch.setattr(hjac, name, spy)
    gc.enable()
    nash_ideal(P(CUSP, RING2), 2)
    maximal_minors(P(CUSP, RING2), 2)
    assert seen == [("build", False), ("buchberger", False), ("build", False)]
    assert gc.isenabled()


def test_nash_ideal_is_the_same_with_the_collector_on_or_off(collector):
    F = P(CUSP, RING2)
    gc.enable()
    on = nash_ideal(F, 2).generators
    gc.disable()
    assert nash_ideal(F, 2).generators == on
    assert on
