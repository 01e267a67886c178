import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nashblowup import linalg
from nashblowup import multiindex as mi
from nashblowup.groebner import Ideal, ideal_equal, normal_form
from nashblowup.hjac import (
    PointNotOnHypersurfaceError,
    SingularPointError,
    build,
    det,
    divexact,
    evaluate_at,
    is_singular,
    maximal_minors,
    nash_ideal,
    rank_at,
    shape,
    tangent_space,
)
from nashblowup.parser import format_polynomial
from nashblowup.polynomial import Polynomial, grevlex

from conftest import P, as_sympy

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
    # every entry recomputed independently from taylor_coeff
    for text, ring in ((CUSP, RING2), (NODE, RING2), (SURF, RING3)):
        F = P(text, ring)
        for n in (1, 2, 3):
            jac = build(F, n)
            for beta in jac.row_labels:
                for alpha in jac.col_labels:
                    if mi.leq(beta, alpha):
                        expected = F.taylor_coeff(mi.sub(alpha, beta))
                    else:
                        expected = Polynomial.zero(ring)
                    assert jac.entry(beta, alpha) == expected


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


def is_row_echelon(matrix):
    last = -1
    for row in matrix:
        pivot = next((j for j, v in enumerate(row) if v != 0), None)
        if pivot is None:
            last = len(row)  # all later rows must be zero too
            continue
        if pivot <= last:
            return False
        last = pivot
    return True


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


def test_divexact():
    f = P("x^2 - y^2", RING2)
    g = P("x + y", RING2)
    assert divexact(f, g) == P("x - y", RING2)
    with pytest.raises(ValueError):
        divexact(P("x^2 + 1", RING2), g)


def test_det_fixtures():
    x, y = Polynomial.variables(RING2)
    one = Polynomial.constant(RING2, 1)
    zero = Polynomial.zero(RING2)
    assert det([[x]]) == x
    assert det([[x, y], [y, x]]) == x * x - y * y
    # singular matrix
    assert det([[x, y], [x, y]]) == zero
    # needs a row swap
    assert det([[zero, one], [one, zero]]) == -one


def test_det_row_swaps_and_singular_3x3():
    x, y = Polynomial.variables(RING2)
    one = Polynomial.constant(RING2, 1)
    zero = Polynomial.zero(RING2)
    # a zero first pivot: one swap, so the sign flips
    assert det([[zero, x, y], [x, zero, one], [y, one, zero]]) == (x * y).scalar_mul(2)
    # the second pivot vanishes only after the first step: a swap mid-way
    assert det([[x, y, one], [x, y, x], [one, one, one]]) == x * y - x * x + x - y
    # the second row is x times the first
    assert det([[x, y, one], [x * x, x * y, x], [one, x, y]]) == zero
    # rank 1: every row a multiple of the first
    assert det([[x, y, one], [y * x, y * y, y], [-x, -y, -one]]) == zero


def test_det_against_cofactor_expansion():
    rng = random.Random(7)

    def cofactor(m):
        if len(m) == 1:
            return m[0][0]
        total = Polynomial.zero(RING2)
        for j in range(len(m)):
            sub = [row[:j] + row[j + 1:] for row in m[1:]]
            term = m[0][j] * cofactor(sub)
            total = total + (term if j % 2 == 0 else -term)
        return total

    for _ in range(5):
        size = rng.randint(2, 3)
        m = [[Polynomial(RING2, {(rng.randint(0, 1), rng.randint(0, 1)):
                                 Fraction(rng.randint(-3, 3))})
              for _ in range(size)] for _ in range(size)]
        assert det(m) == cofactor(m)


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


def test_minors_match_dense_determinants():
    # the sparse wedge expansion against the fraction-free elimination route
    for text, ring, n in ((CUSP, RING2, 2), (NODE, RING2, 2), (SURF, RING3, 2)):
        F = P(text, ring)
        jac = build(F, n)
        table = maximal_minors(F, n)
        sample = table if len(table) <= 12 else table[::11]
        for J, d in sample:
            dense = det([[jac.entries[i][j] for j in J]
                         for i in range(jac.num_rows)])
            assert d == dense


def test_minors_one_by_one():
    F = P("x^3 - x", ("x",))
    table = maximal_minors(F, 1)
    assert table == [((0,), F.derivative((1,)))]


def test_minor_count_for_surface():
    assert len(maximal_minors(P(SURF, RING3), 2)) == math.comb(9, 4)


def dense_minor(jac, J):
    return det([[jac.entries[i][j] for j in J] for i in range(jac.num_rows)])


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
