"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line on the real stdout so the summary
survives pytest's capture.  Criteria 3-5 use frozen fixtures re-derived from
scratch with an independent oracle chain; the derivations and the points
where they correct the source tables are written up in the project notes.
Criteria 3 and 4 take the cusp and node limit ideals from the session
fixtures of conftest.py, so the times they print leave that computation out.
"""

import itertools
import json
import math
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import pytest

from nashblowup import hjac, limits, linalg
from nashblowup.groebner import (
    Ideal,
    buchberger,
    eliminate,
    ideal_equal,
    normal_form,
    radical_membership,
)
from nashblowup.hilbert import MonomialIdeal, graded_dim, local_hilbert
from nashblowup.parser import format_polynomial
from nashblowup.polynomial import Polynomial, grevlex, lex

from conftest import P, is_row_echelon, s_poly

RING2 = ("x", "y")
RING3 = ("x", "y", "z")

CUSP = "x^3 - y^2"
NODE = "x^3 + x^2 - y^2"
SURF = "x*y - z^4"


@contextmanager
def criterion(num, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {label}", file=sys.__stdout__, flush=True)
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {num:2d}: PASS  {label} ({elapsed:.1f}s)",
          file=sys.__stdout__, flush=True)


# -- 1: the three reference matrices -----------------------------------------


def canonical_rows(rows, ring):
    return [[format_polynomial(P(e, ring)) for e in row] for row in rows]


def jac_rows(poly, ring):
    jac = hjac.build(P(poly, ring), 2)
    return [[format_polynomial(e) for e in row] for row in jac.entries]


def test_criterion_1_matrix_fixtures(capsys):
    with criterion(1, "three reference order-2 matrices, exact canonical strings"):
        assert jac_rows(CUSP, RING2) == canonical_rows([
            ["3*x^2", "-2*y", "3*x", "0", "-1"],
            [CUSP, "0", "3*x^2", "-2*y", "0"],
            ["0", CUSP, "0", "3*x^2", "-2*y"]], RING2)
        assert jac_rows(NODE, RING2) == canonical_rows([
            ["3*x^2 + 2*x", "-2*y", "3*x + 1", "0", "-1"],
            [NODE, "0", "3*x^2 + 2*x", "-2*y", "0"],
            ["0", NODE, "0", "3*x^2 + 2*x", "-2*y"]], RING2)
        assert jac_rows(SURF, RING3) == canonical_rows([
            ["y", "x", "-4*z^3", "0", "1", "0", "0", "0", "-6*z^2"],
            [SURF, "0", "0", "y", "x", "0", "-4*z^3", "0", "0"],
            ["0", SURF, "0", "0", "y", "x", "0", "-4*z^3", "0"],
            ["0", "0", SURF, "0", "0", "0", "y", "x", "-4*z^3"]], RING3)
        # the CLI front door produces the same rows
        from nashblowup.cli import main
        assert main(["jac", "--poly", CUSP, "--vars", "x,y", "-n", "2",
                     "--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == jac_rows(CUSP, RING2)


# -- 2: cusp minor fixtures ----------------------------------------------------


def test_criterion_2_cusp_minors():
    with criterion(2, "cusp minors u_1 = 3xF^2-9x^4F and u_10 = 12xy^2-9x^4"):
        F = P(CUSP, RING2)
        table = hjac.maximal_minors(F, 2)
        assert len(table) == 10
        by_cols = {J: d for J, d in table}
        x = Polynomial.variable(RING2, "x")
        u1 = (x * F * F).scalar_mul(3) - (x ** 4 * F).scalar_mul(9)
        assert by_cols[(0, 1, 2)] == u1
        assert by_cols[(2, 3, 4)] == P("12*x*y^2 - 9*x^4", RING2)


# -- 3 and 4: limit ideals of the plane-curve fixtures -----------------------


def u_ideal(ring, texts):
    return Ideal(ring, [P(t, ring) for t in texts])


def test_criterion_3_cusp_limit_ideal(cusp_result):
    with criterion(3, "cusp limit ideal and its single limit line"):
        result = cusp_result
        assert (result.F, result.n, result.center) == (P(CUSP, RING2), 2, (0, 0))
        # frozen fixture; under the ascending-lex minor numbering pinned by
        # criterion 2 the free direction is e_10 (the u_10 minor has the
        # strictly smallest vanishing order, 8, along the branch (t^2, t^3))
        expected = u_ideal(result.u_ring, [
            "u_1", "u_2", "u_3", "u_4", "u_5", "u_6", "u_7", "u_8", "u_9^2"])
        assert ideal_equal(Ideal(result.u_ring, list(result.generators)), expected)
        assert limits.containment_oracle(result)
        assert result.planes is not None and len(result.planes) == 1
        (line,) = result.planes
        assert [list(v) for v in line] == [[0] * 9 + [1]]


def test_criterion_4_node_limit_ideal(node_result):
    with criterion(4, "node limit ideal and its two limit lines"):
        result = node_result
        assert (result.F, result.n, result.center) == (P(NODE, RING2), 2, (0, 0))
        expected = u_ideal(result.u_ring, [
            "u_1", "u_2", "u_3",
            "u_4 - 2*u_10", "u_5 - u_9", "u_6 - 2*u_10",
            "u_7 - u_9", "u_8 - 2*u_10", "u_9^2 - 4*u_10^2"])
        assert ideal_equal(Ideal(result.u_ring, list(result.generators)), expected)
        assert limits.containment_oracle(result)
        assert result.planes is not None and len(result.planes) == 2
        for line in result.planes:
            assert len(line) == 1
            for g in result.generators:
                assert g.evaluate(line[0]) == 0


# -- 5: the surface fixture --------------------------------------------------


SURFACE_LINEAR = (list(range(1, 38)) + list(range(39, 83)) + list(range(84, 112))
                  + list(range(117, 122)) + [123, 125, 126])


def surface_reference_basis(ring):
    """The reference 147-element basis for xy - z^4, order 2, at the origin.

    It once held u_122^2 too, which lies outside the limit ideal:
    `limit_ideal` gives this list and not that one (the last check of
    criterion 5).  u_122 still vanishes on the zero set, through u_124^2
    and 8*u_113*u_124 + 3*u_122^2."""
    texts = [f"u_{i}" for i in SURFACE_LINEAR]
    texts += ["u_114^2", "u_115^3", "u_116^2", "u_124^2"]
    texts += ["u_38*u_83", "u_38*u_113", "u_38*u_114", "u_38*u_122",
              "u_38*u_124", "u_83*u_112", "u_83*u_114", "u_83*u_115",
              "u_83*u_116", "u_112*u_124", "u_113*u_115^2", "u_113*u_116",
              "u_114*u_115", "u_114*u_116", "u_114*u_122", "u_114*u_124",
              "u_115*u_116", "u_115*u_122", "u_115*u_124", "u_116*u_122",
              "u_116*u_124", "u_122*u_124",
              "u_112*u_114 + u_113*u_115", "u_112*u_122 - u_113*u_114",
              "8*u_112*u_116 + 3*u_115^2", "8*u_113*u_124 + 3*u_122^2"]
    return [P(t, ring) for t in texts]


def restrict_to_plane(g, support):
    """g with every u outside `support` set to 0, as terms in the survivors."""
    out = {}
    for mono, coeff in g.terms.items():
        if all(e == 0 or i in support for i, e in enumerate(mono)):
            key = tuple(mono[i] for i in support)
            out[key] = out.get(key, Fraction(0)) + coeff
    return {k: c for k, c in out.items() if c}


def test_criterion_5_surface_oracle():
    with criterion(5, "xy-z^4 reference basis: containment oracle + 3 planes"):
        F = P(SURF, RING3)
        minors = tuple(hjac.maximal_minors(F, 2))
        assert len(minors) == 126
        u_ring = tuple(f"u_{k}" for k in range(1, 127))
        gens = surface_reference_basis(u_ring)
        result = limits.LimitIdealResult(
            F=F, n=2, center=(Fraction(0),) * 3,
            minors=minors, u_ring=u_ring, generators=tuple(gens), planes=None)
        # no reference generator has a constant term: at this singular
        # center that is all u_J -> t*Delta_J, reduction modulo <F> and
        # x = 0 can test
        assert limits.containment_oracle(result)
        # the reference zero set: three 2-planes, symbolically on each plane
        planes = [(111, 112), (37, 111), (82, 112)]  # 0-based e-indices
        for support in planes:
            for g in gens:
                assert restrict_to_plane(g, support) == {}
        # and nothing larger: products of the off-plane coordinates remain
        assert restrict_to_plane(P("u_38*u_83", u_ring), (37, 82))
        # the full limit ideal, with no budget
        full = limits.limit_ideal(F, 2, (0, 0, 0))
        computed = Ideal(full.u_ring, list(full.generators))
        assert ideal_equal(computed, Ideal(u_ring, gens))


def test_surface_degree_one_step():
    # mu = 9 free u's, and linear generators spanning the fixture's 117
    F = P(SURF, RING3)
    deltas = [delta for _, delta in hjac.maximal_minors(F, 2)]
    u_ring = tuple(f"u_{k}" for k in range(1, 127))
    free, linear = limits._degree_one(F, deltas, u_ring)
    assert [u_ring[k] for k in free] == [
        "u_38", "u_83", "u_112", "u_113", "u_114", "u_115", "u_116", "u_122", "u_124"]
    rows = [[g.terms.get(tuple(int(i == k) for i in range(126)), 0) for k in range(126)]
            for g in linear]
    fixture = [[Fraction(k + 1 == i) for k in range(126)] for i in SURFACE_LINEAR]
    assert len(linear) == len(fixture) == 117
    assert linalg.rank(rows) == linalg.rank(fixture) == linalg.rank(rows + fixture) == 117


def test_surface_reference_planes():
    # describe_planes in all 126 u's: the three coordinate 2-planes of
    # criterion 5, in branching order
    u_ring = tuple(f"u_{k}" for k in range(1, 127))
    planes = limits.describe_planes(surface_reference_basis(u_ring))
    assert planes == tuple(
        tuple(tuple(Fraction(k == i) for k in range(126)) for i in support)
        for support in ((111, 112), (82, 112), (37, 111)))


# -- 6: the nash-ideal family ----------------------------------------------


def test_criterion_6_nash_ideal_family():
    with criterion(6, "nash ideal closed form for (p,q) in {(2,3),(2,5),(3,4),(4,5)}"):
        for p, q in ((2, 3), (2, 5), (3, 4), (4, 5)):
            F = P(f"y^{p} - x^{q}", RING2)
            computed = hjac.nash_ideal(F, 2)
            if p in (2, 3):
                closed = [f"x^{q-2}*y^{2*p-2}", f"y^{3*p-3}"]
            else:
                closed = [f"x^{q-3}*y^{2*p}", f"x^{q-2}*y^{2*p-2}", f"y^{3*p-3}"]
            lhs = Ideal(RING2, list(computed.generators) + [F])
            rhs = Ideal(RING2, [P(t, RING2) for t in closed] + [F])
            assert ideal_equal(lhs, rhs), (p, q)


# -- 7: singular locus equality -----------------------------------------------


def first_partials(F):
    s = F.num_vars
    return [F.derivative(tuple(1 if i == j else 0 for i in range(s)))
            for j in range(s)]


def test_criterion_7_singular_locus():
    with criterion(7, "radical equality of <F> + J_n and <F, dF> for n in {2,3}"):
        for text, ring in ((CUSP, RING2), (NODE, RING2), (SURF, RING3)):
            F = P(text, ring)
            partials = first_partials(F)
            classical = Ideal(ring, [F] + partials)
            for n in (2, 3):
                J = hjac.nash_ideal(F, n)
                higher = Ideal(ring, [F] + list(J.generators))
                for d in partials:
                    assert radical_membership(d, higher), (text, n)
                for g in J.generators:
                    assert radical_membership(g, classical), (text, n)


# -- 8: pointwise criterion equivalence --------------------------------------


def cusp_points():
    ts = [Fraction(k) for k in range(-10, 0)] + [Fraction(k) for k in range(1, 11)]
    ts += [Fraction(1, 2), Fraction(-3, 2)]
    return [(t ** 2, t ** 3) for t in ts]


def node_points():
    pts = []
    for k in range(1, 23):
        w = Fraction(k, k + 1)
        x = w ** 2 - 1
        pts.append((x, w * x))
    return pts


def test_criterion_8_criterion_equivalence():
    with criterion(8, "rank test == vanishing partials on 20+ points per curve"):
        for text, pts in ((CUSP, cusp_points()), (NODE, node_points())):
            assert len(pts) >= 20
            F = P(text, RING2)
            partials = first_partials(F)
            for p in pts + [(Fraction(0), Fraction(0))]:
                assert F.evaluate(p) == 0
                classical = all(d.evaluate(p) == 0 for d in partials)
                for n in (1, 2, 3):
                    assert hjac.is_singular(F, n, p) == classical
                    if classical:
                        continue
                    M, C = hjac.shape(2, n)
                    basis = hjac.tangent_space(F, n, p)
                    assert len(basis) == C - M  # = N - M - 1
            # echelon property after moving a non-vanishing partial first:
            # re-read the curve with the ring order (y, x)
            swapped = P(text, ("y", "x"))
            for p in pts[:8]:
                q = (p[1], p[0])
                dy = swapped.derivative((1, 0))
                if dy.evaluate(q) == 0:
                    continue
                for n in (1, 2, 3):
                    m = hjac.evaluate_at(hjac.build(swapped, n), q)
                    assert is_row_echelon(m)


# -- 9: dimension cross-checks -------------------------------------------------


def test_criterion_9_dimension_cross_check():
    with criterion(9, "local hilbert sums, graded dims, shared-variable bound"):
        for text, ring in ((CUSP, RING2), (NODE, RING2), (SURF, RING3)):
            F = P(text, ring)
            s = len(ring)
            origin = (Fraction(0),) * s
            for n in (1, 2, 3):
                total = sum(local_hilbert(F, k) for k in range(1, n + 1))
                _, C = hjac.shape(s, n)
                assert total == C - hjac.rank_at(F, n, origin)
        m2 = MonomialIdeal(2, [(2, 0), (0, 2)])
        for n in (3, 4, 5, 6):
            assert graded_dim(m2, n) == 0
        rng = random.Random(2026)
        for _ in range(30):
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


# -- 10: engine self-checks -----------------------------------------------------


def test_criterion_10_engine_self_checks():
    with criterion(10, "S-polynomial reduction, permutation invariance, elimination"):
        cases = [
            ([P("x^2 - y", RING3), P("x^3 - z", RING3)], lex()),
            ([P(CUSP, RING2), P("3*x^2", RING2), P("-2*y", RING2)], grevlex()),
            ([P(SURF, RING3), P("x + y + z", RING3)], grevlex()),
            ([P("x*y - 1", RING2), P("x^2 + y^2 - 4", RING2)], lex()),
        ]
        rng = random.Random(5)
        for gens, order in cases:
            ring = gens[0].ring
            basis = buchberger(gens, order, ring)
            for f, g in itertools.combinations(basis, 2):
                assert normal_form(s_poly(f, g, order), basis, order).is_zero()
            for _ in range(3):
                shuffled = gens[:]
                rng.shuffle(shuffled)
                assert buchberger(shuffled, order, ring) == basis
        I = Ideal(RING3, [P("x^2 - y", RING3), P("x^3 - z", RING3)])
        J = eliminate(I, ("x",))
        assert ideal_equal(J, Ideal(("y", "z"), [P("y^3 - z^2", ("y", "z"))]))
