"""Limits of higher tangent spaces at a singular point of a hypersurface.

The paper's pipeline: build the ideal A = <F, u_J - t*Delta_J> in the ring
(t, x, u), eliminate t, intersect with Q[x, u], set x = 0, and read the
resulting ideal in the u variables.  Its zero set consists of the limits of
the row spaces of the order-n Jacobian along non-singular points approaching
the center, in their Plucker coordinates u_J.

That ideal is the kernel of Q[u] -> (direct sum over d of I^d/m*I^d), I the
ideal of the minors modulo F and m the maximal ideal of the center.  m
annihilates each I^d/m*I^d, so by Nakayama the mu minors whose classes are a
basis of I/(m*I + (F)) give the same fiber ring, and every other u_J maps
into it as a linear form in theirs.  `limit_ideal` therefore reads those
linear forms off one integer rref of the minors' remainders modulo the
grevlex basis of m*I + (F), all from one division pass (`_degree_one`), and
eliminates t over the mu free u's only: at n=2, 9 of the 126 for xy - z^4
and 2 of the 10 for the cusp and the node.  Setting x = 0 keeps the terms
of the eliminated basis that hold no x.

`describe_planes` reports that zero set as a union of linear subspaces of
u-space when it can, by a depth-first worklist over branches of generators
and linear rows: the division pass restricts the generators modulo the
rows' rref, linear generators and pure powers become rows, and one rule,
`_factors`, splits the first remaining generator into polynomials whose
zero sets cover its own.  `containment_oracle` is a one-sided sanity check
on the result: no generator may have a constant term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .groebner import BudgetExceededError, Ideal, _remainders, buchberger, eliminate
from .hjac import (PointNotOnHypersurfaceError, SingularPointError, _check_input, _taylor_at,
                   maximal_minors)
from .polynomial import Polynomial, _fresh, grevlex, make_point


@dataclass(frozen=True)
class LimitIdealResult:
    F: Polynomial
    n: int
    center: tuple[Fraction, ...]
    minors: tuple[tuple[tuple[int, ...], Polynomial], ...]
    u_ring: tuple[str, ...]  # one name per minor, none of them in F.ring
    generators: tuple[Polynomial, ...]  # in the u-ring
    planes: tuple[tuple[tuple[Fraction, ...], ...], ...] | None

    @property
    def lambda_size(self) -> int:
        return len(self.minors)


def translate_to_origin(F: Polynomial, center) -> Polynomial:
    """F(x + center): moves the given point of interest to the origin."""
    return Polynomial._over(F.ring, *_taylor_at(F, center))


def limit_ideal(
    F: Polynomial,
    n: int,
    center,
    max_pairs: int | None = None,
    max_reductions: int | None = None,
) -> LimitIdealResult:
    """The limit-space ideal in the u variables, as a reduced basis.

    With F and the maximal minors Delta_J translated to the center, the
    paper's route eliminates t from A = <F, u_J - t*Delta_J> in (t, x, u)
    and sets x = 0.  The center is checked first, on the translate F(x + c)
    before any minor is built: no term of degree 0 (it lies on V(F)) and none
    of degree 1 (it is singular: the matrix drops rank exactly where F has
    order 2 or more).  The route then runs over the mu free u's only:

    1. `_degree_one` splits the u's into the free ones, whose minors are a
       basis of I/(m*I + (F)), and linear generators u_J - sum c_Jf*u_f
       for the others, with every u_f free and after u_J.
    2. t is eliminated from <F, u_f - t*Delta_f> over the free u's by
       `groebner.eliminate` under (t) >> grevlex(x, u), the one step the
       budgets cap; x is set to 0, keeping the terms that hold no x, and
       the result is reduced in the free u's.
    3. The linear generators, ascending in their leading terms u_J (no
       free u's; tails of free u's only), then that basis, ascending too
       and with no element of degree 1 (the free minors are a basis of
       I/(m*I + (F))), are the reduced grevlex basis in all u's in order.

    Steps 1 and 2 give the whole limit ideal by Nakayama: m annihilates
    I^d/m*I^d, so the fiber ring (the direct sum over d of I^d/m*I^d) is
    the same for I and for the ideal of the free minors, which agrees with
    I near the center; and each u_J maps into it as sum c_Jf*u_f."""
    _check_input(F, n)  # input errors before the center's precondition
    center = make_point(center)
    shifted = translate_to_origin(F, center)
    if (0,) * F.num_vars in shifted.numerators:  # F(center) != 0
        raise PointNotOnHypersurfaceError("center is not on the hypersurface")
    # the center is singular iff F has order at least 2 there
    if any(sum(m) == 1 for m in shifted.numerators):
        raise SingularPointError("limits of higher tangent spaces are computed at singular centers")
    minors = tuple(maximal_minors(shifted, n))
    unames = u_names(F.ring, len(minors))
    free, linear = _degree_one(shifted, [delta for _, delta in minors], unames)
    free_names = tuple(unames[k] for k in free)
    tname = _fresh("t", F.ring)
    ring_a = (tname,) + F.ring + free_names
    t = Polynomial.variable(ring_a, tname)
    gens = [shifted.to_ring(ring_a)]
    for k in free:
        gens.append(Polynomial.variable(ring_a, unames[k]) - t * minors[k][1].to_ring(ring_a))
    try:
        xu = eliminate(Ideal(ring_a, gens), (tname,),
                       max_pairs=max_pairs, max_reductions=max_reductions)
    except BudgetExceededError as exc:
        exc.minors = minors
        exc.u_ring = unames
        raise
    # x = 0: keep the terms free of x, without their x exponents
    s = F.num_vars
    projected: list[Polynomial] = []
    for g in xu.generators:
        numerators = {m[s:]: c for m, c in g.numerators.items() if not any(m[:s])}
        if numerators:
            projected.append(Polynomial._over(free_names, numerators, g.den))
    generators = linear + [g.to_ring(unames) for g in buchberger(projected, grevlex(), free_names)]
    return LimitIdealResult(
        F=F,
        n=n,
        center=center,
        minors=minors,
        u_ring=unames,
        generators=tuple(generators),
        planes=describe_planes(generators),
    )


def u_names(ring, count: int) -> tuple[str, ...]:
    """u_1, ..., u_count, the names of the minors' Plucker coordinates in
    the order of the minor table, each made fresh (`u_1_0`, ...) where the
    ring of F already holds it."""
    return tuple(_fresh(f"u_{k}", ring) for k in range(1, count + 1))


def _degree_one(shifted: Polynomial, deltas: list[Polynomial], unames):
    """(free, linear): the positions of the free minors, ascending, and the
    monic linear generators of the limit ideal, one per other position.

    The remainders of the Delta_J modulo G, the grevlex basis of F and
    every x_i*g for g in the grevlex basis of (F) + I, are their classes in
    I/(m*I + (F)), since (F) + m*((F) + I) = m*I + (F).  One division pass gives each
    as integer terms r over a denominator d, and `linalg._reduced` gives the
    rref of the int columns r*(D/d), D the lcm of the d, as ints over one d.
    In reverse u order, its pivots are the free minors latest in that order,
    so each other column J is a combination of free columns after it:
    u_J - sum c_Jf*u_f, leading term u_J in grevlex.  Of about mu*lambda
    entries, the rref never forms the lambda x lambda relation kernel."""
    order = grevlex()
    ring = shifted.ring
    G = buchberger([shifted] + [x * g for g in buchberger([shifted] + deltas, order, ring)
                                for x in Polynomial.variables(ring)], order, ring)
    remainders = _remainders(reversed(deltas), G, order, ring)
    scale = math.lcm(*(d for _, d in remainders))
    columns = [(r, scale // d) for r, d in remainders]
    monomials = sorted({m for r, _ in columns for m in r})
    R, d, pivots = linalg._reduced([[r.get(m, 0) * k for r, k in columns] for m in monomials])
    width = len(deltas)
    last = width - 1  # column c holds u_(last - c)
    linear = []
    for c in sorted(set(range(width)) - set(pivots)):
        tail = {_unit(last - p, width): -R[r][c] for r, p in enumerate(pivots) if R[r][c]}
        linear.append(Polynomial._over(unames, {_unit(last - c, width): d} | tail, d))
    return sorted(last - p for p in pivots), linear


def _unit(k: int, width: int) -> tuple[int, ...]:
    return (0,) * k + (1,) + (0,) * (width - k - 1)


def containment_oracle(result: LimitIdealResult) -> bool:
    """One-sided check: no generator has a nonzero constant term.

    For a `limit_ideal` result F(center) = 0 and every Delta_J vanishes at
    the (translated) center, so substituting u_J -> t*Delta_J, reducing
    modulo F and setting x = 0 turns each generator g into g(0); this test is
    that computation.  It does not show that a generator lies in the limit
    ideal."""
    return not any((0,) * g.num_vars in g.numerators for g in result.generators)


# -- zero-set reporting --------------------------------------------------------

MAX_DEPTH = 64  # branchings along one path before `describe_planes` gives up


def _factors(g: Polynomial) -> list[Polynomial] | None:
    """Polynomials whose zero sets cover V(g), in branching order, or None
    when g fits none of the patterns: g itself if linear, the variables of a
    monomial, the shared variables and then the quotient of a binomial with a
    common monomial factor, and the lines u_i +- r*u_j of c1*u_i^2 + c2*u_j^2
    with r^2 = -c2/c1 rational, each times |c1|."""
    def var(i):
        return Polynomial.variable(g.ring, g.ring[i])

    if g.total_degree() == 1:
        return [g]
    if len(g.numerators) == 1:
        (mono,) = g.numerators
        return [var(i) for i, e in enumerate(mono) if e]
    if len(g.numerators) != 2:
        return None
    (m1, c1), (m2, c2) = g.numerators.items()
    common = tuple(map(min, m1, m2))
    if any(common):
        quotient = Polynomial._over(g.ring, {
            tuple(a - c for a, c in zip(m1, common)): c1,
            tuple(a - c for a, c in zip(m2, common)): c2,
        }, g.den)
        return [var(i) for i, e in enumerate(common) if e] + [quotient]
    # r = sqrt(-c2/c1) = sqrt(-c1*c2)/|c1|, rational iff -c1*c2 is a square
    square = -c1 * c2
    if sum(m1) == sum(m2) == 2 and 2 in m1 and 2 in m2 and square > 0:
        root = math.isqrt(square)
        if root * root == square:
            i, j = m1.index(2), m2.index(2)
            return [var(i).scalar_mul(abs(c1)) + var(j).scalar_mul(sgn * root) for sgn in (1, -1)]
    return None


def _linear_row(g: Polynomial) -> list[int] | None:
    """The numerators of a linear form, ints spanning the same line, or None
    when g has a constant term (its zero set is affine, not a linear subspace)."""
    if (0,) * g.num_vars in g.numerators:
        return None
    row = [0] * g.num_vars
    for mono, c in g.numerators.items():
        row[mono.index(1)] = c
    return row


def _restricted(gens: list[Polynomial], rows, ring) -> list[Polynomial]:
    """`gens` modulo the linear forms of the rref of `rows`, which are their
    reduced grevlex basis, as each row's pivot is its leading term."""
    R, den, _ = linalg._reduced(rows)
    forms = [Polynomial._over(ring, {_unit(j, len(ring)): c for j, c in enumerate(row) if c}, den)
             for row in R]
    return [Polynomial._over(ring, r, d) for r, d in _remainders(gens, forms, grevlex(), ring)]


def describe_planes(generators):
    """Describe the zero set of an ideal in the u variables as a union of
    linear subspaces, when the generators fit the patterns of `_factors`.
    Returns a tuple of subspace bases (maximal under inclusion), or None
    when the patterns do not apply or a path branches more than MAX_DEPTH
    times.

    A depth-first worklist of (generators, rows, depth): each step restricts
    the generators to the subspace cut out by the rows and drops the branch
    if one becomes a nonzero constant.  The linear generators and the pure
    powers become rows in one batch.  When no generator is
    left the subspace is recorded; otherwise the branch splits over the
    factors of the first generator, a linear factor going onto the rows."""
    if not generators:
        return None
    ring = generators[0].ring
    found: dict = {}  # a plane's RREF basis as int rows -> their denominator, in discovery order
    work = [(list(generators), [], 0)]
    while work:
        gens, rows, depth = work.pop()
        if depth > MAX_DEPTH:
            return None
        gens = [h for h in (_restricted(gens, rows, ring) if rows else gens) if not h.is_zero()]
        if any(h.is_constant() for h in gens):
            continue  # empty on this branch
        factors = [_factors(g) for g in gens]
        single = [f[0] for f in factors if f is not None and len(f) == 1]
        if single:
            new = [_linear_row(f) for f in single]
            if None in new:
                return None
            work.append((gens, rows + new, depth))  # the batch then restricts to 0
        elif not gens:
            R, d, _ = linalg._reduced(linalg.kernel_basis(rows, width=len(ring)))
            found[tuple(map(tuple, R))] = d
        elif factors[0] is None:
            return None
        else:
            for f in reversed(factors[0]):
                if f.total_degree() > 1:
                    work.append(([f] + gens[1:], rows, depth + 1))
                elif (row := _linear_row(f)) is None:
                    return None
                else:
                    work.append((gens[1:], rows + [row], depth + 1))

    # keep the subspaces maximal under inclusion; a key is a canonical
    # basis, so two different keys span different subspaces, and it has no
    # zero row, so its rank is its length; the rows go out over their d
    return tuple(tuple(tuple(Fraction(x, d) for x in row) for row in p) for p, d in found.items()
                 if not any(q != p and len(q) == linalg.rank(q + p) for q in found))
