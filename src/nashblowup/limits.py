"""Limits of higher tangent spaces at a singular point of a hypersurface.

The pipeline: build the ideal A = <F, u_J - t*Delta_J> in the ring
(t, x, u), eliminate t, intersect with Q[x, u], set x = 0, and read the
resulting ideal in the u variables.  Its zero set consists of the limits of
the row spaces of the order-n Jacobian along non-singular points approaching
the center, in their Plucker coordinates u_J.

`describe_planes` reports that zero set as a union of linear subspaces of
u-space when it can.  It runs a depth-first worklist over branches, each a
list of generators and the linear rows chosen so far: linear generators and
pure powers become rows, and one rule, `_factors`, splits the first
remaining generator into polynomials whose zero sets cover its own.
`containment_oracle` is a one-sided sanity check on the result: no
generator may have a constant term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .groebner import BudgetExceededError, Ideal, buchberger, eliminate
from .hjac import PointNotOnHypersurfaceError, SingularPointError, _check_input, maximal_minors
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
    center = make_point(center)
    if len(center) != F.num_vars:
        raise ValueError(f"center has {len(center)} coordinates, expected {F.num_vars}")
    return F.substitute({
        name: Polynomial.variable(F.ring, name) + Polynomial.constant(F.ring, c)
        for name, c in zip(F.ring, center)
    })


def limit_ideal(
    F: Polynomial,
    n: int,
    center,
    max_pairs: int | None = None,
    max_reductions: int | None = None,
) -> LimitIdealResult:
    """The limit-space ideal in the u variables, as a reduced basis.

    With F and the maximal minors Delta_J translated to the center, this
    builds A = <F, u_J - t*Delta_J> in the ring (t, x, u), eliminates t
    under (t) >> grevlex(x, u) by `groebner.eliminate`, sets x = 0 and
    reduces what is left."""
    _check_input(F, n)  # input errors before the center's precondition
    center = make_point(center)
    if F.evaluate(center) != 0:
        raise PointNotOnHypersurfaceError("center is not on the hypersurface")
    shifted = translate_to_origin(F, center)
    minors = tuple(maximal_minors(shifted, n))
    # the center is singular iff every maximal minor vanishes there
    if any(delta.constant_term() for _, delta in minors):
        raise SingularPointError("limits of higher tangent spaces are computed at singular centers")
    tname = _fresh("t", F.ring)
    unames = tuple(_fresh(f"u_{k}", F.ring) for k in range(1, len(minors) + 1))
    ring_a = (tname,) + F.ring + unames
    t = Polynomial.variable(ring_a, tname)
    gens = [shifted.to_ring(ring_a)]
    for (_, delta), uname in zip(minors, unames):
        gens.append(Polynomial.variable(ring_a, uname) - t * delta.to_ring(ring_a))
    try:
        xu = eliminate(Ideal(ring_a, gens), (tname,),
                       max_pairs=max_pairs, max_reductions=max_reductions)
    except BudgetExceededError as exc:
        exc.minors = minors
        exc.u_ring = unames
        raise
    zero_x = {v: 0 for v in F.ring}
    projected: list[Polynomial] = []
    for g in xu.generators:
        h = g.substitute(zero_x)
        if not h.is_zero():
            projected.append(h.to_ring(unames))
    reduced = buchberger(projected, grevlex(), unames) if projected else []
    planes = describe_planes(reduced)
    return LimitIdealResult(
        F=F,
        n=n,
        center=center,
        minors=minors,
        u_ring=unames,
        generators=tuple(reduced),
        planes=planes,
    )


def containment_oracle(result: LimitIdealResult) -> bool:
    """One-sided check: no generator has a nonzero constant term.

    For a `limit_ideal` result F(center) = 0 and every Delta_J vanishes at
    the (translated) center, so substituting u_J -> t*Delta_J, reducing
    modulo F and setting x = 0 turns each generator g into g(0); this test is
    that computation.  It does not show that a generator lies in the limit
    ideal."""
    return not any(g.constant_term() for g in result.generators)


# -- zero-set reporting --------------------------------------------------------

MAX_DEPTH = 64  # branchings along one path before `describe_planes` gives up


def _factors(g: Polynomial) -> list[Polynomial] | None:
    """Polynomials whose zero sets cover V(g), in branching order, or None
    when g fits none of the patterns: g itself if linear, the variables of a
    monomial, the shared variables and then the quotient of a binomial with a
    common monomial factor, and the lines u_i +- r*u_j of c1*u_i^2 + c2*u_j^2
    with r^2 = -c2/c1 rational."""
    def var(i):
        return Polynomial.variable(g.ring, g.ring[i])

    if g.total_degree() == 1:
        return [g]
    if len(g.terms) == 1:
        (mono,) = g.terms
        return [var(i) for i, e in enumerate(mono) if e]
    if len(g.terms) != 2:
        return None
    (m1, c1), (m2, c2) = g.terms.items()
    common = tuple(map(min, m1, m2))
    if any(common):
        quotient = Polynomial(g.ring, {
            tuple(a - c for a, c in zip(m1, common)): c1,
            tuple(a - c for a, c in zip(m2, common)): c2,
        })
        return [var(i) for i, e in enumerate(common) if e] + [quotient]
    square = -c2 / c1
    if sum(m1) == sum(m2) == 2 and 2 in m1 and 2 in m2 and square > 0:
        root = Fraction(math.isqrt(square.numerator), math.isqrt(square.denominator))
        if root * root == square:
            i, j = m1.index(2), m2.index(2)
            return [var(i) + var(j).scalar_mul(sgn * root) for sgn in (1, -1)]
    return None


def _linear_row(g: Polynomial) -> list[Fraction] | None:
    """The coefficients of a linear form, or None when g has a constant term
    (its zero set is affine, not a linear subspace)."""
    if g.constant_term():
        return None
    row = [Fraction(0)] * g.num_vars
    for mono, c in g.terms.items():
        row[mono.index(1)] = c
    return row


def _substitution_from_rows(ring, rows):
    """Solved linear system as {pivot variable -> polynomial in free vars}."""
    R, pivots = linalg.rref(rows)
    subs = {}
    for r, p in enumerate(pivots):
        expr = Polynomial.zero(ring)
        for j in range(p + 1, len(ring)):
            if R[r][j]:
                expr = expr - Polynomial.variable(ring, ring[j]).scalar_mul(R[r][j])
        subs[ring[p]] = expr
    return subs


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
    found: dict = {}  # canonical basis -> None, in discovery order
    work = [(list(generators), [], 0)]
    while work:
        gens, rows, depth = work.pop()
        if depth > MAX_DEPTH:
            return None
        subs = _substitution_from_rows(ring, rows)
        gens = [h for h in (g.substitute(subs) if subs else g for g in gens) if not h.is_zero()]
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
            basis = linalg.kernel_basis(rows, width=len(ring))
            found[tuple(tuple(v) for v in linalg.rref(basis)[0])] = None
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
    # basis, so two different keys span different subspaces
    return tuple(p for p in found if not any(
        q != p and linalg.rank(q) == linalg.rank(q + p) for q in found))
