"""Limits of higher tangent spaces at a singular point of a hypersurface.

The pipeline: build the ideal A = <F, u_J - t*Delta_J> in the ring
(t, x, u), eliminate t, intersect with Q[x, u], set x = 0, and read the
resulting ideal in the u variables.  Its zero set consists of the limits of
the row spaces of the order-n Jacobian along non-singular points approaching
the center, in their Plucker coordinates u_J; `describe_planes` reports that
zero set as a union of linear subspaces of u-space when it can.
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
    generators: tuple[Polynomial, ...]  # in the u-ring
    planes: tuple[tuple[tuple[Fraction, ...], ...], ...] | None

    @property
    def lambda_size(self) -> int:
        return len(self.minors)

    @property
    def u_ring(self) -> tuple[str, ...]:
        if self.generators:
            return self.generators[0].ring
        return tuple(f"u_{k}" for k in range(1, self.lambda_size + 1))


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


def _rational_sqrt(c: Fraction) -> Fraction | None:
    if c < 0:
        return None
    num = math.isqrt(c.numerator)
    den = math.isqrt(c.denominator)
    if num * num == c.numerator and den * den == c.denominator:
        return Fraction(num, den)
    return None


def _linear_row(g: Polynomial) -> list[Fraction]:
    row = [Fraction(0)] * g.num_vars
    for mono, coeff in g.terms.items():
        i = next(k for k, e in enumerate(mono) if e)
        row[i] = coeff
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


def _solve_branches(ring, gens, rows, out, seen, depth=0):
    if depth > 64:
        raise RecursionError("plane description branched too deeply")
    while True:
        subs = _substitution_from_rows(ring, rows)
        current = []
        for g in gens:
            h = g.substitute(subs) if subs else g
            if h.is_zero():
                continue
            if h.is_constant():
                return  # inconsistent branch
            current.append(h)
        # linear generators become rows immediately
        linear = [g for g in current if g.total_degree() == 1]
        if linear:
            rows = rows + [_linear_row(g) for g in linear]
            gens = [g for g in current if g.total_degree() != 1]
            continue
        gens = current
        # pure powers of a single variable force that variable to zero
        forced = None
        for g in gens:
            if len(g.terms) == 1:
                mono = next(iter(g.terms))
                support = [i for i, e in enumerate(mono) if e]
                if len(support) == 1:
                    forced = support[0]
                    break
        if forced is not None:
            row = [Fraction(0)] * len(ring)
            row[forced] = Fraction(1)
            rows = rows + [row]
            continue
        break

    if not gens:
        basis = linalg.kernel_basis(rows, width=len(ring))
        canonical = tuple(tuple(v) for v in linalg.rref(basis)[0])
        if canonical not in seen:
            seen.add(canonical)
            out.append([list(v) for v in canonical])
        return

    g = gens[0]
    rest = gens[1:]
    if len(g.terms) == 1:
        # a product of variables vanishes: branch on each factor
        mono = next(iter(g.terms))
        for i, e in enumerate(mono):
            if e:
                row = [Fraction(0)] * len(ring)
                row[i] = Fraction(1)
                _solve_branches(ring, rest, rows + [row], out, seen, depth + 1)
        return
    if len(g.terms) == 2:
        (m1, c1), (m2, c2) = g.terms.items()
        common = tuple(min(a, b) for a, b in zip(m1, m2))
        if any(common):
            # pull out the shared monomial factor and branch
            for i, e in enumerate(common):
                if e:
                    row = [Fraction(0)] * len(ring)
                    row[i] = Fraction(1)
                    _solve_branches(ring, rest, rows + [row], out, seen, depth + 1)
            quotient = Polynomial(g.ring, {
                tuple(a - c for a, c in zip(m1, common)): c1,
                tuple(a - c for a, c in zip(m2, common)): c2,
            })
            _solve_branches(ring, [quotient] + rest, rows, out, seen, depth + 1)
            return
        s1 = [i for i, e in enumerate(m1) if e]
        s2 = [i for i, e in enumerate(m2) if e]
        if len(s1) == 1 and len(s2) == 1 and m1[s1[0]] == 2 and m2[s2[0]] == 2:
            # c1*u_i^2 + c2*u_j^2: split when -c2/c1 is a rational square
            root = _rational_sqrt(-c2 / c1)
            if root is not None:
                for sgn in (1, -1):
                    row = [Fraction(0)] * len(ring)
                    row[s1[0]] = Fraction(1)
                    row[s2[0]] = sgn * root
                    _solve_branches(ring, rest, rows + [row], out, seen, depth + 1)
                return
    raise _Unsupported


class _Unsupported(Exception):
    pass


def describe_planes(generators):
    """Describe the zero set of an ideal in the u variables as a union of
    linear subspaces, when the generators fit the monomial / binomial /
    binomial-quadric patterns.  Returns a tuple of subspace bases (maximal
    under inclusion), or None when the patterns do not apply."""
    if not generators:
        return None
    ring = generators[0].ring
    out: list = []
    seen: set = set()
    try:
        _solve_branches(ring, list(generators), [], out, seen)
    except (_Unsupported, RecursionError):
        return None
    # keep only subspaces maximal under inclusion (equal ones were deduped)
    def contains(big, small):
        return linalg.rank(big) == linalg.rank(big + small)

    result = []
    for i, p in enumerate(out):
        strictly_inside = any(
            j != i and contains(q, p) and not contains(p, q) for j, q in enumerate(out)
        )
        if not strictly_inside:
            result.append(tuple(tuple(v) for v in p))
    return tuple(result)
