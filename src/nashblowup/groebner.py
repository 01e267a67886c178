"""Buchberger Groebner-basis engine with elimination and membership tests.

The engine works internally with primitive integer-coefficient polynomials
and pseudo-reduction, which keeps coefficient growth in check; public results
are monic polynomials over Q.  Pair selection follows the normal strategy
(smallest lcm first) with Buchberger's coprimality and chain criteria.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .polynomial import (
    MonomialOrder,
    Polynomial,
    _fresh,
    elimination_order,
    grevlex,
)


class BudgetExceededError(RuntimeError):
    """A configured resource cap (pairs or reduction steps) was hit.

    Raised from `limits.limit_ideal`, it carries the minor table computed
    before the abort as `minors`.
    """


class Ideal:
    """An ideal given by generators.

    Compare ideals with `ideal_equal`: `==` is identity, since equal ideals
    can have different generators.
    """

    def __init__(self, ring, generators: Iterable[Polynomial]):
        self.ring = tuple(ring)
        gens = []
        for g in generators:
            if g.ring != self.ring:
                g = g.to_ring(self.ring)
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)

    def groebner_basis(
        self,
        order: MonomialOrder | None = None,
        max_pairs: int | None = None,
        max_reductions: int | None = None,
    ) -> tuple[Polynomial, ...]:
        """The reduced Groebner basis for the order, computed on each call."""
        return tuple(buchberger(self.generators, order, self.ring,
                                max_pairs=max_pairs, max_reductions=max_reductions))


# -- internal integer representation ------------------------------------------


def _content(terms: dict) -> int:
    c = 0
    for v in terms.values():
        c = gcd(c, v)
        if c == 1:
            return 1
    return c


def _cleared(f: Polynomial) -> tuple[dict, int]:
    """(terms, d): integer terms equal to d * f for the least such d."""
    d = lcm(*(c.denominator for c in f.terms.values()))
    return {m: c.numerator * (d // c.denominator) for m, c in f.terms.items()}, d


def _normalize(terms: dict, keyf) -> dict:
    """Primitive with positive leading coefficient; empty dict for zero."""
    if not terms:
        return terms
    cont = _content(terms)
    lt = max(terms, key=keyf)
    if terms[lt] < 0:
        cont = -cont
    if cont != 1:
        terms = {m: v // cont for m, v in terms.items()}
    return terms


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(x if x >= y else y for x, y in zip(a, b))


def _mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _mono_sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


class _Budget:
    __slots__ = ("reductions_left",)

    def __init__(self, max_reductions):
        self.reductions_left = max_reductions

    def step(self):
        if self.reductions_left is not None:
            self.reductions_left -= 1
            if self.reductions_left < 0:
                raise BudgetExceededError("reduction budget exceeded")


def _reduce_int(terms: dict, basis: Sequence[tuple], keyf, budget: _Budget) -> tuple[dict, int]:
    """Full pseudo-reduction of `terms` by `basis` entries (terms, lt, lc).

    Returns (remainder, scale): the remainder is `scale` times the remainder
    of the division over Q of `terms` by the same divisors in the same order.
    """
    work = dict(terms)
    remainder: dict = {}
    scale = 1
    while work:
        budget.step()
        lt = max(work, key=keyf)
        c = work.pop(lt)
        for g_terms, g_lt, g_lc in basis:
            if _divides(g_lt, lt):
                d = gcd(c, g_lc)
                a = g_lc // d
                b = c // d
                if a != 1:
                    if a < 0:
                        a, b = -a, -b
                    work = {m: v * a for m, v in work.items()}
                    remainder = {m: v * a for m, v in remainder.items()}
                    scale *= a
                shift = _mono_sub(lt, g_lt)
                for m, v in g_terms.items():
                    if m == g_lt:
                        continue
                    mm = _mono_mul(m, shift)
                    acc = work.get(mm, 0) - b * v
                    if acc:
                        work[mm] = acc
                    elif mm in work:
                        del work[mm]
                break
        else:
            remainder[lt] = c
    return remainder, scale


def _spoly_int(f: tuple, g: tuple) -> dict:
    """Integer S-polynomial of two (terms, lt, lc) entries."""
    f_terms, f_lt, f_lc = f
    g_terms, g_lt, g_lc = g
    lcm = _mono_lcm(f_lt, g_lt)
    d = gcd(f_lc, g_lc)
    cf = g_lc // d
    cg = f_lc // d
    sf = _mono_sub(lcm, f_lt)
    sg = _mono_sub(lcm, g_lt)
    out: dict = {}
    for m, v in f_terms.items():
        out[_mono_mul(m, sf)] = cf * v
    for m, v in g_terms.items():
        mm = _mono_mul(m, sg)
        acc = out.get(mm, 0) - cg * v
        if acc:
            out[mm] = acc
        elif mm in out:
            del out[mm]
    return out


def _entry(terms: dict, keyf) -> tuple:
    lt = max(terms, key=keyf)
    return (terms, lt, terms[lt])


def buchberger(
    generators: Iterable[Polynomial],
    order: MonomialOrder | None = None,
    ring: tuple[str, ...] | None = None,
    max_pairs: int | None = None,
    max_reductions: int | None = None,
) -> list[Polynomial]:
    """The unique reduced Groebner basis of the ideal of `generators`.

    Raises BudgetExceededError when a configured cap is hit; never returns a
    partial answer.  A negative cap is a ValueError.
    """
    for name, cap in (("max_pairs", max_pairs), ("max_reductions", max_reductions)):
        if cap is not None and cap < 0:
            raise ValueError(f"{name} must be >= 0, got {cap}")
    generators = list(generators)
    if ring is None:
        if not generators:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring = generators[0].ring
    generators = [g.to_ring(ring) for g in generators]
    if order is None:
        order = grevlex()
    keyf = order.key_func(ring)
    budget = _Budget(max_reductions)

    basis: list[tuple] = []
    seen = set()
    for g in generators:
        terms = _normalize(_cleared(g)[0], keyf)
        if terms:
            fs = frozenset(terms.items())
            if fs not in seen:
                seen.add(fs)
                basis.append(_entry(terms, keyf))

    # pair queue, normal strategy: smallest lcm in the active order first
    heap: list = []
    pending: set[tuple[int, int]] = set()
    counter = itertools.count()

    def push_pair(i: int, j: int):
        lcm = _mono_lcm(basis[i][1], basis[j][1])
        if lcm == _mono_mul(basis[i][1], basis[j][1]):
            return  # coprime leading monomials: S-poly reduces to zero
        heapq.heappush(heap, (keyf(lcm), next(counter), i, j, lcm))
        pending.add((i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push_pair(i, j)

    processed = 0
    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        # chain criterion: some other lt divides the lcm and both side pairs
        # are already settled
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(basis[k][1], lcm):
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 not in pending and p2 not in pending:
                    skip = True
                    break
        if skip:
            continue
        if max_pairs is not None:
            processed += 1
            if processed > max_pairs:
                raise BudgetExceededError("pair budget exceeded")
        s = _spoly_int(basis[i], basis[j])
        r = _normalize(_reduce_int(s, basis, keyf, budget)[0], keyf)
        if r:
            basis.append(_entry(r, keyf))
            new = len(basis) - 1
            for k in range(new):
                push_pair(k, new)

    return _reduced_from_int(basis, keyf, ring)


def incremental_basis(
    generators: Iterable[Polynomial],
    order: MonomialOrder | None = None,
    ring: tuple[str, ...] | None = None,
) -> list[Polynomial]:
    """The reduced Groebner basis of the ideal of `generators`, as
    `buchberger` returns it, for long generator lists that are mostly
    redundant.

    The first generator starts the basis, so it should be one that the
    basis needs.  The others follow one at a time, fewest terms first and
    then lowest degree first (a stable sort, so ties keep their given
    order).  Each is pseudo-reduced by the basis built so far, and only a
    nonzero remainder is passed, with that basis, to `buchberger`.
    """
    generators = list(generators)
    if ring is None:
        if not generators:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring = generators[0].ring
    if order is None:
        order = grevlex()
    keyf = order.key_func(ring)
    budget = _Budget(None)
    pending = [_cleared(g.to_ring(ring))[0] for g in generators if not g.is_zero()]
    if not pending:
        return []
    entries = [_entry(pending[0], keyf)]
    basis = _reduced_from_int(entries, keyf, ring)
    for terms in sorted(pending[1:], key=lambda t: (len(t), max(map(sum, t)))):
        r = _reduce_int(terms, entries, keyf, budget)[0]
        if r:
            r = Polynomial._from_terms(ring, {m: Fraction(v) for m, v in r.items()})
            basis = buchberger(basis + [r], order, ring)
            entries = [_entry(_cleared(g)[0], keyf) for g in basis]
    return basis


def _reduced_from_int(basis: list[tuple], keyf, ring) -> list[Polynomial]:
    """Minimalize and tail-reduce an integer basis; return monic polynomials."""
    # minimal: drop entries whose lt is divisible by another surviving lt
    order_by_lt = sorted(range(len(basis)), key=lambda i: keyf(basis[i][1]))
    kept: list[tuple] = []
    for i in order_by_lt:
        lt = basis[i][1]
        if not any(_divides(e[1], lt) for e in kept):
            kept.append(basis[i])
    # tail-reduce each element against the others
    budget = _Budget(None)
    reduced = []
    for i, entry in enumerate(kept):
        others = [e for j, e in enumerate(kept) if j != i]
        r = _reduce_int(entry[0], others, keyf, budget)[0] if others else entry[0]
        reduced.append(_normalize(r, keyf))
    out = []
    for terms in reduced:
        lt = max(terms, key=keyf)
        lc = terms[lt]
        poly = Polynomial(ring, {m: Fraction(v, lc) for m, v in terms.items()})
        out.append(poly)
    out.sort(key=lambda p: keyf(max(p.terms, key=keyf)))
    return out


# -- public rational-arithmetic operations -------------------------------------


def normal_form(f: Polynomial, G: Sequence[Polynomial], order: MonomialOrder | None = None) -> Polynomial:
    """Remainder of multivariate division of f by G: no remainder term is
    divisible by any leading term of G, and f - r lies in <G>."""
    if order is None:
        order = grevlex()
    keyf = order.key_func(f.ring)
    divisors = [_entry(_normalize(_cleared(g.to_ring(f.ring))[0], keyf), keyf)
                for g in G if not g.is_zero()]
    terms, denom = _cleared(f)
    remainder, scale = _reduce_int(terms, divisors, keyf, _Budget(None))
    return Polynomial(f.ring, {m: Fraction(v, denom * scale) for m, v in remainder.items()})


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder | None = None) -> Polynomial:
    """S(f, g) built from the monic normalizations of f and g."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial is undefined")
    if order is None:
        order = grevlex()
    f._check_ring(g)
    keyf = order.key_func(f.ring)
    ef, eg = (_entry(_normalize(_cleared(p)[0], keyf), keyf) for p in (f, g))
    d = lcm(ef[2], eg[2])
    return Polynomial(f.ring, {m: Fraction(v, d) for m, v in _spoly_int(ef, eg).items()})


def eliminate(
    I: Ideal,
    drop: Iterable[str],
    max_pairs: int | None = None,
    max_reductions: int | None = None,
) -> Ideal:
    """Generators of I intersected with the subring without the `drop` variables.

    One `buchberger` call under `elimination_order(drop)`, grevlex on the
    dropped variables >> grevlex on the kept ones; the basis elements free
    of the dropped variables generate the intersection (Elimination Theorem).
    """
    drop = tuple(drop)
    ring = I.ring
    keep = tuple(v for v in ring if v not in drop)
    if not keep:
        raise ValueError("cannot drop every variable")
    basis = buchberger(I.generators, elimination_order(drop), ring,
                       max_pairs=max_pairs, max_reductions=max_reductions)
    dropped_idx = [ring.index(v) for v in drop]
    kept_polys = []
    for g in basis:
        if all(all(m[i] == 0 for i in dropped_idx) for m in g.terms):
            kept_polys.append(g.to_ring(keep))
    return Ideal(keep, kept_polys)


def ideal_membership(f: Polynomial, I: Ideal, order: MonomialOrder | None = None) -> bool:
    """True iff f lies in I."""
    if f.ring != I.ring:
        f = f.to_ring(I.ring)
    if f.is_zero():
        return True
    if order is None:
        order = grevlex()
    basis = I.groebner_basis(order)
    return normal_form(f, basis, order).is_zero()


def ideal_equal(I: Ideal, J: Ideal, order: MonomialOrder | None = None) -> bool:
    """True iff the two ideals coincide (compared via reduced bases)."""
    if I.ring != J.ring:
        raise ValueError(f"ideals in different rings: {I.ring} vs {J.ring}")
    if order is None:
        order = grevlex()
    return I.groebner_basis(order) == J.groebner_basis(order)


def radical_membership(f: Polynomial, I: Ideal, **budget) -> bool:
    """True iff f vanishes on V(I), via the Rabinowitsch trick:
    f in sqrt(I) iff 1 in <I, 1 - w*f> for a fresh variable w."""
    if f.ring != I.ring:
        f = f.to_ring(I.ring)
    if f.is_zero():
        return True
    w = _fresh("w_rad", I.ring)
    ext = I.ring + (w,)
    gens = [g.to_ring(ext) for g in I.generators]
    fw = f.to_ring(ext) * Polynomial.variable(ext, w)
    gens.append(Polynomial.constant(ext, 1) - fw)
    basis = buchberger(gens, grevlex(), ext, **budget)
    return len(basis) == 1 and basis[0] == Polynomial.constant(ext, 1)
