"""Buchberger Groebner-basis engine with elimination and membership tests.

The engine works internally with primitive integer-coefficient polynomials
and pseudo-reduction, which keeps coefficient growth in check; public results
are monic polynomials over Q.  S-pairs are pruned when an element enters the
basis, by the Gebauer-Moeller update (Gebauer & Moeller, JSC 1988, in the
form of Becker & Weispfenning's UPDATE), and the queue selects the smallest
sugar first, then the smallest lcm in the active order (Giovini et al.,
"One sugar cube, please", ISSAC 1991).

The inner loop runs in C builtins where it can: monomials are exponent
tuples combined by `map` over `operator` functions, and each call keys the
monomial order through a dict that computes every monomial's key once.
`buchberger` keeps one generator per class of nonzero scalar multiples, so a
duplicate up to a scalar costs no reduction; a generator already in the
ideal costs one.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter, le, sub
from typing import Callable, Iterable, Sequence

from .polynomial import (
    MonomialOrder,
    Polynomial,
    _collect,
    _fresh,
    elimination_order,
    grevlex,
)


class BudgetExceededError(RuntimeError):
    """A configured resource cap (pairs, reduction steps, `hjac.MAX_MINORS`) was hit.

    Raised from the elimination in `limits.limit_ideal`, it carries the minor
    table as `minors`, and the names of the u variables, one per minor, as `u_ring`.
    """


class Ideal:
    """An ideal given by generators.

    Compare ideals with `ideal_equal`: `==` is identity, since equal ideals
    can have different generators.
    """

    def __init__(self, ring, generators: Iterable[Polynomial]):
        self.ring = tuple(ring)
        self.generators = tuple(g.to_ring(self.ring) for g in generators if not g.is_zero())


# -- internal integer representation ------------------------------------------


def _cleared(f: Polynomial) -> tuple[dict, int]:
    """(terms, d): integer terms equal to d * f for the least such d."""
    d = lcm(*(c.denominator for c in f.terms.values()))
    if d == 1:
        return {m: c.numerator for m, c in f.terms.items()}, 1
    return {m: c.numerator * (d // c.denominator) for m, c in f.terms.items()}, d


def _entry(terms: dict, keyf) -> tuple | None:
    """The basis entry (terms, lt, lc) of integer `terms`, made primitive
    with positive leading coefficient lc at leading monomial lt; None for
    zero."""
    if not terms:
        return None
    cont = gcd(*terms.values())
    lt = max(terms, key=keyf)
    if terms[lt] < 0:
        cont = -cont
    if cont != 1:
        terms = {m: v // cont for m, v in terms.items()}
    return terms, lt, terms[lt]


class _KeyCache(dict):
    """Monomial -> order key, each key computed once on first lookup."""

    __slots__ = ("key",)

    def __init__(self, key):
        super().__init__()
        self.key = key

    def __missing__(self, mono):
        k = self[mono] = self.key(mono)
        return k


def _keyf(order: MonomialOrder, ring) -> Callable[[tuple], tuple]:
    """`order.key_func(ring)` behind a fresh cache, for one call of the
    engine: a bound dict lookup, so that `max(terms, key=keyf)` stays in C
    once each monomial has been seen."""
    return _KeyCache(order.key_func(ring)).__getitem__


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
            if all(map(le, g_lt, lt)):
                d = gcd(c, g_lc)
                a = g_lc // d
                b = c // d
                if a != 1:
                    if a < 0:
                        a, b = -a, -b
                    work = {m: v * a for m, v in work.items()}
                    remainder = {m: v * a for m, v in remainder.items()}
                    scale *= a
                shift = tuple(map(sub, lt, g_lt))
                for m, v in g_terms.items():
                    if m == g_lt:
                        continue
                    mm = tuple(map(add, m, shift))
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
    lcm = tuple(map(max, f_lt, g_lt))
    d = gcd(f_lc, g_lc)
    cf = g_lc // d
    cg = -(f_lc // d)
    sf = tuple(map(sub, lcm, f_lt))
    sg = tuple(map(sub, lcm, g_lt))
    pairs = [(tuple(map(add, m, sf)), cf * v) for m, v in f_terms.items()]
    pairs += [(tuple(map(add, m, sg)), cg * v) for m, v in g_terms.items()]
    return _collect(pairs)


def buchberger(
    generators: Iterable[Polynomial],
    order: MonomialOrder | None = None,
    ring: tuple[str, ...] | None = None,
    max_pairs: int | None = None,
    max_reductions: int | None = None,
) -> list[Polynomial]:
    """The unique reduced Groebner basis of the ideal of `generators`.

    Each generator is made primitive with a positive leading coefficient,
    and only the first of equal ones is kept, so a duplicate up to a nonzero
    scalar costs no reduction.  The rest enter one at a time, fewest terms
    first and then lowest total degree first (a stable sort, so ties keep
    their given order).  Each is pseudo-reduced by the basis so far; a
    nonzero remainder joins the basis, its S-pairs are reduced until none
    is left, and `_interreduce` reduces the basis before the next generator,
    so a generator already in the ideal costs one reduction.

    Pairs are pruned when an element h enters the basis, never when they
    are popped.  A queued pair is dropped when lt(h) divides its lcm and
    neither of its side pairs with h has the same lcm.  Of the new pairs
    with h, one is kept per lcm, and none whose lcm another new lcm divides
    properly or whose lcm class holds a coprime pair.  An element whose lt
    lt(h) divides forms no more pairs.  Each rule is an instance of
    Buchberger's coprime or chain criterion, so a pruned pair need not be
    reduced.

    The queue pops the pair of smallest sugar, then of smallest lcm in the
    active order.  The sugar of a generator is the total degree of its
    remainder, and that of every basis element is reset to its total degree
    after each interreduction; an S-pair of f and g has sugar
    max(sugar f - deg lt f, sugar g - deg lt g) + deg lcm, and its
    remainder inherits it.

    Raises BudgetExceededError when a configured cap is hit; never returns a
    partial answer.  `max_pairs` counts the S-pairs reduced, not those
    pruned; `max_reductions` counts the steps of every reduction of an input
    generator or an S-polynomial, but not of interreduction.  A negative cap
    is a ValueError.
    """
    for name, cap in (("max_pairs", max_pairs), ("max_reductions", max_reductions)):
        if cap is not None and cap < 0:
            raise ValueError(f"{name} must be >= 0, got {cap}")
    generators = list(generators)
    if ring is None:
        if not generators:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring = generators[0].ring
    ring = tuple(ring)
    generators = [_cleared(g.to_ring(ring))[0] for g in generators if not g.is_zero()]
    if order is None:
        order = grevlex()
    keyf = _keyf(order, ring)
    # one primitive, sign-normalised entry per class of scalar multiples
    classes: dict = {}
    for terms in generators:
        entry = _entry(terms, keyf)
        classes.setdefault(frozenset(entry[0].items()), entry)
    entries = sorted(classes.values(), key=lambda e: (len(e[0]), max(map(sum, e[0]))))
    budget = _Budget(max_reductions)

    basis: list[tuple] = []
    sugars: list[int] = []  # the sugar of each basis entry
    # pair queue: smallest sugar first, then smallest lcm in the active order
    heap: list = []
    live: dict[tuple[int, int], tuple] = {}  # queued pair -> lcm, until pruned
    redundant: set[int] = set()  # entries whose lt a later lt divides
    counter = itertools.count()
    processed = 0

    def insert(entry: tuple, sugar: int):
        """Add `entry` to the basis and queue its S-pairs, pruned by the
        Gebauer-Moeller update."""
        h_lt = entry[1]
        # a live pair whose lcm lt(h) divides has a chain through h, unless
        # a side pair with h has the same lcm
        for (i, j), lcm in list(live.items()):
            if (all(map(le, h_lt, lcm))
                    and lcm != tuple(map(max, basis[i][1], h_lt))
                    and lcm != tuple(map(max, basis[j][1], h_lt))):
                del live[i, j]
        # one new pair per lcm; None marks an lcm of a coprime pair, whose
        # S-polynomial reduces to zero, and so settles its whole class.  An
        # entry whose lt a later lt divides forms no more pairs: a chain
        # through the later entry covers them.
        new_lcms: dict[tuple, int | None] = {}
        for k, (_, g_lt, _) in enumerate(basis):
            if k in redundant:
                continue
            if all(map(le, h_lt, g_lt)):
                redundant.add(k)
            lcm = tuple(map(max, g_lt, h_lt))
            if lcm == tuple(map(add, g_lt, h_lt)):
                new_lcms[lcm] = None
            else:
                new_lcms.setdefault(lcm, k)
        new = len(basis)
        basis.append(entry)
        sugars.append(sugar)
        h_rest = sugar - sum(h_lt)
        # a new lcm properly divided by another has a chain through h; only
        # a kept lcm of lower degree can divide it properly
        kept: list[tuple] = []
        by_degree = sorted((sum(lcm), lcm, k) for lcm, k in new_lcms.items())
        for degree, group in itertools.groupby(by_degree, key=itemgetter(0)):
            group = [(lcm, k) for _, lcm, k in group
                     if not any(all(map(le, m, lcm)) for m in kept)]
            kept += [lcm for lcm, _ in group]
            for lcm, k in group:
                if k is not None:
                    pair_sugar = max(sugars[k] - sum(basis[k][1]), h_rest) + degree
                    live[k, new] = lcm
                    heapq.heappush(heap, (pair_sugar, keyf(lcm), next(counter), k, new))

    for entry in entries:
        if basis:
            entry = _entry(_reduce_int(entry[0], basis, keyf, budget)[0], keyf)
        if entry is None:
            continue
        old = len(basis)
        insert(entry, max(map(sum, entry[0])))
        while heap:
            sugar, _, _, i, j = heapq.heappop(heap)
            if live.pop((i, j), None) is None:
                continue  # pruned after it was queued
            if max_pairs is not None:
                processed += 1
                if processed > max_pairs:
                    raise BudgetExceededError("pair budget exceeded")
            s = _spoly_int(basis[i], basis[j])
            entry = _entry(_reduce_int(s, basis, keyf, budget)[0], keyf)
            if entry is not None:
                insert(entry, sugar)
        basis[:] = _interreduce(basis, old, redundant, keyf)
        redundant.clear()
        sugars[:] = [max(map(sum, terms)) for terms, _, _ in basis]

    return [Polynomial._from_terms(ring, {m: Fraction(v, lc) for m, v in terms.items()})
            for terms, _, lc in basis]


def _interreduce(basis: list[tuple], old: int, redundant: set[int], keyf) -> list[tuple]:
    """The reduced basis of `basis`, primitive with positive leading
    coefficients, in increasing order of lt.  The first `old` entries are
    reduced and each later one is reduced by those before it, so the entries
    not in `redundant`, whose lt no later lt divides, are minimal.  One pass
    reduces each by the reduced ones of smaller lt, the only lts that can
    divide a term below its own, but keeps an old entry none of whose terms
    a new lt divides."""
    new_lts = [basis[k][1] for k in range(old, len(basis)) if k not in redundant]
    reduced: list[tuple] = []
    for k in sorted(set(range(len(basis))) - redundant, key=lambda k: keyf(basis[k][1])):
        terms = basis[k][0]
        if k < old and not any(all(map(le, lt, m)) for m in terms for lt in new_lts):
            reduced.append(basis[k])
        else:
            reduced.append(_entry(_reduce_int(terms, reduced, keyf, _Budget(None))[0], keyf))
    return reduced


# -- public rational-arithmetic operations -------------------------------------


def _remainders(fs, G, order: MonomialOrder, ring) -> list[tuple[dict, int]]:
    """(r, d) for each f in `fs`: the remainder of f by G in `ring`, as in
    `normal_form`, is r/d with integer terms r.  G is cleared and keyed once."""
    keyf = _keyf(order, ring)
    divisors = [_entry(_cleared(g.to_ring(ring))[0], keyf) for g in G if not g.is_zero()]
    reduced = [(_reduce_int(terms, divisors, keyf, _Budget(None)), d)
               for terms, d in map(_cleared, fs)]
    return [(r, d * scale) for (r, scale), d in reduced]


def normal_form(f: Polynomial, G: Sequence[Polynomial], order: MonomialOrder | None = None) -> Polynomial:
    """Remainder of multivariate division of f by G: no remainder term is
    divisible by any leading term of G, and f - r lies in <G>."""
    [(remainder, d)] = _remainders([f], G, order or grevlex(), f.ring)
    return Polynomial._from_terms(f.ring, {m: Fraction(v, d) for m, v in remainder.items()})


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
    basis = buchberger(I.generators, order, I.ring)
    return normal_form(f, basis, order).is_zero()


def ideal_equal(I: Ideal, J: Ideal, order: MonomialOrder | None = None) -> bool:
    """True iff the two ideals coincide (compared via reduced bases)."""
    if I.ring != J.ring:
        raise ValueError(f"ideals in different rings: {I.ring} vs {J.ring}")
    if order is None:
        order = grevlex()
    return buchberger(I.generators, order, I.ring) == buchberger(J.generators, order, J.ring)


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
