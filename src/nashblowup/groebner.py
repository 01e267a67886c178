"""Buchberger Groebner-basis engine with elimination and membership tests.

The engine works internally with primitive integer-coefficient polynomials
and pseudo-reduction, which keeps coefficient growth in check; public results
are monic polynomials over Q.  S-pairs are pruned when an element enters the
basis, by the Gebauer-Moeller update (Gebauer & Moeller, JSC 1988, in the
form of Becker & Weispfenning's UPDATE), and the queue selects the smallest
sugar first, then the smallest lcm in the active order (Giovini et al.,
"One sugar cube, please", ISSAC 1991).

Inside, a monomial is one int packed by `_Packing` (Monagan & Pearce, JSC
2011): int comparison is the order, int addition the product, and one masked
subtraction tests divisibility (after Bachmann & Schoenemann, ISSAC 1998);
exponent tuples are only where `Polynomial`s enter and leave.  `buchberger`
keeps one generator per class of nonzero scalar multiples, so a duplicate up
to a scalar costs no reduction; a generator already in the ideal costs one.
"""

from __future__ import annotations

import heapq
import itertools
from math import gcd
from operator import itemgetter, mul
from typing import Iterable, Sequence

from .polynomial import (
    MonomialOrder,
    Polynomial,
    _collect,
    _fresh,
    elimination_order,
    grevlex,
)


class BudgetExceededError(RuntimeError):
    """A configured resource cap (pairs, reduction steps, `hjac.MAX_MINORS`,
    `hjac.MAX_CELLS`, `hjac.MAX_EXPANSION_BITS`, `hilbert.MAX_MONOMIALS`) was hit.

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


class _Packing(dict):
    """The order-encoding packing K of the monomials of `ring` under `order`:
    `self[m]` packs the exponent tuple m into an int, once per call.  From the
    top, K holds the fields of `order.key_func(ring)`, each -e_i as cap - e_i,
    then the total degree, each of max(width, 1) value bits under a guard bit; cap =
    2^width - 1 bounds every degree.  K is affine, so `a < b` is the order,
    a + b - K(1) the product, lt - g_lt the shift of a division step and
    `k & cap` the degree; g divides m iff `(m - (g - borrow)) & guard == plus`."""

    def __init__(self, ring, order: MonomialOrder, width: int):
        super().__init__()
        width = max(width, 1)
        self.ring, self.width, self.cap = tuple(ring), width, (cap := (1 << width) - 1)
        self.graded = order.kind in ("grlex", "grevlex")
        blocks = [every := list(range(len(ring)))]
        if order.kind == "elimination":
            order.key_func(ring)  # refuses a dropped name outside the ring
            blocks = [[i for i in every if ring[i] in order.drop],
                      [i for i in every if ring[i] not in order.drop]]
        # (variables, sign) from the bottom: sign 0 sums the variables'
        # exponents, 1 holds e_i and -1 holds cap - e_i
        fields = [(every, 0)]
        for block in reversed(blocks):
            fields += ([([i], 1) for i in reversed(block)] if order.kind in ("lex", "grlex")
                       else [([i], -1) for i in block])
            fields += [] if order.kind == "lex" else [(block, 0)]
        at = [(vs, sign, k * (width + 1)) for k, (vs, sign) in enumerate(fields)]
        self.top = at[-1][2]
        var = sorted((vs[0], sign, o) for vs, sign, o in at if sign)
        self.one = sum(cap << o for _, sign, o in var if sign < 0)
        self.units = [sum((sign or 1) << o for vs, sign, o in at if i in vs) for i in every]
        self.places = [(o, cap if sign < 0 else 0) for _, sign, o in var]
        self.guard = sum(1 << o + width for *_, o in var)
        self.plus = self.guard - (self.one // cap << width)
        self.values, self.ones = (self.guard >> width) * cap, sum(1 << o for *_, o in at)
        self.borrow = (self.ones << width) - self.one // cap
        # per block: its variables' value bits and the degree fields that sum them
        self.sums = [(sum(cap << o for i, _, o in var if i in block),
                      sum(1 << o for vs, sign, o in at if not sign and set(block) <= set(vs)))
                     for block in blocks]

    def __missing__(self, mono):  # `_packed` sizes the cap to every packed tuple
        k = self[mono] = self.one + sum(map(mul, mono, self.units))
        return k

    def unpack(self, k: int) -> tuple:
        return tuple((k >> o & self.cap) ^ flip for o, flip in self.places)

    def lcm(self, a: int, b: int) -> int:
        """K(lcm(a, b)): a plus z = max(0, b - a), read per variable from the
        fields flipped to e_i, where K(1) is cap."""
        z = ((b ^ self.one) & self.values | self.guard) - ((a ^ self.one) & self.values)
        z &= (ge := z & self.guard) - (ge >> self.width)
        k, degree = a + z - 2 * (z & self.one), a & self.cap
        for block, unit in self.sums:
            degree += (s := (z & block) * self.ones >> self.top & self.cap)
            k += s * unit
        if degree > self.cap:
            raise OverflowError
        return k


def _packed(run, ring, order: MonomialOrder, polys: list[Polynomial]):
    """run(K) under the packing of (ring, order) whose cap holds twice the largest
    degree of `polys`, and again under double the width while a degree past the
    cap raises OverflowError."""
    width = (2 * max((max(map(sum, p.numerators)) for p in polys if p), default=0)).bit_length()
    while True:
        try:
            return run(K := _Packing(ring, order, width))
        except OverflowError:
            width = 2 * K.width


def _entry(terms: dict, K: _Packing) -> tuple | None:
    """The basis entry (terms, lt, lc, div, top) of integer `terms`: primitive, lc > 0 at
    the leading monomial lt, div = lt - K.borrow, top its largest degree; None for zero."""
    if not terms:
        return None
    cont = gcd(*terms.values())
    lt = max(terms)
    if terms[lt] < 0:
        cont = -cont
    if cont != 1:
        terms = {m: v // cont for m, v in terms.items()}
    top = lt & K.cap if K.graded else max(map(K.cap.__and__, terms))
    return terms, lt, terms[lt], lt - K.borrow, top


def _reduce_int(terms: dict, basis: Sequence[tuple], K: _Packing, budget) -> tuple[dict, int]:
    """Full pseudo-reduction of `terms` by `basis` entries (terms, lt, lc, div, top).

    Returns (remainder, scale): the remainder is `scale` times the remainder
    of the division over Q of `terms` by the same divisors in the same order.
    Each step takes one item of `budget`, and one past its end is refused.
    """
    cap, guard, plus = K.cap, K.guard, K.plus
    work = dict(terms)
    remainder: dict = {}
    scale = 1
    while work:
        if not next(budget, False):
            raise BudgetExceededError("reduction budget exceeded")
        lt = max(work)
        c = work.pop(lt)
        for g_terms, g_lt, g_lc, g_div, g_top in basis:
            if (lt - g_div) & guard == plus:
                if g_top + (lt & cap) - (g_lt & cap) > cap:
                    raise OverflowError
                d = gcd(c, g_lc)
                a = g_lc // d
                b = c // d
                if a != 1:
                    work = {m: v * a for m, v in work.items()}
                    remainder = {m: v * a for m, v in remainder.items()}
                    scale *= a
                shift = lt - g_lt
                for m, v in g_terms.items():
                    if m == g_lt:
                        continue
                    mm = m + shift
                    acc = work.get(mm, 0) - b * v
                    if acc:
                        work[mm] = acc
                    elif mm in work:
                        del work[mm]
                break
        else:
            remainder[lt] = c
    return remainder, scale


def _spoly_int(f: tuple, g: tuple, lcm: int, K: _Packing) -> dict:
    """Integer S-polynomial of two entries whose leading monomials have the lcm `lcm`."""
    f_terms, f_lt, f_lc, _, f_top = f
    g_terms, g_lt, g_lc, _, g_top = g
    if max(f_top - (f_lt & K.cap), g_top - (g_lt & K.cap)) + (lcm & K.cap) > K.cap:
        raise OverflowError
    d = gcd(f_lc, g_lc)
    cf, cg = g_lc // d, -(f_lc // d)
    sf, sg = lcm - f_lt, lcm - g_lt
    pairs = [(m + sf, cf * v) for m, v in f_terms.items()]
    pairs += [(m + sg, cg * v) for m, v in g_terms.items()]
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

    A degree past the cap of the packing restarts the run under double the
    width; the run is deterministic, so its pairs, reductions and result are
    those of a first run wide enough.

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
    generators = [g.to_ring(ring) for g in generators if not g.is_zero()]
    return _packed(lambda K: _basis(generators, K, max_pairs, max_reductions),
                   ring, order or grevlex(), generators)


def _basis(generators: list[Polynomial], K: _Packing, max_pairs, max_reductions) -> list[Polynomial]:
    """The body of `buchberger` under the packing K, which may overflow."""
    cap, guard, plus = K.cap, K.guard, K.plus
    # one primitive, sign-normalised entry per class of scalar multiples
    classes: dict = {}
    for g in generators:
        entry = _entry({K[m]: v for m, v in g.numerators.items()}, K)
        classes.setdefault(frozenset(entry[0].items()), entry)
    entries = sorted(classes.values(), key=lambda e: (len(e[0]), e[4]))
    budget = itertools.repeat(True) if max_reductions is None else itertools.repeat(True, max_reductions)
    pairs = itertools.repeat(True) if max_pairs is None else itertools.repeat(True, max_pairs)

    basis: list[tuple] = []
    sugars: list[int] = []  # the sugar of each basis entry
    # pair queue: smallest sugar first, then smallest lcm in the active order
    heap: list = []
    live: dict[tuple[int, int], int] = {}  # queued pair -> lcm, until pruned
    redundant: set[int] = set()  # entries whose lt a later lt divides
    counter = itertools.count()

    def insert(entry: tuple, sugar: int):
        """Add `entry` to the basis and queue its S-pairs, pruned by the
        Gebauer-Moeller update."""
        h_lt, h_div = entry[1], entry[3]
        # a live pair whose lcm lt(h) divides has a chain through h, unless
        # a side pair with h has the same lcm
        for (i, j), lcm in list(live.items()):
            if ((lcm - h_div) & guard == plus
                    and lcm != K.lcm(basis[i][1], h_lt)
                    and lcm != K.lcm(basis[j][1], h_lt)):
                del live[i, j]
        # one new pair per lcm; None marks an lcm of a coprime pair, whose
        # S-polynomial reduces to zero, and so settles its whole class.  An
        # entry whose lt a later lt divides forms no more pairs: a chain
        # through the later entry covers them.
        new_lcms: dict[int, int | None] = {}
        for k, (_, g_lt, *_) in enumerate(basis):
            if k in redundant:
                continue
            if (g_lt - h_div) & guard == plus:
                redundant.add(k)
            lcm = K.lcm(g_lt, h_lt)
            if lcm & cap == (g_lt & cap) + (h_lt & cap):
                new_lcms[lcm] = None
            else:
                new_lcms.setdefault(lcm, k)
        new = len(basis)
        basis.append(entry)
        sugars.append(sugar)
        h_rest = sugar - (h_lt & cap)
        # a new lcm properly divided by another has a chain through h; only
        # a kept lcm of lower degree can divide it properly
        kept: list[int] = []
        by_degree = sorted((lcm & cap, lcm, k) for lcm, k in new_lcms.items())
        for degree, group in itertools.groupby(by_degree, key=itemgetter(0)):
            group = [(lcm, k) for _, lcm, k in group
                     if not any((lcm - m) & guard == plus for m in kept)]
            kept += [lcm - K.borrow for lcm, _ in group]
            for lcm, k in group:
                if k is not None:
                    pair_sugar = max(sugars[k] - (basis[k][1] & cap), h_rest) + degree
                    live[k, new] = lcm
                    heapq.heappush(heap, (pair_sugar, lcm, next(counter), k, new))

    for entry in entries:
        if basis:
            entry = _entry(_reduce_int(entry[0], basis, K, budget)[0], K)
        if entry is None:
            continue
        old = len(basis)
        insert(entry, entry[4])
        while heap:
            sugar, lcm, _, i, j = heapq.heappop(heap)
            if live.pop((i, j), None) is None:
                continue  # pruned after it was queued
            if not next(pairs, False):
                raise BudgetExceededError("pair budget exceeded")
            s = _spoly_int(basis[i], basis[j], lcm, K)
            entry = _entry(_reduce_int(s, basis, K, budget)[0], K)
            if entry is not None:
                insert(entry, sugar)
        basis[:] = _interreduce(basis, old, redundant, K)
        redundant.clear()
        sugars[:] = [top for *_, top in basis]

    return [Polynomial._over(K.ring, {K.unpack(m): v for m, v in terms.items()}, lc)
            for terms, _, lc, _, _ in basis]


def _interreduce(basis: list[tuple], old: int, redundant: set[int], K: _Packing) -> list[tuple]:
    """The reduced basis of `basis`, primitive with positive leading
    coefficients, in increasing order of lt.  The first `old` entries are
    reduced and each later one is reduced by those before it, so the entries
    not in `redundant`, whose lt no later lt divides, are minimal.  One pass
    reduces each by the reduced ones of smaller lt, the only lts that can
    divide a term below its own, but keeps an old entry none of whose terms
    a new lt divides."""
    new_divs = [basis[k][3] for k in range(old, len(basis)) if k not in redundant]
    reduced: list[tuple] = []
    for k in sorted(set(range(len(basis))) - redundant, key=lambda k: basis[k][1]):
        terms = basis[k][0]
        if k < old and not any((m - div) & K.guard == K.plus for m in terms for div in new_divs):
            reduced.append(basis[k])
        else:
            reduced.append(_entry(_reduce_int(terms, reduced, K, itertools.repeat(True))[0], K))
    return reduced


# -- public rational-arithmetic operations -------------------------------------


def _remainders(fs, G, order: MonomialOrder, ring) -> list[tuple[dict, int]]:
    """(r, d) for each f in `fs`: the remainder of f by G in `ring`, as in
    `normal_form`, is r/d with integer terms r.  G is packed once."""
    fs, G = list(fs), [g.to_ring(ring) for g in G if not g.is_zero()]

    def run(K: _Packing) -> list[tuple[dict, int]]:
        divisors = [_entry({K[m]: v for m, v in g.numerators.items()}, K) for g in G]
        reduced = [(_reduce_int({K[m]: v for m, v in f.numerators.items()}, divisors, K,
                                itertools.repeat(True)), f.den) for f in fs]
        return [({K.unpack(m): v for m, v in r.items()}, d * scale) for (r, scale), d in reduced]

    return _packed(run, ring, order, fs + G)


def normal_form(f: Polynomial, G: Sequence[Polynomial], order: MonomialOrder | None = None) -> Polynomial:
    """Remainder of multivariate division of f by G: no remainder term is
    divisible by any leading term of G, and f - r lies in <G>."""
    [(remainder, d)] = _remainders([f], G, order or grevlex(), f.ring)
    return Polynomial._over(f.ring, remainder, d)


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
    return Ideal(keep, [g.to_ring(keep) for g in basis
                        if not any(m[i] for m in g.numerators for i in dropped_idx)])


def ideal_membership(f: Polynomial, I: Ideal, order: MonomialOrder | None = None) -> bool:
    """True iff f lies in I."""
    if f.ring != I.ring:
        f = f.to_ring(I.ring)
    if f.is_zero():
        return True
    basis = buchberger(I.generators, order, I.ring)
    return normal_form(f, basis, order).is_zero()


def ideal_equal(I: Ideal, J: Ideal, order: MonomialOrder | None = None) -> bool:
    """True iff the two ideals coincide (compared via reduced bases)."""
    if I.ring != J.ring:
        raise ValueError(f"ideals in different rings: {I.ring} vs {J.ring}")
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
