"""The higher-order Jacobian matrix of a hypersurface and everything read
off from it: singularity tests by rank, higher tangent spaces as kernels,
maximal minors, and the Nash-blowup ideal.

For F in s variables and order n, the matrix has M = C(n+s-1, s) rows
labelled by multi-indices beta with |beta| <= n-1 and N-1 = C(n+s, s) - 1
columns labelled by alpha with 1 <= |alpha| <= n, both in the canonical
enumeration order.  The (beta, alpha) entry is d^(alpha-beta)F / (alpha-beta)!
when alpha >= beta componentwise and 0 otherwise.

So the matrix is a table of Taylor coefficients read through alpha - beta:
`build` holds its layout, `HigherJacobian.taylor` sums them on first read, and
`_taylor_at` gives their values at p, the terms of F(x + p), in integers.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from . import multiindex as mi
from .groebner import BudgetExceededError, Ideal, _Packing, buchberger, normal_form
from .polynomial import Polynomial, _collect, _lcd, grevlex, lex, make_point

MAX_MINORS = 1_000_000  # the cap on a minor table's size; x*y - z^4 at n=3 has 92,378
MAX_CELLS = 250_000  # the cap on a matrix's M*(N-1) cells; the cusp at n=30 has 230,175
MAX_EXPANSION_BITS = 4_000_000  # the cap on F(x + p)'s bits; x^4 - y at a 1,200-digit x, 79,759


class PointNotOnHypersurfaceError(ValueError):
    """The given point does not satisfy F(p) = 0."""


class SingularPointError(ValueError):
    """The operation needs a non-singular point of the hypersurface."""


@dataclass(frozen=True)
class HigherJacobian:
    """The order-n matrix as its Taylor table: `taylor` holds d^gamma F / gamma!
    for |gamma| <= n in the canonical order, then 0, summed on first read, and
    `cells[i][j]` is the position of entry (i, j) in it, as `_layout` shares it."""
    F: Polynomial
    n: int
    row_labels: tuple[mi.MultiIndex, ...]
    col_labels: tuple[mi.MultiIndex, ...]
    cells: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def taylor(self) -> tuple[Polynomial, ...]:
        # d^gamma F/gamma! sums c*C(m, gamma) x^(m-gamma) over c*x^m; m -> m-gamma is one-to-one
        position = _layout(self.F.num_vars, self.n)[2]
        terms: list[dict] = [{} for _ in position]
        for mono, c in self.F.numerators.items():
            for gamma, rest, binom in mi.binomial_terms(mono, self.n):
                terms[position[gamma]][rest] = c * binom
        ring, den = self.F.ring, self.F.den
        zero = Polynomial.zero(ring)
        return tuple(Polynomial._over(ring, t, den) if t else zero for t in terms) + (zero,)

    @property
    def num_rows(self) -> int:
        return len(self.row_labels)

    @property
    def num_cols(self) -> int:
        return len(self.col_labels)

    @property
    def entries(self) -> tuple[tuple[Polynomial, ...], ...]:
        """The M x (N-1) grid of entries, read from the table through the cells."""
        return tuple(tuple(map(self.taylor.__getitem__, row)) for row in self.cells)


def shape(s: int, n: int) -> tuple[int, int]:
    """(M, N-1): rows and columns of the order-n matrix in s variables."""
    return math.comb(n + s - 1, s), math.comb(n + s, s) - 1


def _check_input(F: Polynomial, n: int) -> None:
    """The input errors of `build`, for callers that must report them first."""
    if F.is_zero():
        raise ValueError("the zero polynomial has no Jacobian matrix")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")


@functools.cache
def _layout(s: int, n: int):
    """The labels, the position of each gamma with |gamma| <= n in the Taylor
    table and the cells of a `HigherJacobian`, the zero's position one past
    the last; computed once per (s, n) and shared, so only read."""
    rows = tuple(mi.enumerate_indices(s, 0, n - 1))
    cols = tuple(mi.enumerate_indices(s, 1, n))
    position = {gamma: k for k, gamma in enumerate(mi.enumerate_indices(s, 0, n))}
    cells = tuple(
        tuple(position.get(tuple(a - b for a, b in zip(alpha, beta)), len(position))
              for alpha in cols)
        for beta in rows)
    return rows, cols, position, cells


def _taylor_at(F: Polynomial, point, degree: int | None = None) -> tuple[dict, int]:
    """The nonzero (d^gamma F / gamma!)(p) by gamma, |gamma| <= degree if given, at a
    rational p: the terms of F(x + p), as integer numerators over one scale S = L*q^D,
    L = F.den, q the lcm of the denominators of p, a = q*p and D = deg F.  The numerator
    at gamma sums c*C(m, gamma)*a^(m - gamma)*q^(D - |m - gamma|) over the numerators
    c*x^m of F.  An expansion that could hold more than MAX_EXPANSION_BITS bits, as
    bounded from the terms of F and the bits of q and a, is refused before it starts."""
    a, q = _lcd(point)
    if len(a) != F.num_vars:
        raise ValueError(f"point has {len(a)} coordinates, expected {F.num_vars}")
    D = max(map(sum, F.numerators), default=0)
    # a term c*x^m adds at most bits(c) + |m| + D*k bits to at most prod(m_i + 1) values:
    # C(m, gamma) <= 2^|m|, and q and every |a_i| are at most 2^k
    k = (max(q, *map(abs, a)) - 1).bit_length()
    most = math.inf if degree is None else math.comb(degree + len(a), len(a))
    bits = sum(min(math.prod(e + 1 for e in m), most) * (c.bit_length() + sum(m) + D * k)
               for m, c in F.numerators.items())
    if bits > MAX_EXPANSION_BITS:
        raise BudgetExceededError(
            f"expansion: F(x + p) could hold {bits:,} bits, over {MAX_EXPANSION_BITS:,}")
    return _collect((gamma, c * binom * q ** (D - sum(rest))
                     * math.prod(x**e for x, e in zip(a, rest) if e))
                    for mono, c in F.numerators.items()
                    for gamma, rest, binom in mi.binomial_terms(mono, degree)), F.den * q**D


def build(F: Polynomial, n: int) -> HigherJacobian:
    """The order-n Jacobian matrix of a nonzero polynomial, as its cached layout;
    more than MAX_CELLS cells are refused before the layout is built."""
    _check_input(F, n)
    if (cells := math.prod(shape(F.num_vars, n))) > MAX_CELLS:
        raise BudgetExceededError(f"matrix: {cells:,} cells, over {MAX_CELLS:,}")
    rows, cols, _, cells = _layout(F.num_vars, n)
    return HigherJacobian(F, n, rows, cols, cells)


def _shown(x: Fraction) -> str:
    """str(x), or its size where it has more digits than int() converts to a string."""
    with contextlib.suppress(ValueError):
        return str(x)
    return f"a {max(x.numerator.bit_length(), x.denominator.bit_length()):,}-bit number"


def _integer_rows_at(jac: HigherJacobian, point) -> tuple[list[list[int]], int]:
    """The evaluated matrix as int rows over d > 0, the lcd of its entries: each nonzero Taylor
    value sits in row 0, so `Polynomial._over` of them gives d; p must lie on the hypersurface."""
    values, scale = _taylor_at(jac.F, point, jac.n)
    if (value := values.get((0,) * jac.F.num_vars)) is not None:
        at = ", ".join(map(_shown, make_point(point)))
        raise PointNotOnHypersurfaceError(f"F({at}) = {_shown(Fraction(value, scale))} != 0")
    lowest = Polynomial._over(jac.F.ring, values, scale)
    table = [lowest.numerators.get(gamma, 0) for gamma in _layout(jac.F.num_vars, jac.n)[2]] + [0]
    return [list(map(table.__getitem__, row)) for row in jac.cells], lowest.den


def evaluate_at(jac: HigherJacobian, point) -> list[list[Fraction]]:
    """Entrywise evaluation, the `Fraction` view of `_integer_rows_at`."""
    rows, d = _integer_rows_at(jac, point)
    return [[Fraction(v, d) for v in row] for row in rows]


def rank_at(F: Polynomial, n: int, point) -> int:
    """Exact rank over Q of the evaluated order-n matrix: the number of
    pivots of its integer row echelon form, with no back-substitution."""
    return linalg.rank(_integer_rows_at(build(F, n), point)[0])


def is_singular(F: Polynomial, n: int, point) -> bool:
    """True iff the rank of the evaluated matrix falls below M."""
    M, _ = shape(F.num_vars, n)
    return rank_at(F, n, point) < M


def tangent_space(F: Polynomial, n: int, point) -> list[list[Fraction]]:
    """Kernel basis of the evaluated matrix at a non-singular point, read
    off its integer echelon form once back-substitution has cleared each
    pivot column above its pivot."""
    rows, _ = _integer_rows_at(build(F, n), point)
    basis = linalg.kernel_basis(rows, width=len(rows[0]))
    M, C = shape(F.num_vars, n)
    if C - len(basis) < M:
        raise SingularPointError(
            "the kernel identifies the higher tangent space only at non-singular points"
        )
    return basis


# -- minors --------------------------------------------------------------------


@contextlib.contextmanager
def _collector_paused():
    """Pause CPython's cyclic garbage collector, restoring on exit the state
    it had on entry: a nested pause, or one made with the collector already
    off, leaves it as it was, and so does an exception.  Applied to a
    function as `@_collector_paused()`.

    The minor table and the basis built from it are tens of thousands of
    dicts, tuples and Polynomials; each allocation counts towards the next
    collection, and every collection rescans all that survived the last.
    They hold no reference cycles, so reference counting frees them without
    the collector."""
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def maximal_minors(F: Polynomial, n: int) -> list[tuple[tuple[int, ...], Polynomial]]:
    """All C(N-1, M) maximal minors of the order-n matrix.

    Returned as (column positions, determinant) with 0-based positions, in
    ascending lexicographic order of the position tuple, zero minors
    included; this enumeration is what numbers the auxiliary variables
    u_1, u_2, ... downstream.  More than MAX_MINORS of them are refused, and so is
    a wedge that could hold more partial products, at most C(N-1, k) after k rows.

    Computed by expanding the wedge product of the rows over their nonzero
    entries, which shares work across minors and exploits the sparsity of
    the matrix; it reads the Taylor table through the cells.  The expansion
    runs on integers: the entries are numerators over d = F.den, a multiple of
    each entry's own denominator, and every
    exponent vector is packed by the engine's `groebner._Packing` under lex,
    with (M*deg F).bit_length() bits per field, so that a product of M
    entries, of degree at most M*deg F, cannot carry from one field into the
    next.  Lex, because K(1) = 0 there, so multiplying monomials is adding
    ints, and because it has the fewest fields, one per variable and one for
    the degree: at s = n = 3 a monomial fits in 28 bits, a one-digit CPython
    int, where grevlex needs 35.  Partial products are keyed by the bitmask
    of their columns.  Each minor is its numerators over d^M.

    Runs with the cyclic garbage collector paused (`_collector_paused`):
    the table allocates about one object per term of every minor and makes
    no reference cycles, and each collection would rescan all of it.
    """
    M, C = shape(F.num_vars, max(n, 0))  # an order below 1 is `build`'s error
    if (count := math.comb(C, M)) > MAX_MINORS:
        raise BudgetExceededError(f"minors: {count:,} maximal minors, over {MAX_MINORS:,}")
    if (peak := math.comb(C, min(M, C // 2))) > MAX_MINORS:
        raise BudgetExceededError(f"minors: up to {peak:,} partial products, over {MAX_MINORS:,}")
    jac = build(F, n)
    ring = F.ring
    K = _Packing(ring, lex(), (M * F.total_degree()).bit_length())
    # each Taylor coefficient as +entry and -entry, numerators over d = F.den
    signed = []
    for e in jac.taylor:
        plus = [(K[m], c * (F.den // e.den)) for m, c in e.numerators.items()]
        signed.append((plus, [(m, -c) for m, c in plus]))
    acc: dict[int, dict[int, int]] = {0: {0: 1}}
    for row in jac.cells:
        nonzero = [(j, 1 << j, signed[k]) for j, k in enumerate(row) if signed[k][0]]
        new: dict[int, dict[int, int]] = {}
        for mask, poly in acc.items():
            for j, bit, (plus, minus) in nonzero:
                if mask & bit:
                    continue
                # the sign of moving column j past the chosen columns above it
                entry = minus if (mask >> (j + 1)).bit_count() & 1 else plus
                target = new.setdefault(mask | bit, {})
                get = target.get
                for m1, c1 in poly.items():
                    for m2, c2 in entry:
                        m = m1 + m2
                        target[m] = get(m, 0) + c1 * c2
        # drop cancelled terms, and minors that cancelled to zero, in place
        for mask, poly in list(new.items()):
            if 0 in poly.values():
                poly = {m: c for m, c in poly.items() if c}
                if poly:
                    new[mask] = poly
                else:
                    del new[mask]
        acc = new
    # back to Polynomials, unpacking each distinct monomial once and freeing
    # each integer minor as it is converted
    scale, unpack = F.den**M, functools.cache(K.unpack)
    zero = Polynomial.zero(ring)
    table = []
    # the bit tuples run through the masks in the order of the column tuples
    masks = map(sum, combinations([1 << j for j in range(C)], M))
    for J, mask in zip(combinations(range(C), M), masks):
        poly = acc.pop(mask, None)
        table.append((J, zero if poly is None else
                      Polynomial._over(ring, {unpack(m): c for m, c in poly.items()}, scale)))
    return table


@_collector_paused()
def nash_ideal(F: Polynomial, n: int) -> Ideal:
    """The ideal generated by the maximal minors, as a reduced basis modulo <F>:
    the nonzero normal forms modulo F, made monic and with duplicates
    dropped, of the reduced grevlex basis of <F> + (minors).

    `buchberger` takes the generators one at a time and keeps its basis
    reduced, so each minor already in the ideal of those before it costs
    one reduction.  F is assumed irreducible (documented precondition, not
    verified).

    Runs, its `buchberger` call over the whole minor table included, with
    the cyclic garbage collector paused, as `maximal_minors` does and for
    the same reason; the table is freed on return."""
    order = grevlex()
    gens: list[Polynomial] = []
    for g in buchberger([F] + [minor for _, minor in maximal_minors(F, n)], order, F.ring):
        nf = normal_form(g, [F], order)
        if nf.is_zero():
            continue
        nf = Polynomial._over(nf.ring, nf.numerators, nf.numerators[nf.leading_monomial(order)])
        if nf not in gens:
            gens.append(nf)
    return Ideal(F.ring, gens)
