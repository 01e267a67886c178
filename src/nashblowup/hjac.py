"""The higher-order Jacobian matrix of a hypersurface and everything read
off from it: singularity tests by rank, higher tangent spaces as kernels,
maximal minors, and the Nash-blowup ideal.

For F in s variables and order n, the matrix has M = C(n+s-1, s) rows
labelled by multi-indices beta with |beta| <= n-1 and N-1 = C(n+s, s) - 1
columns labelled by alpha with 1 <= |alpha| <= n, both in the canonical
enumeration order.  The (beta, alpha) entry is d^(alpha-beta)F / (alpha-beta)!
when alpha >= beta componentwise and 0 otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import linalg
from . import multiindex as mi
from .groebner import Ideal, incremental_basis, normal_form
from .polynomial import Polynomial, grevlex, make_point


class PointNotOnHypersurfaceError(ValueError):
    """The given point does not satisfy F(p) = 0."""


class SingularPointError(ValueError):
    """The operation needs a non-singular point of the hypersurface."""


@dataclass(frozen=True)
class HigherJacobian:
    F: Polynomial
    n: int
    row_labels: tuple[mi.MultiIndex, ...]
    col_labels: tuple[mi.MultiIndex, ...]
    entries: tuple[tuple[Polynomial, ...], ...]

    @property
    def num_rows(self) -> int:
        return len(self.row_labels)

    @property
    def num_cols(self) -> int:
        return len(self.col_labels)

    def entry(self, beta: mi.MultiIndex, alpha: mi.MultiIndex) -> Polynomial:
        i = self.row_labels.index(tuple(beta))
        j = self.col_labels.index(tuple(alpha))
        return self.entries[i][j]


def shape(s: int, n: int) -> tuple[int, int]:
    """(M, N-1): rows and columns of the order-n matrix in s variables."""
    return math.comb(n + s - 1, s), math.comb(n + s, s) - 1


def _check_input(F: Polynomial, n: int) -> None:
    """The input errors of `build`, for callers that must report them first."""
    if F.is_zero():
        raise ValueError("the zero polynomial has no Jacobian matrix")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")


def build(F: Polynomial, n: int) -> HigherJacobian:
    """Construct the order-n Jacobian matrix of a nonzero polynomial."""
    _check_input(F, n)
    s = F.num_vars
    rows = tuple(mi.enumerate_indices(s, 0, n - 1))
    cols = tuple(mi.enumerate_indices(s, 1, n))
    zero = Polynomial.zero(F.ring)
    entries = []
    cache: dict[mi.MultiIndex, Polynomial] = {}
    for beta in rows:
        row = []
        for alpha in cols:
            if mi.leq(beta, alpha):
                diff = mi.sub(alpha, beta)
                if diff not in cache:
                    cache[diff] = F.taylor_coeff(diff)
                row.append(cache[diff])
            else:
                row.append(zero)
        entries.append(tuple(row))
    return HigherJacobian(F, n, rows, cols, tuple(entries))


def evaluate_at(jac: HigherJacobian, point) -> list[list[Fraction]]:
    """Entrywise evaluation; the point must lie on the hypersurface."""
    point = make_point(point)
    value = jac.F.evaluate(point)
    if value != 0:
        raise PointNotOnHypersurfaceError(
            f"F{tuple(map(str, point))} = {value} != 0"
        )
    # `build` shares one Polynomial per Taylor coefficient: evaluate each once
    distinct = {id(e): e for row in jac.entries for e in row}
    values = {k: e.evaluate(point) for k, e in distinct.items()}
    return [[values[id(e)] for e in row] for row in jac.entries]


def rank_at(F: Polynomial, n: int, point) -> int:
    """Exact rank over Q of the evaluated order-n matrix."""
    return linalg.rank(evaluate_at(build(F, n), point))


def is_singular(F: Polynomial, n: int, point) -> bool:
    """True iff the rank of the evaluated matrix falls below M."""
    M, _ = shape(F.num_vars, n)
    return rank_at(F, n, point) < M


def tangent_space(F: Polynomial, n: int, point) -> list[list[Fraction]]:
    """Kernel basis of the evaluated matrix at a non-singular point."""
    matrix = evaluate_at(build(F, n), point)
    basis = linalg.kernel_basis(matrix, width=len(matrix[0]))
    M, C = shape(F.num_vars, n)
    if C - len(basis) < M:
        raise SingularPointError(
            "the kernel identifies the higher tangent space only at non-singular points"
        )
    return basis


# -- determinants and minors ---------------------------------------------------


def divexact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact polynomial division f / g; raises if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return f
    order = grevlex()
    keyf = order.key_func(f.ring)
    g_lt = max(g.terms, key=keyf)
    g_lc = g.terms[g_lt]
    work = dict(f.terms)
    quotient: dict = {}
    while work:
        lt = max(work, key=keyf)
        if not all(a <= b for a, b in zip(g_lt, lt)):
            raise ValueError("inexact polynomial division")
        qm = tuple(b - a for a, b in zip(g_lt, lt))
        qc = work[lt] / g_lc
        quotient[qm] = qc
        for m, v in g.terms.items():
            mm = tuple(a + b for a, b in zip(m, qm))
            acc = work.get(mm, Fraction(0)) - qc * v
            if acc:
                work[mm] = acc
            elif mm in work:
                del work[mm]
    return Polynomial(f.ring, quotient)


def det(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square polynomial matrix by the fraction-free
    elimination of `linalg`, dividing exactly with `divexact`."""
    size = len(matrix)
    if size == 0:
        raise ValueError("empty matrix")
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix is not square")
    pivots, sign, last = linalg._eliminate([list(row) for row in matrix], divexact)
    return sign * last if len(pivots) == size else Polynomial.zero(matrix[0][0].ring)


def maximal_minors(F: Polynomial, n: int) -> list[tuple[tuple[int, ...], Polynomial]]:
    """All C(N-1, M) maximal minors of the order-n matrix.

    Returned as (column positions, determinant) with 0-based positions, in
    ascending lexicographic order of the position tuple, zero minors
    included; this enumeration is what numbers the auxiliary variables
    u_1, u_2, ... downstream.

    Computed by expanding the wedge product of the rows over their nonzero
    entries, which shares work across minors and exploits the sparsity of
    the matrix; dense fraction-free elimination (see `det`) serves as the
    independent cross-check.  The expansion runs on integers: the entries
    are scaled by the common denominator d of their coefficients, and every
    exponent vector is packed into one int with (M*deg F).bit_length() bits
    per variable, so that a product of M entries, of degree at most
    M*deg F, cannot carry from one variable's field into the next and
    multiplying monomials is adding ints.  Partial products are keyed by the
    bitmask of their columns.  Each coefficient is divided by d^M at the end.
    """
    jac = build(F, n)
    M, C = jac.num_rows, jac.num_cols
    if C < M:
        raise ValueError("matrix has fewer columns than rows")
    ring = F.ring
    bits = (M * F.total_degree()).bit_length()
    shifts = [bits * i for i in range(len(ring))]
    # `build` shares one Polynomial per Taylor coefficient: convert each once,
    # as +entry and -entry over the common denominator d
    distinct = {id(e): e for row in jac.entries for e in row if e.terms}
    d = math.lcm(*(c.denominator for e in distinct.values() for c in e.terms.values()))
    signed = {}
    for key, e in distinct.items():
        plus = [(sum(x << sh for x, sh in zip(m, shifts)), c.numerator * (d // c.denominator))
                for m, c in e.terms.items()]
        signed[key] = (plus, [(m, -c) for m, c in plus])
    acc: dict[int, dict[int, int]] = {0: {0: 1}}
    for row in jac.entries:
        nonzero = [(j, 1 << j, signed[id(e)]) for j, e in enumerate(row) if e.terms]
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
    # back to Polynomials, converting each distinct coefficient and monomial
    # once and freeing each integer minor as it is converted
    scale = d**M
    field = (1 << bits) - 1
    fractions: dict[int, Fraction] = {}
    monomials: dict[int, tuple[int, ...]] = {}
    zero = Polynomial.zero(ring)
    table = []
    # the bit tuples run through the masks in the order of the column tuples
    masks = map(sum, combinations([1 << j for j in range(C)], M))
    for J, mask in zip(combinations(range(C), M), masks):
        poly = acc.pop(mask, None)
        if poly is None:
            table.append((J, zero))
            continue
        terms = {}
        for m, c in poly.items():
            frac = fractions.get(c)
            if frac is None:
                frac = fractions[c] = Fraction(c, scale)
            mono = monomials.get(m)
            if mono is None:
                mono = monomials[m] = tuple((m >> sh) & field for sh in shifts)
            terms[mono] = frac
        table.append((J, Polynomial._from_terms(ring, terms)))
    return table


def nash_ideal(F: Polynomial, n: int) -> Ideal:
    """The ideal generated by the maximal minors, as a reduced basis modulo <F>.

    Generators are the nonzero normal forms modulo F, made monic and with
    duplicates dropped, of the reduced grevlex basis of <F> + (minors); that
    basis is built by `incremental_basis`, so each minor in the ideal of
    those before it costs one reduction.  F is assumed irreducible
    (documented precondition, not verified).
    """
    order = grevlex()
    minors = [minor for _, minor in maximal_minors(F, n)]
    gens: list[Polynomial] = []
    for g in incremental_basis([F] + minors, order, F.ring):
        nf = normal_form(g, [F], order)
        if nf.is_zero():
            continue
        nf = nf.scalar_mul(1 / nf.terms[nf.leading_monomial(order)])
        if nf not in gens:
            gens.append(nf)
    return Ideal(F.ring, gens)
