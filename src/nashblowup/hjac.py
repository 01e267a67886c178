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
from .groebner import Ideal, normal_form
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
    def ring(self):
        return self.F.ring

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


def jac1_equals_classical(F: Polynomial) -> bool:
    """Check that the order-1 matrix is the row of first partials."""
    jac = build(F, 1)
    s = F.num_vars
    if jac.num_rows != 1 or jac.num_cols != s:
        return False
    for j in range(s):
        alpha = tuple(1 if i == j else 0 for i in range(s))
        if jac.entries[0][jac.col_labels.index(alpha)] != F.derivative(alpha):
            return False
    return True


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


def dim_Tn(F: Polynomial, n: int, point) -> int:
    """dim of the order-n tangent space at a point of X, singular or not."""
    _, cols = shape(F.num_vars, n)
    return cols - rank_at(F, n, point)


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
    ascending lexicographic order of the position tuple; this enumeration is
    what numbers the auxiliary variables u_1, u_2, ... downstream.

    Computed by expanding the wedge product of the rows over their nonzero
    entries, which shares work across minors and exploits the sparsity of
    the matrix; dense fraction-free elimination (see `det`) serves as the
    independent cross-check.
    """
    jac = build(F, n)
    M, C = jac.num_rows, jac.num_cols
    if C < M:
        raise ValueError("matrix has fewer columns than rows")
    ring = F.ring
    zero = Polynomial.zero(ring)
    acc: dict[tuple[int, ...], Polynomial] = {(): Polynomial.constant(ring, 1)}
    for row in jac.entries:
        nonzero = [(j, p) for j, p in enumerate(row) if not p.is_zero()]
        new: dict[tuple[int, ...], Polynomial] = {}
        for subset, coeff in acc.items():
            for j, p in nonzero:
                if j in subset:
                    continue
                above = sum(1 for s_ in subset if s_ > j)
                term = coeff * p
                if above % 2:
                    term = -term
                key = tuple(sorted(subset + (j,)))
                prev = new.get(key)
                new[key] = term if prev is None else prev + term
        acc = {k: v for k, v in new.items() if not v.is_zero()}
    return [(J, acc.get(J, zero)) for J in combinations(range(C), M)]


def nash_ideal(F: Polynomial, n: int) -> Ideal:
    """The ideal generated by the maximal minors, reduced modulo <F>.

    Generators are the nonzero normal forms of the minors w.r.t. {F} under
    grevlex, with duplicates dropped; F is assumed irreducible (documented
    precondition, not verified).
    """
    order = grevlex()
    gens: list[Polynomial] = []
    seen = set()
    for _, minor in maximal_minors(F, n):
        if minor.is_zero():
            continue
        nf = normal_form(minor, [F], order)
        if nf.is_zero() or nf in seen:
            continue
        seen.add(nf)
        gens.append(nf)
    return Ideal(F.ring, gens)
