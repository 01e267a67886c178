"""Exact linear algebra over Q: rank, RREF and kernels, all read off one
fraction-free Gauss-Jordan elimination (`_eliminate`) of the rows cleared of
denominators.  `hjac.det` runs the same elimination on polynomial rows to
get determinants."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import floordiv
from typing import Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def _eliminate(work: list[list], divide=floordiv) -> tuple[list[int], int, object]:
    """Fraction-free Gauss-Jordan (Bareiss) elimination of `work` in place,
    over an integral domain whose exact division is `divide`: at each pivot p,
    every other row becomes (p * row - row[col] * pivot row) / previous pivot.

    Pivot columns end cleared above and below, every pivot entry ends equal
    to the last pivot, and rows past the rank end zero.  Returns the pivot
    columns, the sign of the row permutation and the last pivot, which for a
    square matrix of full rank is that sign times the determinant."""
    m = len(work)
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(len(work[0]) if work else 0):
        r = len(pivots)
        if r == m:
            break
        pivot = next((i for i in range(r, m) if work[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
            sign = -sign
        top = work[r]
        p = top[col]
        for i, row in enumerate(work):
            if i != r:
                f = row[col]
                if prev == 1:
                    row[:] = [p * a - f * b for a, b in zip(row, top)]
                else:
                    row[:] = [divide(p * a - f * b, prev) for a, b in zip(row, top)]
        pivots.append(col)
        prev = p
    return pivots, sign, prev


def _cleared(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, and the product of the lcms."""
    work, scale = [], 1
    for row in rows:
        frs = [Fraction(x) for x in row]
        denom = lcm(*(c.denominator for c in frs))
        scale *= denom
        work.append([c.numerator * (denom // c.denominator) for c in frs])
    return work, scale


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank: the number of pivots."""
    return len(_eliminate(_cleared(rows)[0])[0])


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns, exact over Q."""
    work, _ = _cleared(rows)
    pivots, _, last = _eliminate(work)
    return [[Fraction(x, last) for x in row] for row in work], pivots


def kernel_basis(rows: Sequence[Sequence], width: int | None = None) -> list[Vector]:
    """Basis of the right kernel {v : A v = 0}, one vector per free column."""
    if not rows:
        if width is None:
            raise ValueError("kernel of an empty matrix needs an explicit width")
        return [[Fraction(i == j) for j in range(width)] for i in range(width)]
    n = len(rows[0])
    R, pivots = rref(rows)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -R[r][f]
        basis.append(v)
    return basis
