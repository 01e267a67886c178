"""Exact linear algebra over Q: rank, RREF and kernels, all read off one
fraction-free Gauss-Jordan elimination (`_eliminate`) of the rows cleared of
denominators."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def _eliminate(work: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan (Bareiss) elimination of integer rows in
    place: at each pivot p, every other row becomes
    (p * row - row[col] * pivot row) // previous pivot, an exact division.

    Pivot columns end cleared above and below, every pivot entry ends equal
    to the last pivot, and rows past the rank end zero.  Returns the pivot
    columns and the last pivot."""
    m = len(work)
    pivots: list[int] = []
    prev = 1
    for col in range(len(work[0]) if work else 0):
        r = len(pivots)
        if r == m:
            break
        pivot = next((i for i in range(r, m) if work[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        p = top[col]
        for i, row in enumerate(work):
            if i != r:
                f = row[col]
                if f == 0 and p == prev:
                    continue  # (p * row - 0 * top) // prev is the row itself
                if prev == 1:
                    row[:] = [p * a - f * b for a, b in zip(row, top)]
                else:
                    row[:] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        pivots.append(col)
        prev = p
    return pivots, prev


def _cleared(rows: Sequence[Sequence]) -> list[list[int]]:
    """Each row times the lcm of its denominators."""
    work = []
    for row in rows:
        frs = [Fraction(x) for x in row]
        denom = lcm(*(c.denominator for c in frs))
        work.append([c.numerator * (denom // c.denominator) for c in frs])
    return work


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank: the number of pivots."""
    return len(_eliminate(_cleared(rows))[0])


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns, exact over Q."""
    work = _cleared(rows)
    pivots, last = _eliminate(work)
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
