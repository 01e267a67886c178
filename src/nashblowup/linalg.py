"""Exact linear algebra over Q: fraction-free rank, RREF, kernels."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def _as_fraction_matrix(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def _bareiss(rows: Sequence[Sequence]) -> tuple[int, Fraction]:
    """Fraction-free (Bareiss) elimination on the rows cleared of
    denominators: (rank, determinant), the latter 0 unless square."""
    work: list[list[int]] = []
    scale = 1
    for row in rows:
        frs = [Fraction(x) for x in row]
        denom = lcm(*(c.denominator for c in frs))
        scale *= denom
        work.append([c.numerator * (denom // c.denominator) for c in frs])
    m, n = len(work), len(work[0])
    prev = 1
    sign = 1
    r = 0
    col = 0
    while r < m and col < n:
        pivot = next((i for i in range(r, m) if work[i][col]), None)
        if pivot is None:
            col += 1
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
            sign = -sign
        for i in range(r + 1, m):
            for j in range(col + 1, n):
                work[i][j] = (work[r][col] * work[i][j] - work[i][col] * work[r][j]) // prev
            work[i][col] = 0
        prev = work[r][col]
        r += 1
        col += 1
    return r, Fraction(sign * prev, scale) if r == m == n else Fraction(0)


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank via fraction-free (Bareiss) elimination on cleared rows."""
    return _bareiss(rows)[0] if rows else 0


def det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a nonempty square matrix over Q."""
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    return _bareiss(rows)[1]


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns, exact over Q."""
    work = _as_fraction_matrix(rows)
    if not work:
        return [], []
    m, n = len(work), len(work[0])
    pivots: list[int] = []
    r = 0
    for col in range(n):
        if r == m:
            break
        pivot = next((i for i in range(r, m) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        pv = work[r][col]
        work[r] = [x / pv for x in work[r]]
        for i in range(m):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return work, pivots


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
