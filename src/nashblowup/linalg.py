"""Exact linear algebra over Q: rank, RREF and kernels, all read off one
integer Gauss-Jordan elimination (`_eliminate`) of the rows cleared of
denominators (a row of ints, as `hjac` hands it, is taken as it is), which
makes each row it updates primitive.  Only exact rational scalars enter."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .polynomial import _coerce_scalar

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def _eliminate(work: list[list[int]]) -> list[int]:
    """Gauss-Jordan elimination of integer rows in place.  At each pivot p
    of the pivot row `top`, every other row whose entry f in the pivot
    column is nonzero becomes (p/g)*row - (f/g)*top, g = gcd(p, f), divided
    by the gcd of its entries; a row with f = 0 is left as it is.

    Pivot columns end cleared above and below, and rows past the rank end
    zero.  Returns the pivot columns."""
    m = len(work)
    pivots: list[int] = []
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
            f = row[col]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(row, top)]
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    return pivots


def _cleared(rows: Sequence[Sequence]) -> list[list[int]]:
    """Each row times the lcm of its denominators, a row of ints as it is
    (`_eliminate` never writes into a row); ragged rows and inexact scalars raise."""
    width = len(rows[0]) if rows else 0
    work = []
    for row in rows:
        if len(row) != width:
            raise ValueError(f"rows of widths {width} and {len(row)} in one matrix")
        types = {*map(type, row)}
        if not types <= {int}:
            exact = row if types <= {int, Fraction} else map(_coerce_scalar, row)
            ratios = [x.as_integer_ratio() for x in exact]
            denom = lcm(*[d for _, d in ratios])
            row = [n for n, _ in ratios] if denom == 1 else [n * (denom // d) for n, d in ratios]
        work.append(row)
    return work


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank: the number of pivots."""
    return len(_eliminate(_cleared(rows)))


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns, exact over Q."""
    work = _cleared(rows)
    pivots = _eliminate(work)
    # each pivot row divided by its pivot, one shared zero for the zero entries
    zero = Fraction(0)
    R = []
    for row, col in zip(work, pivots):
        p = row[col]
        R.append([Fraction(x, p) if x else zero for x in row])
    R += [[zero] * len(row) for row in work[len(pivots):]]
    return R, pivots


def kernel_basis(rows: Sequence[Sequence], width: int | None = None) -> list[Vector]:
    """Basis of the right kernel {v : A v = 0}, one vector per free column f,
    read off the eliminated rows: v_f = 1 and v_p = -a_rf / a_rp at pivot p of row r."""
    if not rows:
        if width is None:
            raise ValueError("kernel of an empty matrix needs an explicit width")
        return [[Fraction(i == j) for j in range(width)] for i in range(width)]
    work = _cleared(rows)
    n = len(work[0])
    if width is not None and width != n:
        raise ValueError(f"width {width} given for rows of width {n}")
    pivots = _eliminate(work)
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for f in [j for j in range(n) if j not in pivots]:
        v = [zero] * n
        v[f] = one
        for row, p in zip(work, pivots):
            if row[f]:
                v[p] = Fraction(-row[f], row[p])
        basis.append(v)
    return basis
