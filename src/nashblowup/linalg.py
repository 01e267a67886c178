"""Exact linear algebra over Q: rank, RREF and kernels, read off an integer
elimination of the rows cleared of denominators (a row of ints, as `hjac`
hands it, is taken as it is).  Forward elimination (`_eliminate`) brings
the rows to row echelon form, which is all `rank` needs; `_reduced` and
`kernel_basis` then clear each pivot column above its pivot in one pass
(`_back_substitute`).  Both steps make each row they update primitive.
`_reduced` keeps the RREF as ints over one denominator."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .polynomial import _coerce_scalar

Vector = list[Fraction]


def _clear_column(work: list[list[int]], rows: range, top: list[int], col: int) -> None:
    """Clear column col of work[i], i in rows, against the pivot row top:
    a row whose entry f there is nonzero becomes (p/g)*row - (f/g)*top,
    p = top[col] and g = gcd(p, f), divided by the gcd of its entries; a
    row with f = 0 is left as it is."""
    p = top[col]
    for i in rows:
        row = work[i]
        f = row[col]
        if f:
            g = gcd(p, f)
            a, b = p // g, f // g
            row = [a * x - b * y for x, y in zip(row, top)]
            g = gcd(*row)
            work[i] = [x // g for x in row] if g > 1 else row


def _eliminate(work: list[list[int]]) -> list[int]:
    """Forward elimination of integer rows in place, to row echelon form:
    each pivot column is cleared below its pivot only.  Rows past the rank
    end zero.  Returns the pivot columns."""
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
        _clear_column(work, range(r + 1, m), work[r], col)
        pivots.append(col)
    return pivots


def _back_substitute(work: list[list[int]], pivots: list[int]) -> None:
    """From the last pivot to the first, clear each pivot column in the
    rows above its pivot, taking `_eliminate`'s echelon rows to a reduced
    form: each pivot column is then zero but for its pivot."""
    for r in reversed(range(len(pivots))):
        _clear_column(work, range(r), work[r], pivots[r])


def _cleared(rows: Sequence[Sequence]) -> list[list[int]]:
    """Each row times the lcm of its denominators, a row of ints as it is
    (`_clear_column` never writes into a row, it rebinds it); ragged rows
    and inexact scalars raise."""
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
    """Exact rank: the number of pivots of the echelon form."""
    return len(_eliminate(_cleared(rows)))


def _reduced(rows: Sequence[Sequence]) -> tuple[list[list[int]], int, list[int]]:
    """The nonzero RREF rows as ints over their lcd d > 0, so that each pivot
    entry is d, and the pivot columns: equal row spaces give equal results.
    Row/p, p its pivot, is row/g over |p|/g in lowest terms, g = gcd(row)."""
    work = _cleared(rows)
    pivots = _eliminate(work)
    _back_substitute(work, pivots)
    d = lcm(*(abs(row[col]) // gcd(*row) for row, col in zip(work, pivots)))
    return [[x * d // row[col] for x in row] for row, col in zip(work, pivots)], d, pivots


def kernel_basis(rows: Sequence[Sequence], width: int | None = None) -> list[Vector]:
    """Basis of the right kernel {v : A v = 0}, one vector per free column f,
    read off the reduced rows: v_f = 1 and v_p = -a_rf / a_rp at pivot p of row r."""
    if not rows:
        if width is None:
            raise ValueError("kernel of an empty matrix needs an explicit width")
        return [[Fraction(i == j) for j in range(width)] for i in range(width)]
    work = _cleared(rows)
    n = len(work[0])
    if width is not None and width != n:
        raise ValueError(f"width {width} given for rows of width {n}")
    pivots = _eliminate(work)
    _back_substitute(work, pivots)
    zero, one = Fraction(0), Fraction(1)
    basis = []
    pivot_set = set(pivots)
    for f in [j for j in range(n) if j not in pivot_set]:
        v = [zero] * n
        v[f] = one
        for row, p in zip(work, pivots):
            if row[f]:
                v[p] = Fraction(-row[f], row[p])
        basis.append(v)
    return basis
