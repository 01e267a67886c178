"""Multi-index arithmetic and the canonical enumeration of derivative indices.

A multi-index is a tuple of non-negative integers, one entry per ambient
variable.  Multi-indices label partial derivatives, monomials, and the rows
and columns of higher-order Jacobian matrices, so a single canonical
enumeration order is used everywhere: degree ascending, and within equal
degree descending graded reverse lexicographic (for two variables this is
x, y, x^2, xy, y^2, ...).
"""

from __future__ import annotations

import math
from typing import Iterator

MultiIndex = tuple[int, ...]


def validate(alpha: MultiIndex) -> None:
    if len(alpha) == 0:
        raise ValueError("multi-index must have at least one entry")
    if any(a < 0 or not isinstance(a, int) for a in alpha):
        raise ValueError(f"multi-index entries must be non-negative integers: {alpha}")


def _check_same_length(alpha: MultiIndex, beta: MultiIndex) -> None:
    if len(alpha) != len(beta):
        raise ValueError(
            f"multi-index length mismatch: {len(alpha)} vs {len(beta)}"
        )


def leq(alpha: MultiIndex, beta: MultiIndex) -> bool:
    """Componentwise alpha <= beta."""
    _check_same_length(alpha, beta)
    return all(a <= b for a, b in zip(alpha, beta))


def sub(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    """alpha - beta; requires beta <= alpha."""
    if not leq(beta, alpha):
        raise ValueError(f"{beta} is not componentwise <= {alpha}")
    return tuple(a - b for a, b in zip(alpha, beta))


def factorial(alpha: MultiIndex) -> int:
    """alpha! = alpha_1! * ... * alpha_s!."""
    result = 1
    for a in alpha:
        result *= math.factorial(a)
    return result


def multi_binomial(alpha: MultiIndex, beta: MultiIndex) -> int:
    """Product of componentwise binomial coefficients; requires beta <= alpha."""
    if not leq(beta, alpha):
        raise ValueError(f"binomial undefined: {beta} is not <= {alpha}")
    result = 1
    for a, b in zip(alpha, beta):
        result *= math.comb(a, b)
    return result


def canonical_key(alpha: MultiIndex) -> tuple:
    """Sort key realizing the canonical enumeration order.

    Degree is the primary key; within a degree the order is descending
    graded reverse lexicographic: of two exponent vectors the one whose
    last differing entry is smaller comes first.  For s=2 this enumerates
    x, y, x^2, xy, y^2; for s=3 the degree-2 block is
    x^2, xy, y^2, xz, yz, z^2.
    """
    return (sum(alpha), tuple(reversed(alpha)))


def iter_degree(s: int, d: int) -> Iterator[MultiIndex]:
    """All multi-indices of length s and total degree d (unspecified order)."""
    if s == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in iter_degree(s - 1, d - first):
            yield (first,) + rest


def enumerate_indices(s: int, d_min: int, d_max: int) -> list[MultiIndex]:
    """All alpha of length s with d_min <= |alpha| <= d_max, canonically ordered."""
    if s <= 0:
        raise ValueError("need at least one variable")
    if d_min > d_max:
        raise ValueError(f"empty degree range: {d_min} > {d_max}")
    out: list[MultiIndex] = []
    for d in range(d_min, d_max + 1):
        out.extend(sorted(iter_degree(s, d), key=canonical_key))
    return out
