"""Standard-monomial counting for monomial ideals, and the local Hilbert
function of a hypersurface with the dimension criterion it supports.

`graded_dim(a, n)` counts monomials of degree n outside a monomial ideal,
i.e. dim m^n/m^(n+1) for the quotient by the ideal.  For a hypersurface
through the origin the initial ideal is generated by one monomial of degree
e = ord_0 F, the least total degree of the terms of F, so the same count
has the closed form C(n+s-1, s-1) - C(n-e+s-1, s-1), the second term 0
for n < e.  At a point p of V(F), e = ord_p F is read from the Taylor
expansion of F at p in `hjac`, and the same closed form gives a
dimension-based non-singularity test equivalent to the rank criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import multiindex as mi
from .groebner import BudgetExceededError
from .hjac import PointNotOnHypersurfaceError, _check_input, _taylor_at
from .polynomial import Polynomial

MAX_MONOMIALS = 250_000  # the cap on graded_dim's degree-n monomials; s=3 at n=705 has 249,571


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, stored by its minimal generating exponents."""

    s: int
    generators: tuple[mi.MultiIndex, ...]

    def __init__(self, s: int, generators):
        if s < 1:
            raise ValueError("need at least one variable")
        gens = sorted(set(tuple(g) for g in generators), key=mi.canonical_key)
        for g in gens:
            if len(g) != s:
                raise ValueError(f"generator {g} has wrong length for {s} variables")
            mi.validate(g)
        minimal = [g for g in gens if not any(h != g and mi.leq(h, g) for h in gens)]
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "generators", tuple(minimal))

    def contains_monomial(self, alpha: mi.MultiIndex) -> bool:
        return any(mi.leq(g, alpha) for g in self.generators)


def graded_dim(a: MonomialIdeal, n: int) -> int:
    """Number of degree-n monomials not in the ideal: dim m^n/m^(n+1).
    More than MAX_MONOMIALS monomials of degree n are refused before any is enumerated."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    if (count := math.comb(n + a.s - 1, a.s - 1)) > MAX_MONOMIALS:
        raise BudgetExceededError(
            f"hilbert: {count:,} monomials of degree {n}, over {MAX_MONOMIALS:,}")
    return sum(1 for alpha in mi.iter_degree(a.s, n) if not a.contains_monomial(alpha))


def _graded_count(s: int, n: int, e: int) -> int:
    """dim m^n/m^(n+1) at a point where F in s variables has order e: the
    degree-n monomials outside one monomial of degree e."""
    return math.comb(n + s - 1, s - 1) - (math.comb(n - e + s - 1, s - 1) if n >= e else 0)


def local_hilbert(F: Polynomial, n: int) -> int:
    """dim m^n/m^(n+1) of the local ring of V(F) at the origin.

    The initial ideal of F at the origin is principal, generated by a
    monomial of degree e = ord_0 F, so this is the count of degree-n
    monomials outside it: C(n+s-1, s-1) - C(n-e+s-1, s-1), where the second
    term is 0 when n < e.
    """
    if F.is_zero():
        raise ValueError("F must be nonzero")
    if (0,) * F.num_vars in F.numerators:
        raise PointNotOnHypersurfaceError("F(0) != 0: the origin is not on the hypersurface")
    if n < 0:
        raise ValueError("degree must be non-negative")
    return _graded_count(F.num_vars, n, min(map(sum, F.numerators)))


def nonsingular_by_dimension(F: Polynomial, n: int, point) -> bool:
    """Dimension criterion: p is non-singular iff dim m_p/m_p^(n+1), the sum over
    k = 1..n of the local Hilbert function, is C(n+s-1, s-1) - 1.  In the order e
    of F at p, the least degree of F(x + p), it is C(n+s, s) - 1 - C(n-e+s, s), the
    last term 0 for n < e: C(n+s-1, s-1) - 1 at e = 1 and larger for e >= 2, each
    term being at least its e = 1 value and the k = 1 term s, not s - 1: min(e, 2)
    decides, so F(x + p) is expanded to degree 1 only."""
    _check_input(F, n)
    coefficients, _ = _taylor_at(F, point, 1)
    if (0,) * F.num_vars in coefficients:
        raise PointNotOnHypersurfaceError("point is not on the hypersurface")
    s = F.num_vars
    e = min(map(sum, coefficients), default=2)
    total = math.comb(n + s, s) - 1 - (math.comb(n - e + s, s) if n >= e else 0)
    return total == math.comb(n + s - 1, s - 1) - 1
