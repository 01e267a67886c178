"""Sparse multivariate polynomials with exact rational coefficients.

Polynomials live in a ring given by an ordered tuple of variable names and
store a map from exponent tuple to nonzero int numerator over one positive
`den`, in lowest terms; the engine reads and builds that form directly, and
`terms` is the Fractions' view of it.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, Mapping, Union

from . import multiindex as mi

Scalar = Union[int, Fraction]
Ring = tuple[str, ...]
Point = tuple[Fraction, ...]


class RingMismatchError(ValueError):
    """Operands belong to different polynomial rings."""


def _coerce_scalar(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (int, Rational)):
        return Fraction(c)
    raise TypeError(f"not an exact rational scalar: {c!r}")


def make_point(coords: Iterable) -> Point:
    return tuple(_coerce_scalar(c) for c in coords)


def _collect(pairs: Iterable[tuple[tuple[int, ...], Scalar]]) -> dict:
    """{monomial: sum of its coefficients} over (monomial, coefficient)
    pairs, without the monomials whose sum is zero.  Monomials keep the
    order of their first pairs; one whose running sum hits zero is dropped,
    and goes last if it returns."""
    out: dict = {}
    for mono, c in pairs:
        acc = out.get(mono)
        if acc is not None:
            c += acc
        if c:
            out[mono] = c
        elif acc is not None:
            del out[mono]
    return out


def _fresh(name: str, taken) -> str:
    """`name`, or `name_0`, `name_1`, ...: the first one not in `taken`."""
    candidate = name
    k = 0
    while candidate in taken:
        candidate = f"{name}_{k}"
        k += 1
    return candidate


def _ring(names: Iterable[str]) -> Ring:
    """`names` as a ring, refused when empty or with a name twice."""
    ring = tuple(names)
    if not ring:
        raise ValueError("ring needs at least one variable")
    if len(set(ring)) != len(ring):
        raise ValueError(f"duplicate variable names: {ring}")
    return ring


class Polynomial:
    """An element of Q[x_1, ..., x_s], stored sparsely; equal ones store equal (numerators, den)."""

    __slots__ = ("ring", "numerators", "den")

    def __init__(self, ring: Iterable[str], terms: Mapping[tuple, Scalar] | None = None):
        ring = _ring(ring)
        pairs = []
        if terms:
            s = len(ring)
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != s:
                    raise ValueError(f"exponent tuple {mono} has wrong length for ring {ring}")
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in {mono}")
                pairs.append((mono, _coerce_scalar(coeff)))
        den = lcm(*(c.denominator for _, c in pairs))
        canonical = Polynomial._over(
            ring, _collect((m, c.numerator * (den // c.denominator)) for m, c in pairs), den)
        self.ring, self.numerators, self.den = ring, canonical.numerators, canonical.den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _over(ring: Ring, numerators: dict[tuple[int, ...], int], den: int) -> "Polynomial":
        """numerators/den in lowest terms: both divided by their gcd, den made
        positive.  Trusted: `ring` a valid tuple of names, `numerators` a dict
        of exponent tuples of its length to nonzero ints, taken without
        copying or checking, and den a nonzero int."""
        if den != 1:
            g = gcd(den, *numerators.values())
            g = -g if den < 0 else g
            if g != 1:
                numerators, den = {m: v // g for m, v in numerators.items()}, den // g
        out = Polynomial.__new__(Polynomial)
        out.ring, out.numerators, out.den = ring, numerators, den
        return out

    @staticmethod
    def zero(ring: Iterable[str]) -> "Polynomial":
        return Polynomial(ring, {})

    @staticmethod
    def constant(ring: Iterable[str], c: Scalar) -> "Polynomial":
        ring = tuple(ring)
        return Polynomial(ring, {(0,) * len(ring): c})

    @staticmethod
    def variable(ring: Iterable[str], name: str) -> "Polynomial":
        ring = tuple(ring)
        i = ring.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(ring)))
        return Polynomial(ring, {mono: 1})

    @staticmethod
    def variables(ring: Iterable[str]) -> tuple["Polynomial", ...]:
        ring = tuple(ring)
        return tuple(Polynomial.variable(ring, v) for v in ring)

    # -- basics ------------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as Fractions, in a new dict on each read."""
        den = self.den
        return {m: Fraction(v, den) for m, v in self.numerators.items()}

    @property
    def num_vars(self) -> int:
        return len(self.ring)

    def is_zero(self) -> bool:
        return not self.numerators

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.numerators)

    def constant_term(self) -> Fraction:
        return Fraction(self.numerators.get((0,) * len(self.ring), 0), self.den)

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        if not self.numerators:
            return -1
        return max(sum(m) for m in self.numerators)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return (self.den, self.numerators, self.ring) == (other.den, other.numerators, other.ring)
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.ring, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.den, frozenset(self.numerators.items())))

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __repr__(self) -> str:
        from .parser import format_polynomial

        return format_polynomial(self)

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"ring mismatch: {self.ring} vs {other.ring}")

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        d = lcm(self.den, other.den)
        return Polynomial._over(self.ring, _collect(
            (m, v * (d // f.den)) for f in (self, other) for m, v in f.numerators.items()), d)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._over(self.ring, {m: -v for m, v in self.numerators.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        return Polynomial._over(self.ring, _collect(
            (tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
            for m1, c1 in self.numerators.items() for m2, c2 in other.numerators.items()),
            self.den * other.den)

    __rmul__ = __mul__

    def scalar_mul(self, c: Scalar) -> "Polynomial":
        c = _coerce_scalar(c)
        if not c:
            return Polynomial.zero(self.ring)
        p = c.numerator
        return Polynomial._over(self.ring, {m: v * p for m, v in self.numerators.items()},
                                self.den * c.denominator)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a non-negative integer: {k}")
        result = Polynomial.constant(self.ring, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus -----------------------------------------------------------

    def derivative(self, alpha: mi.MultiIndex) -> "Polynomial":
        """Iterated formal partial derivative d^alpha."""
        alpha = tuple(alpha)
        mi.validate(alpha)
        if len(alpha) != self.num_vars:
            raise ValueError("multi-index length does not match the ring")
        numerators: dict[tuple[int, ...], int] = {}
        for mono, v in self.numerators.items():
            if not mi.leq(alpha, mono):
                continue
            factor = 1
            for e, a in zip(mono, alpha):
                for j in range(e, e - a, -1):
                    factor *= j
            # mono -> mono - alpha is one-to-one, so no two terms meet, and
            # factor > 0 keeps every coefficient nonzero
            numerators[tuple(e - a for e, a in zip(mono, alpha))] = v * factor
        return Polynomial._over(self.ring, numerators, self.den)

    # -- evaluation / substitution -------------------------------------------

    def evaluate(self, point: Iterable) -> Fraction:
        point = make_point(point)
        if len(point) != self.num_vars:
            raise ValueError("point dimension does not match the ring")
        total = Fraction(0)
        for mono, v in self.numerators.items():
            for coord, e in zip(point, mono):
                if e:
                    v *= coord**e
            total += v
        return total / self.den

    def substitute(self, assignments: Mapping[str, "Polynomial | Scalar"]) -> "Polynomial":
        """Simultaneous substitution of polynomials (or scalars) for variables."""
        for name in assignments:
            if name not in self.ring:
                raise ValueError(f"unknown variable {name!r} in ring {self.ring}")
        subs: dict[int, Polynomial] = {}
        for name, value in assignments.items():
            if not isinstance(value, Polynomial):
                value = Polynomial.constant(self.ring, value)
            self._check_ring(value)
            subs[self.ring.index(name)] = value
        result = Polynomial.zero(self.ring)
        for mono, v in self.numerators.items():
            untouched = tuple(0 if i in subs else e for i, e in enumerate(mono))
            term = Polynomial._over(self.ring, {untouched: v}, self.den)
            for i, e in enumerate(mono):
                if i in subs and e:
                    term = term * subs[i] ** e
            result = result + term
        return result

    # -- monomial-order-dependent views ---------------------------------------

    def leading_monomial(self, order: "MonomialOrder") -> tuple[int, ...]:
        if not self.numerators:
            raise ValueError("the zero polynomial has no leading monomial")
        key = order.key_func(self.ring)
        return max(self.numerators, key=key)

    def to_ring(self, ring: Iterable[str]) -> "Polynomial":
        """Re-express in another ring containing every variable this uses."""
        ring = tuple(ring)
        if ring == self.ring:
            return self
        ring = _ring(ring)
        pos = {}
        for i, name in enumerate(self.ring):
            if name in ring:
                pos[i] = ring.index(name)
        numerators = {}
        for mono, v in self.numerators.items():
            new = [0] * len(ring)
            for i, e in enumerate(mono):
                if not e:
                    continue
                if i not in pos:
                    raise ValueError(
                        f"variable {self.ring[i]!r} is used but absent from {ring}"
                    )
                new[pos[i]] = e
            numerators[tuple(new)] = v
        return Polynomial._over(ring, numerators, self.den)


# -- monomial orders ----------------------------------------------------------


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order on exponent tuples in the ring's own variable order.

    `kind` is "lex", "grlex", "grevlex" or "elimination".  The elimination
    order compares the `drop` variables under grevlex first and breaks ties
    by grevlex on the kept ones, so a monomial with a dropped variable is
    larger than every monomial without one.
    """

    kind: str = "grevlex"
    drop: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("lex", "grlex", "grevlex", "elimination"):
            raise ValueError(f"unknown order kind {self.kind!r}")

    def key_func(self, ring: Ring):
        """Return key(exponents) -> sortable; larger key means larger monomial."""
        if self.kind == "lex":
            return tuple
        if self.kind == "grlex":
            return lambda exps: (sum(exps), *exps)
        # grevlex: degree first, then the smaller exponent on the last
        # variable wins
        if self.kind == "grevlex":
            return lambda exps: (sum(exps), *[-e for e in exps[::-1]])
        # elimination: one flat tuple, the grevlex key of the dropped block
        # followed by that of the kept block
        unknown = set(self.drop) - set(ring)
        if unknown:
            raise ValueError(f"not ring variables: {sorted(unknown)}")
        drop = [i for i, v in enumerate(ring) if v in self.drop]
        keep = [i for i, v in enumerate(ring) if v not in self.drop]
        rev_drop, rev_keep = drop[::-1], keep[::-1]

        def key(exps):
            deg_drop = sum([exps[i] for i in drop])
            return (deg_drop, *[-exps[i] for i in rev_drop],
                    sum(exps) - deg_drop, *[-exps[i] for i in rev_keep])

        return key


def lex() -> MonomialOrder:
    return MonomialOrder("lex")


def grlex() -> MonomialOrder:
    return MonomialOrder("grlex")


def grevlex() -> MonomialOrder:
    return MonomialOrder("grevlex")


def elimination_order(drop: Iterable[str]) -> MonomialOrder:
    """grevlex on the `drop` variables >> grevlex on the rest."""
    return MonomialOrder("elimination", tuple(drop))
