"""Sparse multivariate polynomials with exact rational coefficients.

Polynomials live in a ring given by an ordered tuple of variable names and
store their terms as a map from exponent tuple to a nonzero Fraction.  All
arithmetic is exact; there are no floating-point coefficients anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _fresh(name: str, taken) -> str:
    """`name`, or `name_0`, `name_1`, ...: the first one not in `taken`."""
    candidate = name
    k = 0
    while candidate in taken:
        candidate = f"{name}_{k}"
        k += 1
    return candidate


class Polynomial:
    """An element of Q[x_1, ..., x_s], stored sparsely."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Iterable[str], terms: Mapping[tuple, Scalar] | None = None):
        ring = tuple(ring)
        if not ring:
            raise ValueError("ring needs at least one variable")
        if len(set(ring)) != len(ring):
            raise ValueError(f"duplicate variable names: {ring}")
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            s = len(ring)
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != s:
                    raise ValueError(f"exponent tuple {mono} has wrong length for ring {ring}")
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in {mono}")
                c = _coerce_scalar(coeff)
                if c:
                    acc = clean.get(mono)
                    if acc is None:
                        clean[mono] = c
                    else:
                        acc += c
                        if acc:
                            clean[mono] = acc
                        else:
                            del clean[mono]
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _from_terms(ring: Ring, terms: dict[tuple[int, ...], Fraction]) -> "Polynomial":
        """Trusted constructor: `ring` a valid tuple of names and `terms` a
        dict of exponent tuples of its length to nonzero Fractions, taken as
        they are, without copying or checking."""
        out = Polynomial.__new__(Polynomial)
        object.__setattr__(out, "ring", ring)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "_hash", None)
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
    def num_vars(self) -> int:
        return len(self.ring)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.ring), Fraction(0))

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.ring, other)
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self.terms)

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
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            acc = terms.get(mono)
            if acc is None:
                terms[mono] = c
            else:
                acc += c
                if acc:
                    terms[mono] = acc
                else:
                    del terms[mono]
        return Polynomial._from_terms(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._from_terms(self.ring, {m: -c for m, c in self.terms.items()})

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
        terms: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                acc = terms.get(mono)
                if acc is None:
                    terms[mono] = c
                else:
                    acc += c
                    if acc:
                        terms[mono] = acc
                    else:
                        del terms[mono]
        return Polynomial._from_terms(self.ring, terms)

    __rmul__ = __mul__

    def scalar_mul(self, c: Scalar) -> "Polynomial":
        c = _coerce_scalar(c)
        if not c:
            return Polynomial.zero(self.ring)
        return Polynomial._from_terms(self.ring, {m: co * c for m, co in self.terms.items()})

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
        terms: dict[tuple[int, ...], Fraction] = {}
        for mono, c in self.terms.items():
            if not mi.leq(alpha, mono):
                continue
            factor = 1
            for e, a in zip(mono, alpha):
                for j in range(e, e - a, -1):
                    factor *= j
            new = tuple(e - a for e, a in zip(mono, alpha))
            acc = terms.get(new, Fraction(0)) + c * factor
            if acc:
                terms[new] = acc
            elif new in terms:
                del terms[new]
        return Polynomial(self.ring, terms)

    def taylor_coeff(self, alpha: mi.MultiIndex) -> "Polynomial":
        """d^alpha(self) / alpha!, exactly."""
        return self.derivative(alpha).scalar_mul(Fraction(1, mi.factorial(tuple(alpha))))

    # -- evaluation / substitution -------------------------------------------

    def evaluate(self, point: Iterable) -> Fraction:
        point = make_point(point)
        if len(point) != self.num_vars:
            raise ValueError("point dimension does not match the ring")
        total = Fraction(0)
        for mono, c in self.terms.items():
            v = c
            for coord, e in zip(point, mono):
                if e:
                    v *= coord**e
            total += v
        return total

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
        for mono, c in self.terms.items():
            term = Polynomial.constant(self.ring, c)
            untouched = list(mono)
            for i, e in enumerate(mono):
                if i in subs and e:
                    untouched[i] = 0
                    term = term * subs[i] ** e
            if any(untouched):
                term = term * Polynomial(self.ring, {tuple(untouched): 1})
            result = result + term
        return result

    def lowest_homogeneous_component(self) -> "Polynomial":
        """Sum of the terms of minimal total degree; undefined for 0."""
        if not self.terms:
            raise ValueError("the zero polynomial has no lowest homogeneous component")
        low = min(sum(m) for m in self.terms)
        return Polynomial(self.ring, {m: c for m, c in self.terms.items() if sum(m) == low})

    # -- monomial-order-dependent views ---------------------------------------

    def leading_monomial(self, order: "MonomialOrder") -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        key = order.key_func(self.ring)
        return max(self.terms, key=key)

    def sorted_terms(self, order: "MonomialOrder") -> list[tuple[tuple[int, ...], Fraction]]:
        key = order.key_func(self.ring)
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def to_ring(self, ring: Iterable[str]) -> "Polynomial":
        """Re-express in another ring containing every variable this uses."""
        ring = tuple(ring)
        if ring == self.ring:
            return self
        pos = {}
        for i, name in enumerate(self.ring):
            if name in ring:
                pos[i] = ring.index(name)
        terms = {}
        for mono, c in self.terms.items():
            new = [0] * len(ring)
            for i, e in enumerate(mono):
                if not e:
                    continue
                if i not in pos:
                    raise ValueError(
                        f"variable {self.ring[i]!r} is used but absent from {ring}"
                    )
                new[pos[i]] = e
            terms[tuple(new)] = c
        return Polynomial(ring, terms)


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
