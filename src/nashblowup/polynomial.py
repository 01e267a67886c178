"""Sparse multivariate polynomials with exact rational coefficients.

Polynomials live in a ring given by an ordered tuple of variable names and
store their terms as a map from exponent tuple to a nonzero Fraction.  All
arithmetic is exact; there are no floating-point coefficients anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        out = Polynomial.__new__(Polynomial)
        object.__setattr__(out, "ring", self.ring)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "_hash", None)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        object.__setattr__(out, "ring", self.ring)
        object.__setattr__(out, "terms", {m: -c for m, c in self.terms.items()})
        object.__setattr__(out, "_hash", None)
        return out

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
        out = Polynomial.__new__(Polynomial)
        object.__setattr__(out, "ring", self.ring)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "_hash", None)
        return out

    __rmul__ = __mul__

    def scalar_mul(self, c: Scalar) -> "Polynomial":
        c = _coerce_scalar(c)
        if not c:
            return Polynomial.zero(self.ring)
        out = Polynomial.__new__(Polynomial)
        object.__setattr__(out, "ring", self.ring)
        object.__setattr__(out, "terms", {m: co * c for m, co in self.terms.items()})
        object.__setattr__(out, "_hash", None)
        return out

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

    def leading_coefficient(self, order: "MonomialOrder") -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def sorted_terms(self, order: "MonomialOrder") -> list[tuple[tuple[int, ...], Fraction]]:
        key = order.key_func(self.ring)
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def monic(self, order: "MonomialOrder") -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient(order)
        return self.scalar_mul(Fraction(1) / lc)

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
    """A monomial order: lex, grlex, grevlex, or a block order.

    `precedence` lists variable names from most to least significant; when
    omitted, the ring's own order is used.  For block orders, `blocks` is a
    sequence of (variable names, inner order) pairs compared block by block;
    earlier blocks dominate.
    """

    kind: str = "grevlex"
    precedence: tuple[str, ...] | None = None
    blocks: tuple[tuple[tuple[str, ...], "MonomialOrder"], ...] = field(default=())

    def __post_init__(self):
        if self.kind not in ("lex", "grlex", "grevlex", "block"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "block" and not self.blocks:
            raise ValueError("block order needs at least one block")
        if self.precedence is not None:
            object.__setattr__(self, "precedence", tuple(self.precedence))

    def key_func(self, ring: Ring):
        """Return key(exponents) -> sortable; larger key means larger monomial."""
        if self.kind == "block":
            parts = []
            covered: list[str] = []
            for names, inner in self.blocks:
                idx = tuple(ring.index(v) for v in names)
                inner_key = inner.key_func(tuple(names))
                parts.append((idx, inner_key))
                covered.extend(names)
            if sorted(covered) != sorted(ring):
                raise ValueError(f"blocks {covered} do not partition the ring {ring}")

            def key(exps, parts=tuple(parts)):
                return tuple(k(tuple(exps[i] for i in idx)) for idx, k in parts)

            return key

        if self.precedence is None:
            perm = tuple(range(len(ring)))
        else:
            if sorted(self.precedence) != sorted(ring):
                raise ValueError(f"precedence {self.precedence} does not match ring {ring}")
            perm = tuple(ring.index(v) for v in self.precedence)

        if self.kind == "lex":
            return lambda exps: tuple(exps[i] for i in perm)
        if self.kind == "grlex":
            return lambda exps: (sum(exps), tuple(exps[i] for i in perm))
        # grevlex: degree first, then the smaller exponent on the least
        # significant variable wins.
        rev = tuple(reversed(perm))
        return lambda exps: (sum(exps), tuple(-exps[i] for i in rev))


def lex(*precedence: str) -> MonomialOrder:
    return MonomialOrder("lex", tuple(precedence) or None)


def grlex(*precedence: str) -> MonomialOrder:
    return MonomialOrder("grlex", tuple(precedence) or None)


def grevlex(*precedence: str) -> MonomialOrder:
    return MonomialOrder("grevlex", tuple(precedence) or None)


def block_order(*blocks: tuple[Iterable[str], MonomialOrder]) -> MonomialOrder:
    packed = tuple((tuple(names), inner) for names, inner in blocks)
    return MonomialOrder("block", None, packed)


def elimination_order(drop: Iterable[str], keep: Iterable[str]) -> MonomialOrder:
    """Block order with every dropped variable dominating every kept one."""
    return block_order((tuple(drop), grevlex()), (tuple(keep), grevlex()))


def compare(m1: tuple[int, ...], m2: tuple[int, ...], order: MonomialOrder, ring: Ring) -> int:
    """-1, 0, or 1 as m1 <, =, > m2 under the order."""
    if len(m1) != len(m2):
        raise ValueError("exponent tuples of different lengths")
    key = order.key_func(ring)
    k1, k2 = key(tuple(m1)), key(tuple(m2))
    return (k1 > k2) - (k1 < k2)
