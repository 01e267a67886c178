"""Parsing and canonical formatting of polynomial expressions.

Grammar (whitespace insignificant):

    expr     := term (('+' | '-') term)*
    term     := ('-')? factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | variable | '(' expr ')'
    rational := integer ('/' positive-integer)?

Products require an explicit '*'; coefficients are exact rationals.  The text
becomes one token list, closed by an eof token, which one recursive descent
reads with one cursor.  A ParseError, with position and expected text, names
an unexpected character, trailing input, a malformed exponent, a malformed or
zero denominator, an integer literal too long for int(), a power or a
product past the MAX_POWER_PRODUCTS or MAX_POWER_BITS cap, an unknown
variable, unbalanced parentheses, an unexpected token or an unexpected end
of input.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .groebner import BudgetExceededError
from .polynomial import MonomialOrder, Polynomial, grevlex


@dataclass
class ParseError(ValueError):
    position: int
    message: str
    expected: str = ""

    def __str__(self):
        where = f" at position {self.position}"
        want = f" (expected {self.expected})" if self.expected else ""
        return f"{self.message}{where}{want}"


NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(rf"\s*(?:(\d+)|({NAME.pattern})|([()+\-*/^])|(\S))")
_KINDS = (None, "int", "name", "op", "bad")  # by the number of the token's group
RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?")  # a rational literal with its sign, as in a point
MAX_POWER_PRODUCTS = 500_000  # term products of a power or a product; (x+y)^1000 forms 415,666
MAX_POWER_BITS = 14_284  # bits k*b of poly^k, b1 + b2 of a product; 2^14,284 has 4,300 digits


def _bits(poly: Polynomial) -> int:
    """b such that poly is (sum a_m*m)/den with integer a_m, sum |a_m| <= 2^b and
    den <= 2^b: the numerators of a product of such factors are at most the
    product of the sums and its denominators divide the product of the den."""
    size = sum(map(abs, poly.numerators.values()))
    return max(size - 1, poly.den - 1, 0).bit_length()


def _power_products(t: int, k: int) -> int:
    """Bounds the term products `Polynomial.__pow__` forms on t terms to the k."""
    def terms(j):  # t terms to the j have at most C(t + j - 1, j) terms
        return math.comb(max(t, 1) + j - 1, j)
    products, done, j = 0, 0, 1
    while k and products <= MAX_POWER_PRODUCTS:
        if k & 1:  # result * base
            products, done = products + terms(done) * terms(j), done + j
        if k > 1:  # base * base
            products, j = products + terms(j) ** 2, 2 * j
        k >>= 1
    return products


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """The (kind, value, position) tokens of `text`, then ("eof", "", len(text))."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, value, pos = _KINDS[m.lastindex], m.group(m.lastindex), m.start(m.lastindex)
        if kind == "bad":
            raise ParseError(pos, f"unexpected character {value!r}")
        tokens.append((kind, value, pos))
    tokens.append(("eof", "", len(text)))
    return tokens


def parse_polynomial(text: str, ring) -> Polynomial:
    """Parse `text` into a Polynomial over the given ring (ordered names)."""
    ring = tuple(ring)
    if not ring:
        raise ValueError("ring must be nonempty")
    tokens = _tokens(text)
    i = 0  # the cursor; every error is raised before it passes eof

    def take():
        nonlocal i
        i += 1
        return tokens[i - 1]

    def accept(ops: str) -> str:
        """The next token's value, consumed, if it is one of the operators `ops`; else ''."""
        kind, value, _ = tokens[i]
        return take()[1] if kind == "op" and value in ops else ""

    def integer(value: str, pos: int) -> int:
        try:
            return int(value)
        except ValueError:  # more digits than int() converts from a string
            raise ParseError(pos, f"integer literal of {len(value)} digits") from None

    def expr() -> Polynomial:
        poly = term()
        while op := accept("+-"):
            rhs = term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def term() -> Polynomial:
        negate = accept("-")
        poly = factor()
        while accept("*"):
            pos, rhs = tokens[i - 1][2], factor()
            if (t := len(poly.numerators)) * (u := len(rhs.numerators)) > MAX_POWER_PRODUCTS:
                raise ParseError(pos, f"product of {t} and {u} terms",
                                 f"at most {MAX_POWER_PRODUCTS:,} term products")
            if (b := _bits(poly) + _bits(rhs)) > MAX_POWER_BITS:
                raise ParseError(pos, f"product of {b} coefficient bits",
                                 f"at most {MAX_POWER_BITS:,} coefficient bits")
            poly = poly * rhs
        return -poly if negate else poly

    def factor() -> Polynomial:
        poly = base()
        if accept("^"):
            kind, value, pos = take()
            if kind != "int":
                raise ParseError(pos, f"malformed exponent {value!r}", "a non-negative integer")
            if _power_products(len(poly.numerators), k := integer(value, pos)) > MAX_POWER_PRODUCTS:
                raise ParseError(tokens[i - 2][2], f"power {value} of {len(poly.numerators)} terms",
                                 f"at most {MAX_POWER_PRODUCTS:,} term products")
            if k * (b := _bits(poly)) > MAX_POWER_BITS:
                raise ParseError(tokens[i - 2][2], f"power {value} of {b}-bit coefficients",
                                 f"at most {MAX_POWER_BITS:,} coefficient bits")
            poly = poly ** k
        return poly

    def base() -> Polynomial:
        kind, value, pos = take()
        if kind == "int":
            numerator = integer(value, pos)
            if not accept("/"):
                return Polynomial.constant(ring, numerator)
            kind, den, pos = take()
            if kind != "int":
                raise ParseError(pos, f"malformed denominator {den!r}", "a positive integer")
            if integer(den, pos) == 0:
                raise ParseError(pos, "zero denominator")
            return Polynomial.constant(ring, Fraction(numerator, int(den)))
        if kind == "name":
            if value not in ring:
                raise ParseError(pos, f"unknown variable {value!r}", f"one of {', '.join(ring)}")
            return Polynomial.variable(ring, value)
        if kind == "op" and value == "(":
            poly = expr()
            if not accept(")"):
                raise ParseError(tokens[i][2], "unbalanced parentheses", "')'")
            return poly
        raise ParseError(pos, f"unexpected token {value!r}" if value else "unexpected end of input",
                         "a number, variable, or '('")

    poly = expr()
    kind, value, pos = tokens[i]
    if kind != "eof":
        raise ParseError(pos, f"trailing input {value!r}", "end of input")
    return poly


class OutputTooLargeError(BudgetExceededError):
    """A number to print has more digits than int() converts to a string."""


def format_rational(c) -> str:
    """str(c) of an int or a Fraction, refused past int()'s limit on the digits of a string."""
    try:
        return str(c)
    except ValueError:  # the limit came with Python 3.10.7 and 3.11
        bits = max(c.numerator.bit_length(), c.denominator.bit_length())
        raise OutputTooLargeError(f"output: a {bits:,}-bit number has too many digits to print") from None


def _format_monomial(ring, mono) -> str:
    return "*".join(name if e == 1 else f"{name}^{format_rational(e)}"
                    for name, e in zip(ring, mono) if e)


def format_polynomial(f: Polynomial, order: MonomialOrder | None = None) -> str:
    """Canonical text form: terms descending in the active order.

    Round-trips through parse_polynomial exactly.
    """
    if f.is_zero():
        return "0"
    if order is None:
        order = grevlex()
    key, den = order.key_func(f.ring), f.den
    pieces = []
    for i, mono in enumerate(sorted(f.numerators, key=key, reverse=True)):
        coeff = f.numerators[mono]
        g = math.gcd(coeff, den)  # coeff/den in lowest terms
        mag = format_rational(abs(coeff) // g) + (f"/{format_rational(den // g)}" if g < den else "")
        mono_str = _format_monomial(f.ring, mono)
        if not mono_str:
            body = mag
        elif mag == "1":
            body = mono_str
        else:
            body = f"{mag}*{mono_str}"
        if i == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)
