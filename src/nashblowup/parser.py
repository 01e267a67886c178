"""Parsing and canonical formatting of polynomial expressions.

Grammar (whitespace insignificant):

    expr     := term (('+' | '-') term)*
    term     := ('-')? factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | variable | '(' expr ')'
    rational := integer ('/' positive-integer)?

Products require an explicit '*'; coefficients are exact rationals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

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
_TOKEN = re.compile(rf"\s*(?:(\d+)|({NAME.pattern})|([()+\-*/^]))")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, position)
        self._tokenize()
        self.i = 0

    def _tokenize(self):
        pos = 0
        text = self.text
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                bad = len(text) - len(stripped)
                raise ParseError(bad, f"unexpected character {text[bad]!r}")
            if m.group(1) is not None:
                self.tokens.append(("int", m.group(1), m.start(1)))
            elif m.group(2) is not None:
                self.tokens.append(("name", m.group(2), m.start(2)))
            else:
                self.tokens.append(("op", m.group(3), m.start(3)))
            pos = m.end()

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


class _Parser:
    def __init__(self, text: str, ring: tuple[str, ...]):
        self.lexer = _Lexer(text)
        self.ring = ring

    def parse(self) -> Polynomial:
        poly = self.expr()
        kind, value, pos = self.lexer.peek()
        if kind != "eof":
            raise ParseError(pos, f"trailing input {value!r}", "end of input")
        return poly

    def expr(self) -> Polynomial:
        poly = self.term()
        while True:
            kind, value, _ = self.lexer.peek()
            if kind == "op" and value in "+-":
                self.lexer.next()
                rhs = self.term()
                poly = poly + rhs if value == "+" else poly - rhs
            else:
                return poly

    def term(self) -> Polynomial:
        negate = False
        kind, value, _ = self.lexer.peek()
        if kind == "op" and value == "-":
            self.lexer.next()
            negate = True
        poly = self.factor()
        while True:
            kind, value, _ = self.lexer.peek()
            if kind == "op" and value == "*":
                self.lexer.next()
                poly = poly * self.factor()
            else:
                break
        return -poly if negate else poly

    def factor(self) -> Polynomial:
        poly = self.base()
        kind, value, _ = self.lexer.peek()
        if kind == "op" and value == "^":
            self.lexer.next()
            kind, value, pos = self.lexer.next()
            if kind != "int":
                raise ParseError(pos, f"malformed exponent {value!r}", "a non-negative integer")
            poly = poly ** int(value)
        return poly

    def base(self) -> Polynomial:
        kind, value, pos = self.lexer.next()
        if kind == "int":
            numerator = int(value)
            k2, v2, _ = self.lexer.peek()
            if k2 == "op" and v2 == "/":
                self.lexer.next()
                k3, v3, p3 = self.lexer.next()
                if k3 != "int":
                    raise ParseError(p3, f"malformed denominator {v3!r}", "a positive integer")
                if int(v3) == 0:
                    raise ParseError(p3, "zero denominator")
                return Polynomial.constant(self.ring, Fraction(numerator, int(v3)))
            return Polynomial.constant(self.ring, numerator)
        if kind == "name":
            if value not in self.ring:
                raise ParseError(pos, f"unknown variable {value!r}", f"one of {', '.join(self.ring)}")
            return Polynomial.variable(self.ring, value)
        if kind == "op" and value == "(":
            poly = self.expr()
            k2, v2, p2 = self.lexer.next()
            if not (k2 == "op" and v2 == ")"):
                raise ParseError(p2, "unbalanced parentheses", "')'")
            return poly
        raise ParseError(pos, f"unexpected token {value!r}" if value else "unexpected end of input",
                         "a number, variable, or '('")


def parse_polynomial(text: str, ring) -> Polynomial:
    """Parse `text` into a Polynomial over the given ring (ordered names)."""
    ring = tuple(ring)
    if not ring:
        raise ValueError("ring must be nonempty")
    return _Parser(text, ring).parse()


def _format_monomial(ring, mono) -> str:
    parts = []
    for name, e in zip(ring, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(f: Polynomial, order: MonomialOrder | None = None) -> str:
    """Canonical text form: terms descending in the active order.

    Round-trips through parse_polynomial exactly.
    """
    if f.is_zero():
        return "0"
    if order is None:
        order = grevlex()
    pieces = []
    for i, (mono, coeff) in enumerate(f.sorted_terms(order)):
        mono_str = _format_monomial(f.ring, mono)
        mag = abs(coeff)
        if not mono_str:
            body = str(mag)
        elif mag == 1:
            body = mono_str
        else:
            body = f"{mag}*{mono_str}"
        if i == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)
