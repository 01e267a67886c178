from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashblowup.groebner import BudgetExceededError
from nashblowup.parser import (MAX_POWER_PRODUCTS, OutputTooLargeError, ParseError, _power_products,
                               format_polynomial, format_rational, parse_polynomial)
from nashblowup.polynomial import Polynomial, grlex

RING2 = ("x", "y")


def test_cusp_fixture():
    f = parse_polynomial("x^3 - y^2", RING2)
    assert f.terms == {(3, 0): 1, (0, 2): -1}


def test_three_variable_fixture():
    f = parse_polynomial("x*y - z^4", ("x", "y", "z"))
    assert f.terms == {(1, 1, 0): 1, (0, 0, 4): -1}


def test_zero():
    assert parse_polynomial("0", ("x",)).is_zero()


def test_rational_coefficients():
    f = parse_polynomial("1/2*x + 3/4", RING2)
    assert f.terms == {(1, 0): Fraction(1, 2), (0, 0): Fraction(3, 4)}


def test_parentheses_and_products():
    f = parse_polynomial("(x + y)*(x - y)", RING2)
    assert f == parse_polynomial("x^2 - y^2", RING2)


def test_unary_minus_binds_looser_than_power():
    f = parse_polynomial("-x^2", RING2)
    assert f.terms == {(2, 0): -1}


def test_unary_minus_inside_sum():
    f = parse_polynomial("y - -x", RING2)
    assert f == parse_polynomial("y + x", RING2)


def test_whitespace_insignificant():
    assert (parse_polynomial(" x ^ 3-y^ 2 ", RING2)
            == parse_polynomial("x^3-y^2", RING2))


def test_unknown_variable():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x + w", RING2)
    assert "w" in str(exc.value)


def test_empty_ring():
    with pytest.raises(ValueError, match="^ring must be nonempty$"):
        parse_polynomial("x", ())


def test_malformed_exponent():
    with pytest.raises(ParseError):
        parse_polynomial("x^-2", RING2)
    with pytest.raises(ParseError):
        parse_polynomial("x^", RING2)


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_polynomial("1/0", RING2)


def test_unbalanced_parentheses():
    with pytest.raises(ParseError):
        parse_polynomial("(x + y", RING2)
    with pytest.raises(ParseError):
        parse_polynomial("x + y)", RING2)


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_polynomial("x + y $", RING2)


def test_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x + w", RING2)
    assert 0 <= exc.value.position <= len("x + w")


PARSE_ERRORS = {
    "unexpected character": ("x + y $", 6, "unexpected character '$'", ""),
    "trailing input": ("x + y)", 5, "trailing input ')'", "end of input"),
    "malformed exponent": ("x^y", 2, "malformed exponent 'y'", "a non-negative integer"),
    "malformed exponent at end": ("x^", 2, "malformed exponent ''", "a non-negative integer"),
    "malformed denominator": ("1/x", 2, "malformed denominator 'x'", "a positive integer"),
    "zero denominator": ("1/0", 2, "zero denominator", ""),
    "unknown variable": ("x + w", 4, "unknown variable 'w'", "one of x, y"),
    "unbalanced parentheses": ("(x + y", 6, "unbalanced parentheses", "')'"),
    "unexpected token": ("x + *y", 4, "unexpected token '*'", "a number, variable, or '('"),
    "unexpected end of input": ("x + ", 4, "unexpected end of input",
                                "a number, variable, or '('"),
    # past int()'s limit on the digits of a string (4,300 by default)
    "integer literal": ("x + " + "9" * 5000, 4, "integer literal of 5000 digits", ""),
    # refused at the '^' before any expansion
    "power of two terms": ("(x+y)^2222", 5, "power 2222 of 2 terms",
                           "at most 500,000 term products"),
    "power of three terms": ("(x + y + 1) ^ 222", 12, "power 222 of 3 terms",
                             "at most 500,000 term products"),
    # 3^10000 has 4,772 digits, past what format_polynomial can print
    "power of a coefficient": ("3^10000 * x", 1, "power 10000 of 2-bit coefficients",
                               "at most 14,284 coefficient bits"),
    # (1/3*x)^7142, of 14,284 bits, parses
    "power of a denominator": ("(1/3*x)^7143", 7, "power 7143 of 2-bit coefficients",
                               "at most 14,284 coefficient bits"),
    # refused at the '*' before multiplying: 2 * 7,925 bits, past what
    # format_polynomial can print, and 741^2 = 549,081 term products
    "product of coefficients": ("3^5000*3^5000*x", 6, "product of 15850 coefficient bits",
                                "at most 14,284 coefficient bits"),
    "product of terms": ("(x+y+1)^37*(x+y+1)^37", 10, "product of 741 and 741 terms",
                         "at most 500,000 term products"),
}


@pytest.mark.parametrize("kind", sorted(PARSE_ERRORS))
def test_parse_error_table(kind):
    text, position, message, expected = PARSE_ERRORS[kind]
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, RING2)
    assert (exc.value.message, exc.value.position, exc.value.expected) == (
        message, position, expected)


def test_power_products_bound_the_products_formed(monkeypatch):
    formed = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: (
        formed.append(len(a.terms) * len(b.terms)) or mul(a, b)))
    for text, t in (("x+y", 2), ("x+y+1", 3), ("x*y-x+2*y^3-1", 4)):
        base = parse_polynomial(text, RING2)
        for k in range(13):
            formed.clear()
            base ** k
            assert sum(formed) <= _power_products(t, k)
    # (x+y)^500 parses; (x+y)^2222, of 2,223 terms, forms too many products
    assert _power_products(2, 500) == 104_649 <= MAX_POWER_PRODUCTS
    assert _power_products(2, 2222) > MAX_POWER_PRODUCTS


# Digits stop at 2 and strings at 9 characters, so that the largest power
# drawn, (x+y)^222, expands in milliseconds.
@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="xyw_012 ()+-*/^", max_size=9))
def test_any_string_parses_or_raises_parse_error(text):
    try:
        parse_polynomial(text, RING2)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)


def test_format_fixtures():
    assert format_polynomial(Polynomial.zero(RING2)) == "0"
    f = Polynomial(RING2, {(2, 0): 3, (0, 1): -2})
    assert format_polynomial(f, grlex()) == "3*x^2 - 2*y"
    assert format_polynomial(Polynomial.constant(RING2, Fraction(1, 2))) == "1/2"


@pytest.mark.parametrize("terms, bits", [
    ({(1, 0): 100 * 2**14284}, 14_291),
    ({(0, 0): Fraction(1, 3 * 2**14284)}, 14_286),
    ({(10**4300, 0): 1}, 14_285),
], ids=["coefficient", "denominator", "exponent"])
def test_format_refuses_a_number_with_too_many_digits(digit_limit, terms, bits):
    # 2^14284 has 4,300 digits and prints; every number format_polynomial
    # prints goes through format_rational, which names the refusal
    assert format_rational(2**14284) == str(2**14284)
    with pytest.raises(OutputTooLargeError) as info:
        format_polynomial(Polynomial(RING2, terms))
    assert str(info.value) == f"output: a {bits:,}-bit number has too many digits to print"
    assert isinstance(info.value, BudgetExceededError)


def coeff_strategy():
    return st.builds(Fraction, st.integers(-999, 999), st.integers(1, 999))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4).flatmap(lambda s: st.lists(
    st.tuples(st.tuples(*([st.integers(0, 5)] * s)), coeff_strategy()),
    min_size=0, max_size=8).map(lambda ts: (s, ts))))
def test_round_trip(data):
    s, ts = data
    ring = tuple(f"v{i}" for i in range(s))
    terms = {}
    for mono, c in ts:
        terms[mono] = terms.get(mono, Fraction(0)) + c
    f = Polynomial(ring, {m: c for m, c in terms.items() if c})
    assert parse_polynomial(format_polynomial(f), ring) == f
