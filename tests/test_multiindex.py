import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nashblowup import multiindex as mi

from conftest import factorial, sub


def test_leq():
    assert mi.leq((1, 0), (1, 1))
    assert not mi.leq((0, 2), (1, 1))
    assert mi.leq((1, 1), (1, 1))


def test_leq_length_mismatch():
    with pytest.raises(ValueError):
        mi.leq((1, 0), (1, 0, 0))


def test_multi_binomial_factorial_identity():
    # binom(a,b) * b! * (a-b)! == a! exhaustively for small cases
    for s in range(1, 5):
        for alpha in mi.enumerate_indices(s, 0, 8 // s):
            for beta in mi.enumerate_indices(s, 0, sum(alpha)):
                if not mi.leq(beta, alpha):
                    continue
                lhs = (math.prod(map(math.comb, alpha, beta))
                       * factorial(beta)
                       * factorial(sub(alpha, beta)))
                assert lhs == factorial(alpha)


def test_binomial_terms_expand_a_power():
    # (x + p)^alpha: every gamma <= alpha once, with alpha - gamma beside it,
    # and the C(alpha, gamma) summing to 2^|alpha|; a degree cap keeps exactly
    # the gamma of degree at most the cap
    for s in range(1, 4):
        for alpha in mi.enumerate_indices(s, 0, 6 // s):
            terms = list(mi.binomial_terms(alpha))
            below = [g for g in mi.enumerate_indices(s, 0, sum(alpha)) if mi.leq(g, alpha)]
            assert sorted(g for g, _, _ in terms) == sorted(below)
            assert all(sub(alpha, g) == rest for g, rest, _ in terms)
            assert sum(c for _, _, c in terms) == 2 ** sum(alpha)
            for cap in range(sum(alpha) + 1):
                assert list(mi.binomial_terms(alpha, cap)) == [
                    t for t in terms if sum(t[0]) <= cap]


def test_enumerate_s2():
    # column order of the 3x5 order-2 matrix of a plane curve: x, y, x^2, xy, y^2
    assert mi.enumerate_indices(2, 1, 2) == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_enumerate_s3_degree2():
    # degree-2 block for three variables: x^2, xy, y^2, xz, yz, z^2.
    # This is what the reference 4x9 order-2 matrix of xy - z^4 forces: its
    # third row (0, F, 0, 0, y, x, 0, -4z^3, 0) puts the coefficient of
    # d/dy (namely x) in column 6, so column 6 is y^2, not xz.
    assert mi.enumerate_indices(3, 2, 2) == [
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]


def test_enumerate_s1():
    assert mi.enumerate_indices(1, 1, 3) == [(1,), (2,), (3,)]


def test_enumerate_counts():
    for s in (1, 2, 3, 4):
        for n in (1, 2, 3):
            assert len(mi.enumerate_indices(s, 0, n)) == math.comb(n + s, s)
            assert len(mi.enumerate_indices(s, 1, n)) == math.comb(n + s, s) - 1
            assert len(mi.enumerate_indices(s, 0, n - 1)) == math.comb(n + s - 1, s)


@pytest.mark.parametrize("s, d_min, d_max, message", [
    (0, 0, 1, "need at least one variable"),
    (2, 2, 1, "empty degree range: 2 > 1"),
], ids=["no-variables", "empty-range"])
def test_enumerate_refuses_an_empty_enumeration(s, d_min, d_max, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        mi.enumerate_indices(s, d_min, d_max)


def test_enumerate_strict_total_order():
    for s in (1, 2, 3):
        out = mi.enumerate_indices(s, 0, 4)
        assert len(set(out)) == len(out)
        keys = [mi.canonical_key(a) for a in out]
        assert keys == sorted(keys)
        degrees = [sum(a) for a in out]
        assert degrees == sorted(degrees)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=4).map(tuple),
       st.lists(st.integers(0, 6), min_size=1, max_size=4).map(tuple))
def test_canonical_key_antisymmetric(a, b):
    if len(a) != len(b):
        return
    ka, kb = mi.canonical_key(a), mi.canonical_key(b)
    assert (ka == kb) == (a == b)
    assert (ka < kb) != (ka >= kb)


def test_validate_rejects_negative():
    with pytest.raises(ValueError):
        mi.validate((1, -1))
    with pytest.raises(ValueError):
        mi.validate(())
