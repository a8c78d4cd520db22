import decimal
import math
import random
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fibcomb.fib import fib, fib_poly, shift_poly
from fibcomb.poly import IntPolynomial

from horner import horner


def test_extended_anchors():
    assert fib(-1) == 1
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(2) == 1


def test_fib_returns_an_int():
    for n in (-1, 0, 1, 2, 100, 50000):
        assert type(fib(n)) is int, n


def test_known_value():
    assert fib(10) == 55
    assert fib(20) == 6765


def test_rejects_indices_below_minus_one():
    with pytest.raises(ValueError):
        fib(-2)


@given(st.integers(1, 200))
def test_recurrence(n):
    assert fib(n + 1) == fib(n) + fib(n - 1)


def _fib_walk():
    # test-local oracle: fib(-1), fib(0), fib(1), ... by the additive loop
    cur, nxt = 1, 0
    while True:
        yield cur
        cur, nxt = nxt, cur + nxt


def test_fast_doubling_matches_the_additive_loop():
    for n, expected in zip(range(-1, 100001), _fib_walk()):
        if n <= 3000 or n in (20000, 100000):
            assert fib(n) == expected, n


@given(st.integers(0, 10**5))
@settings(max_examples=25, deadline=None)
def test_doubling_identities(k):
    a, b = fib(k), fib(k + 1)
    assert fib(2 * k) == a * (2 * b - a)
    assert fib(2 * k + 1) == a * a + b * b


def test_the_loop_over_an_exact_decimal_gives_the_same_digits():
    # the command line's route for digit-scale values: the same loop, given
    # a Decimal one, under a context in which every product is exact
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            traps=[decimal.Inexact])
    rng = random.Random(31)
    indices = [-1, 0, 1, 2, 3] + [rng.randrange(4, 10**5 + 1) for _ in range(30)]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for n in indices:
            with decimal.localcontext(exact):
                value = fib(n, decimal.Decimal(1))
            assert type(value) is decimal.Decimal, n
            assert str(value) == str(fib(n)), n
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_fib_poly_base_cases():
    assert fib_poly(1) == 1
    assert fib_poly(2) == IntPolynomial.x()
    assert fib_poly(3) == IntPolynomial((1, 0, 1))


def test_fib_poly_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        fib_poly(0)


def test_fib_poly_degree():
    for n in range(1, 12):
        assert fib_poly(n).degree == n - 1


def test_fib_poly_at_one_is_fib():
    for n in range(1, 31):
        assert horner(fib_poly(n), 1) == fib(n)


def fib_poly_explicit(n):
    # test-local reference: the Fibonacci polynomial of index n + 1 straight
    # from binomials, sum over i of C(n-i, i) x^(n-2i), with no recurrence
    coeffs = [0] * (n + 1)
    for i in range(n // 2 + 1):
        coeffs[n - 2 * i] = math.comb(n - i, i)
    return IntPolynomial(coeffs)


def test_explicit_base_cases():
    assert fib_poly_explicit(0) == 1
    assert fib_poly_explicit(2) == IntPolynomial((1, 0, 1))


def test_explicit_matches_recurrence_route():
    for n in range(1, 31):
        assert fib_poly(n) == fib_poly_explicit(n - 1)


def test_shift_examples():
    x, one = IntPolynomial.x(), IntPolynomial.one()
    assert shift_poly(one) == 1
    assert shift_poly(x) == x - one
    assert shift_poly(x * x + one) == IntPolynomial((2, -2, 1))


@given(st.lists(st.integers(-9, 9), max_size=7))
def test_shift_then_unshift_is_identity(coeffs):
    p = IntPolynomial(coeffs)
    assert horner(shift_poly(p), IntPolynomial.x() + IntPolynomial.one()) == p


@given(st.lists(st.integers(-10**6, 10**6), max_size=12))
def test_shift_is_composition_with_x_minus_one(coeffs):
    # the Taylor shift against Horner's composition over IntPolynomial
    p = IntPolynomial(coeffs)
    assert shift_poly(p) == horner(p, IntPolynomial.x() - IntPolynomial.one())
