"""Third-party oracle: sympy's Fibonacci numbers, determinants and
characteristic polynomials at small orders.

sympy is a test-only dependency; without it this module is skipped.
"""

import pytest

from fibcomb.fib import fib
from fibcomb.hessenberg import build_F, build_G, char_poly, det

sympy = pytest.importorskip("sympy")


def test_fib_matches_sympy():
    for n in range(-1, 13):
        assert fib(n) == sympy.fibonacci(n)


def test_det_matches_sympy():
    for build in (build_F, build_G):
        for n in range(1, 13):
            h = build(n)
            assert det(h) == sympy.Matrix(h.materialize()).det()


def test_char_poly_of_F_matches_sympy():
    x = sympy.Symbol("x")
    for n in range(1, 13):
        h = build_F(n)
        expected = sympy.Matrix(h.materialize()).charpoly(x).all_coeffs()
        assert list(char_poly(h).coeffs) == expected[::-1]
