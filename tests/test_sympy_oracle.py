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


def _sympy_char_poly_coeffs(h):
    # coefficients in increasing power, as IntPolynomial stores them
    return sympy.Matrix(h.materialize()).charpoly(sympy.Symbol("x")).all_coeffs()[::-1]


def test_char_poly_of_F_matches_sympy():
    for n in range(1, 13):
        h = build_F(n)
        assert list(char_poly(h).coeffs) == _sympy_char_poly_coeffs(h)


def test_char_poly_of_G_matches_sympy():
    # the paper's headline matrix: its coefficients are the signed c(n, k)
    for n in range(1, 13):
        h = build_G(n)
        assert list(char_poly(h).coeffs) == _sympy_char_poly_coeffs(h)
