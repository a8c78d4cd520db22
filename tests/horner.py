"""Evaluation and composition of an IntPolynomial, for the tests only."""

from fibcomb.poly import IntPolynomial


def horner(p, value):
    # p(value) by Horner's scheme: an int at an int, a polynomial at an
    # IntPolynomial, whose constants are lifted since the package multiplies
    # and adds polynomials only with polynomials
    lift = IntPolynomial.constant if isinstance(value, IntPolynomial) else int
    result = lift(0)
    for c in reversed(p.coeffs):
        result = result * value + lift(c)
    return result
