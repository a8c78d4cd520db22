"""Fibonacci numbers on the extended index range, and Fibonacci polynomials.

The index convention used throughout the package starts one step before the
usual seed pair: fib(-1) = 1, fib(0) = 0, fib(1) = 1.  Indices below -1 are
rejected.  All results are exact Python ints.

``fib`` runs fast doubling over the bits of n, F(2k) = F(k)(2F(k+1) - F(k))
and F(2k+1) = F(k)^2 + F(k+1)^2: O(log n) big-int products instead of n
additions, so ``fib(100000)`` is a few milliseconds.  The tests keep the
plain additive loop, and the binomial form of ``fib_poly``, as the oracles
they are checked against.
"""

from __future__ import annotations

from .poly import IntPolynomial


def fib(n: int) -> int:
    """Fibonacci number with the extended anchor fib(-1) = 1, fib(0) = 0."""
    if n < -1:
        raise ValueError(f"Fibonacci index must be >= -1, got {n}")
    if n == -1:
        return 1
    a, b = 0, 1  # fib(k), fib(k+1) for k = the leading bits of n read so far
    for shift in range(n.bit_length() - 1, -1, -1):
        a, b = a * (2 * b - a), a * a + b * b  # k -> 2k
        if n >> shift & 1:
            a, b = b, a + b  # 2k -> 2k + 1
    return a


def fib_poly(n: int) -> IntPolynomial:
    """n-th Fibonacci polynomial by the recurrence.

    fib_poly(1) = 1, fib_poly(2) = x, fib_poly(n+1) = x*fib_poly(n) + fib_poly(n-1).
    The result has degree n - 1, and evaluating it at 1 gives fib(n).
    """
    if n < 1:
        raise ValueError(f"fib_poly index must be >= 1, got {n}")
    prev = IntPolynomial.one()
    if n == 1:
        return prev
    x = IntPolynomial.x()
    cur = x
    for _ in range(n - 2):
        prev, cur = cur, x * cur + prev
    return cur


def shift_poly(p: IntPolynomial) -> IntPolynomial:
    """Exact composition p(x - 1), by a Taylor shift of the coefficients.

    p(x - 1) = sum b_i x^i exactly when p(x) = sum b_i (x + 1)^i.  Pass i
    divides the quotient held in coeffs[i:] by x + 1 synthetically and
    leaves the remainder b_i in coeffs[i]: deg(deg + 1) / 2 integer
    subtractions and no polynomial products.
    """
    coeffs = list(p.coeffs)
    for i in range(len(coeffs) - 1):
        for j in range(len(coeffs) - 2, i - 1, -1):
            coeffs[j] -= coeffs[j + 1]
    return IntPolynomial(coeffs)
