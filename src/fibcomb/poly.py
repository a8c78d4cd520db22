"""Dense integer-coefficient polynomials with exact arithmetic.

Arithmetic is between polynomials only: an int operand is refused with
``TypeError``, so a constant enters as ``IntPolynomial.constant(c)``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import add


class IntPolynomial:
    """Polynomial over the integers, stored as a dense coefficient tuple.

    ``coeffs[i]`` is the coefficient of ``x**i``.  The zero polynomial is the
    empty tuple; otherwise the last coefficient is nonzero.  Instances are
    immutable, hashable, and safe to share between threads.  ``+``, ``-``
    and ``*`` take two polynomials; ``==`` also compares with an int.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        stripped = list(coeffs)
        while stripped and stripped[-1] == 0:
            stripped.pop()
        self.coeffs: tuple[int, ...] = tuple(stripped)

    @classmethod
    def one(cls) -> IntPolynomial:
        return cls((1,))

    @classmethod
    def x(cls) -> IntPolynomial:
        return cls((0, 1))

    @classmethod
    def constant(cls, value: int) -> IntPolynomial:
        return cls((value,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, power: int) -> int:
        """Coefficient of ``x**power`` (0 beyond the stored degree)."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(-c for c in self.coeffs)

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        # instances are immutable, so a sum with zero can be the other operand
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial((*map(add, a, b), *a[len(b):]))

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        # a zero or unit factor, as most Hessenberg entries are, needs no
        # convolution
        if not a or b == (1,):
            return self
        if not b or a == (1,):
            return other
        return IntPolynomial(convolve(a, b, len(a) + len(b) - 1))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for power in range(self.degree, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            if parts:
                sign = " + " if c > 0 else " - "
            else:
                sign = "" if c > 0 else "-"
            mag = abs(c)
            if power == 0:
                term = str(mag)
            else:
                var = "x" if power == 1 else f"x^{power}"
                term = var if mag == 1 else f"{mag}{var}"
            parts.append(sign + term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs!r})"


def convolve(a: Sequence[int], b: Sequence[int], length: int) -> list[int]:
    """First ``length`` coefficients of the product of two coefficient sequences."""
    out = [0] * length
    for i, ai in enumerate(a[:length]):
        if ai:
            for j, bj in enumerate(b[: length - i]):
                out[i + j] += ai * bj
    return out
