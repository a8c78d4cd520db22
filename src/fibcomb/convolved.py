"""Convolved Fibonacci numbers by three independent routes.

``convolved_fib(r, m)`` is the coefficient of x^(m-1) in (1 - x - x^2)^(-r),
i.e. the m-th term of the r-fold convolution of the Fibonacci sequence with
itself.  Row r = 1 is the Fibonacci sequence.  The same numbers fall out of

* a double binomial sum (``convolved_fib_binomial``), and
* sums of principal minors of the build_F matrices: entry n - k of
  ``leading_minor_sums(build_F(n))[-1]`` is ``convolved_fib(k+1, n-k+1)``,
  which the ``minors`` suite of ``verify`` checks,

which lets each route act as a check on the others.  ``convolved_fib``
returns the binomial sum, ``convolved_fib_binomial(m+r-2, r-1)``: O(m)
exact binomials, and the value ``fibcomb convolved R M`` prints.
``_series_rows`` keeps the convolution definition (r-1 truncated
convolutions, O(r·m^2)), and ``verify`` checks the binomial sum, the
minor sums and the characteristic-polynomial coefficients against it; one
chain of convolutions gives every order at once, each row the row before
convolved with row 1, so the series of orders 1..r cost what order r alone
does.  A whole table (``convolved_table``) comes from the linear row
recurrence of (1 - x - x^2)^(-r) instead, and is checked against both the
series and the binomial sum.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice
from math import comb

from .fib import fib
from .poly import convolve


def _series_rows(widths: Iterable[int]) -> Iterator[list[int]]:
    # rows r = 1, 2, ... of the convolved table by the convolution
    # definition, row r of widths[r-1] terms (widths must not grow): row 1
    # is fib(i+1), and each further row is the row before convolved with
    # row 1, cut to its width.  A generator, so two rows are live at a time.
    widths = iter(widths)
    base = [fib(i + 1) for i in range(next(widths))]
    series = base
    yield series
    for width in widths:
        series = convolve(series, base, width)
        yield series


def convolved_fib(r: int, m: int) -> int:
    """m-th convolved Fibonacci number of order r, by the binomial sum.

    Equals the sum of fib(j_1+1)*...*fib(j_r+1) over all nonnegative tuples
    with j_1+...+j_r = m-1; order 1 collapses to fib(m), and the first term
    of every row is 1.  Computed as ``convolved_fib_binomial(m+r-2, r-1)``,
    O(m) exact binomials.
    """
    if m < 1:
        raise ValueError(f"series index must be >= 1, got {m}")
    if r < 1:
        raise ValueError(f"convolution order must be >= 1, got {r}")
    return convolved_fib_binomial(m + r - 2, r - 1)


def convolved_table(r_max: int, m_max: int) -> list[list[int]]:
    """Rows r = 1..r_max of convolved Fibonacci numbers, m = 1..m_max each.

    (1 - x - x^2) A_r(x) = A_(r-1)(x) gives each row from the one above in
    O(m_max) additions: a[r][i] = a[r-1][i] + a[r][i-1] + a[r][i-2].
    """
    if r_max < 1 or m_max < 1:
        raise ValueError(f"table bounds must be >= 1, got r_max={r_max}, m_max={m_max}")
    return _convolved_rows([m_max] * r_max)


def _convolved_rows(widths: Iterable[int]) -> list[list[int]]:
    # rows r = 1, 2, ... of the convolved table, row r of widths[r-1] terms
    # (widths must not grow), each from the one above by the recurrence of
    # convolved_table in O(width) additions
    widths = list(widths)
    rows = [[fib(i + 1) for i in range(widths[0])]]
    for width in widths[1:]:
        row = []
        before, last = 0, 0  # a[r][i-2], a[r][i-1]
        for above in islice(rows[-1], width):
            before, last = last, above + last + before
            row.append(last)
        rows.append(row)
    return rows


def convolved_fib_binomial(n: int, k: int) -> int:
    """Convolved Fibonacci number of order k+1 at index n-k+1, via binomials.

    Computes sum over i of C(n-i, i) * C(n-2i, k); no series arithmetic, so it
    is independent of the convolution route.
    """
    if n < 0 or not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    return sum(
        comb(n - i, i) * comb(n - 2 * i, k) for i in range((n - k) // 2 + 1)
    )


def alternating_sum(n: int) -> int:
    """(-1)^n times the double sum of (-2)^k C(n-i, i) C(n-2i, k) over k and i."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    return (-1) ** n * sum((-2) ** k * convolved_fib_binomial(n, k) for k in range(n + 1))
