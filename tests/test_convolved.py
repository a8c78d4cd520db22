import pytest

from fibcomb.convolved import (
    _series_rows,
    alternating_sum,
    convolved_fib,
    convolved_fib_binomial,
    convolved_table,
)
from fibcomb.fib import fib, fib_poly, shift_poly
from fibcomb.hessenberg import EnumerationBoundError, build_F, leading_minor_sums


def convolved_series(r, length):
    # test-local reference: the first `length` coefficients of
    # (1 - x - x^2)^(-r) by the convolution definition, the last of the
    # series rows of orders 1..r; convolved_fib takes the binomial sum
    *_, series = _series_rows([length] * r)
    return series


def test_order_one_is_fibonacci():
    assert convolved_series(1, 8) == [1, 1, 2, 3, 5, 8, 13, 21]
    for m in range(1, 201):
        assert convolved_fib(1, m) == fib(m)


def test_hand_convolutions():
    assert convolved_fib(2, 2) == 2
    assert convolved_fib(3, 3) == 9
    assert convolved_fib(3, 2) == 3


def test_first_term_of_every_row_is_one():
    for r in range(1, 9):
        assert convolved_fib(r, 1) == 1


def test_rejects_bad_arguments():
    with pytest.raises(ValueError, match=r"^convolution order must be >= 1, got 0$"):
        convolved_fib(0, 3)
    # the index is checked before the order
    for r in (2, 0):
        with pytest.raises(ValueError, match=r"^series index must be >= 1, got 0$"):
            convolved_fib(r, 0)


def test_table_matches_pointwise_values():
    table = convolved_table(4, 10)
    assert len(table) == 4
    assert all(len(row) == 10 for row in table)
    for r, row in enumerate(table, start=1):
        for m, value in enumerate(row, start=1):
            assert value == convolved_fib(r, m)


def test_table_rows_equal_the_convolution_series():
    for m in (1, 2, 3, 60):
        for r in range(1, 13):
            assert convolved_table(r, m) == [convolved_series(q, m) for q in range(1, r + 1)]


def _double_sum_power(r, length):
    # first `length` terms of (sum fib(i+1) x^i)^r, one schoolbook product
    # at a time, written out independently of convolve
    base = [fib(i + 1) for i in range(length)]
    power = [1] + [0] * (length - 1) if length else []
    for _ in range(r):
        out = [0] * length
        for i, a in enumerate(power):
            for j, b in enumerate(base[: length - i]):
                out[i + j] += a * b
        power = out
    return power


def test_series_rows_are_the_convolution_powers():
    for m in range(31):
        for r in range(1, 9):
            assert convolved_series(r, m) == _double_sum_power(r, m)
    # shrinking widths cut each order where it ends, as verify reads them
    rows = list(_series_rows(range(31, 0, -1)))
    assert [len(row) for row in rows] == list(range(31, 0, -1))
    for r, row in enumerate(rows, start=1):
        assert row == _double_sum_power(r, len(row))


def test_large_table_matches_the_binomial_route():
    table = convolved_table(100, 1000)
    assert len(table) == 100 and all(len(row) == 1000 for row in table)
    for r in (1, 2, 3, 17, 50, 99, 100):
        for m in (1, 2, 3, 10, 333, 999, 1000):
            assert table[r - 1][m - 1] == convolved_fib_binomial(m + r - 2, r - 1)


def test_table_rejects_empty_bounds():
    with pytest.raises(ValueError):
        convolved_table(0, 5)


def test_binomial_route_examples():
    assert convolved_fib_binomial(2, 0) == 2
    assert convolved_fib_binomial(4, 2) == 9
    for n in range(12):
        assert convolved_fib_binomial(n, n) == 1
    with pytest.raises(ValueError):
        convolved_fib_binomial(3, 4)
    with pytest.raises(ValueError):
        convolved_fib_binomial(3, -1)


def test_minor_route_examples():
    # entry n - k of leading_minor_sums(build_F(n))[-1] is convolved_fib(k + 1, n - k + 1)
    assert leading_minor_sums(build_F(4))[-1][4 - 0] == 5
    assert leading_minor_sums(build_F(4))[-1][4 - 2] == 9
    assert leading_minor_sums(build_F(3))[-1][3 - 2] == 3


def test_minor_route_validates():
    # order 0 is the empty matrix: one row, its empty minor
    assert leading_minor_sums(build_F(0)) == [[1]]
    # k = n reads the empty minor, 1, which is also convolved_fib(n + 1, 1)
    assert leading_minor_sums(build_F(4))[-1][4 - 4] == 1 == convolved_fib(5, 1)
    with pytest.raises(EnumerationBoundError):
        leading_minor_sums(build_F(8), bound=6)


def test_triple_route_agreement_small():
    for n in range(1, 13):
        sums = leading_minor_sums(build_F(n))[-1]
        for k in range(n):
            series = convolved_series(k + 1, n - k + 1)[-1]
            assert series == convolved_fib(k + 1, n - k + 1)
            assert series == sums[n - k]


def test_two_route_agreement_larger():
    for k in range(41):
        series = convolved_series(k + 1, 41 - k)
        for n in range(max(13, k), 41):
            assert convolved_fib(k + 1, n - k + 1) == series[n - k]


def test_rows_are_nondecreasing():
    for r in range(1, 9):
        series = convolved_series(r, 61)
        for m in range(60):
            assert series[m + 1] >= series[m]


def test_charpoly_coefficient_expansion_small_cases():
    # n = 1: x - 1; n = 2: x^2 - 2x + 2 (coefficients lowest degree first)
    assert shift_poly(fib_poly(2)).coeffs == (-convolved_fib(1, 2), convolved_fib(2, 1))
    assert shift_poly(fib_poly(3)).coeffs == (
        convolved_fib(1, 3), -convolved_fib(2, 2), convolved_fib(3, 1))


def test_charpoly_coefficient_expansion_range():
    # fib_poly(n+1) composed with (x-1) has coefficient
    # (-1)^(n-k) * convolved_fib(k+1, n-k+1) at x^k
    for n in range(1, 26):
        shifted = shift_poly(fib_poly(n + 1))
        for k in range(n + 1):
            assert shifted.coefficient(k) == (-1) ** (n - k) * convolved_fib(k + 1, n - k + 1)


def test_alternating_sum_examples():
    assert alternating_sum(0) == 1
    assert alternating_sum(2) == 2  # terms 2 - 4 + 4


def test_alternating_identity_range():
    for n in range(41):
        assert alternating_sum(n) == fib(n + 1)


def test_alternating_sum_rejects_negative():
    with pytest.raises(ValueError):
        alternating_sum(-1)
