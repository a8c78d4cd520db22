import tracemalloc
from collections import Counter
from math import prod

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fibcomb.compositions import (
    ROUTES,
    _bitstring_row,
    _formula_row,
    c_formula,
    c_formula_wrong_index,
    triangle,
)
from fibcomb.convolved import _convolved_rows, convolved_table
from fibcomb.fib import fib
from fibcomb.hessenberg import EnumerationBoundError, build_F, leading_minor_sums


# --- test-local oracles -----------------------------------------------------


def _compositions_by_first_part(n):
    # test-local reference: every first part, then the compositions of the rest
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions_by_first_part(n - first):
            yield (first, *rest)


def _bit_runs(n):
    # run-length tuples of every length-n bit string that starts with 0: its
    # maximal runs, read off one bit at a time
    if n == 0:
        yield ()
        return
    for pattern in range(1 << (n - 1)):
        runs = []
        run = 1
        prev = 0
        bits = pattern
        for _ in range(n - 1):
            b = bits & 1
            bits >>= 1
            if b == prev:
                run += 1
            else:
                runs.append(run)
                run = 1
                prev = b
        runs.append(run)
        yield tuple(runs)


def _count_by_ones(tuples, n):
    # entry k: how many of the part (or run) tuples have exactly k ones
    counts = Counter(parts.count(1) for parts in tuples)
    return [counts[k] for k in range(n + 1)]


def _signed_tuples(parts, total):
    # every tuple of `parts` integers >= -1 summing to `total`
    if parts == 1:
        if total >= -1:
            yield (total,)
        return
    for j in range(-1, total + parts):
        for rest in _signed_tuples(parts - 1, total - j):
            yield (j,) + rest


def c_formula_naive(n, k):
    # test-local reference for c_formula: the literal sum of
    # fib(j_1)*...*fib(j_{k+1}) over the index tuples, exponential in k
    return sum(prod(fib(j) for j in t) for t in _signed_tuples(k + 1, n - 2 * k - 1))


def c_entry(n, k):
    # c_formula with the smallest convolved table that serves (n, k)
    return c_formula(n, k, convolved_table(k + 1, n - k + 1))


# --- the counting routes ----------------------------------------------------


def test_bruteforce_examples():
    rows = triangle(10, "bruteforce")
    assert rows[3][1] == 2
    assert rows[4][2] == 3
    for n in range(11):
        assert rows[n][n] == 1


def test_formula_edge_columns():
    for n in range(31):
        assert c_entry(n, 0) == fib(n - 1)
        assert c_entry(n, n) == 1


def test_formula_example():
    assert c_entry(3, 1) == 2


def test_formula_rejects_bad_k():
    ample = convolved_table(6, 6)
    with pytest.raises(ValueError):
        c_formula(4, 5, ample)
    with pytest.raises(ValueError):
        c_formula(4, -1, ample)


def test_formula_reads_a_shared_table_like_its_own():
    for n in range(61):
        table = convolved_table(n + 1, n + 1)
        for k in range(n + 1):
            assert c_formula(n, k, table) == c_entry(n, k)
        # the formula route's triangular table is the full one cut at index
        # n-k in row k+1, and gives the same row
        cut = [row[: n + 1 - k] for k, row in enumerate(table)]
        assert _convolved_rows(range(n + 1, 0, -1)) == cut
        assert _formula_row(n) == [c_formula(n, k, table) for k in range(n + 1)]
    for r, m in ((1, 1), (3, 7), (9, 4), (20, 31)):
        assert _convolved_rows([m] * r) == convolved_table(r, m)
    with pytest.raises(ValueError):
        c_formula(4, 1, convolved_table(2, 3))
    with pytest.raises(ValueError):
        c_formula(4, 2, convolved_table(2, 5))


def test_naive_tuple_sum_matches_series_route():
    for n in range(13):
        for k in range(n + 1):
            assert c_formula_naive(n, k) == c_entry(n, k)


def test_wrong_index_variant_differs():
    assert c_formula_wrong_index(3, 1) == 5
    assert triangle(3, "bruteforce")[3][1] == 2
    # its k = 0 column lands two Fibonacci steps too high
    for n in range(1, 9):
        assert c_formula_wrong_index(n, 0) == fib(n + 1)
        assert c_entry(n, 0) == fib(n - 1)
    # the shifted constraint reads the entry two rows down
    for n in range(41):
        for k in range(n + 1):
            assert c_formula_wrong_index(n, k) == c_entry(n + 2, k), (n, k)


def test_recurrence_examples():
    rows = triangle(11, "recurrence")
    assert rows[4][1] == 2
    for k in range(12):
        assert rows[k][k] == 1


def test_recurrence_matches_formula():
    rows = triangle(60, "recurrence")
    for n in [*range(31), 60]:
        for k in range(n + 1):
            assert rows[n][k] == c_entry(n, k)


def test_bitstring_oracle_examples():
    row = triangle(3, "bitstring")[3]
    assert row[1] == 2
    assert row[3] == 1
    assert row[0] == 1


def test_bitstring_bound():
    with pytest.raises(EnumerationBoundError):
        triangle(25, "bitstring")


def test_bitstring_row_counts_the_runs():
    rows = triangle(16, "bitstring")
    for n in range(17):
        assert rows[n] == _count_by_ones(_bit_runs(n), n)


def _bitstring_row_pattern_by_pattern(n):
    # test-local oracle: one loop step per pattern.  Read p < 2^(n-1) as a
    # string starting with 0; bit i+1 of d marks a run boundary between
    # bits i and i+1 of p, bits 0 and n the two ends, so a single is two
    # adjacent marks
    counts = [0] * (n + 1)
    if n == 0:
        counts[0] = 1
        return counts
    ends = 1 | 1 << n
    for p in range(1 << (n - 1)):
        d = (p ^ (p >> 1)) << 1 | ends
        counts[(d & (d >> 1)).bit_count()] += 1
    return counts


def test_bit_sliced_scan_matches_the_pattern_by_pattern_scan():
    # rows 18-20 take more than one block of lanes
    for n in range(21):
        row = _bitstring_row(n)
        assert row == _bitstring_row_pattern_by_pattern(n)
        if n >= 1:
            assert sum(row) == 2 ** (n - 1)


def test_bitstring_triangle_at_its_cap_matches_the_recurrence():
    bitstring, recurrence = triangle(24, "bitstring"), triangle(24, "recurrence")
    assert bitstring == recurrence


def test_bruteforce_walk_counts_the_enumerated_compositions():
    rows = triangle(16, "bruteforce")
    for n in range(17):
        assert rows[n] == _count_by_ones(_compositions_by_first_part(n), n)


def test_bruteforce_walk_visits_each_composition_of_each_m_once():
    # each composition of each level is one byte, counted once under its
    # number of 1s, so the counts total the compositions of every m <= N:
    # 1 + sum 2^(m-1) = 2^N
    for n_max in range(21):
        assert sum(sum(row) for row in triangle(n_max, "bruteforce")) == 2 ** n_max


@pytest.mark.parametrize("n_max", range(21))
def test_bruteforce_walk_matches_the_recurrence(n_max):
    # each level is its parent level raised by one joined with every level
    # below the parent; at n_max 0 and 1 no level below the parent is joined
    bruteforce, recurrence = triangle(n_max, "bruteforce"), triangle(n_max, "recurrence")
    assert bruteforce == recurrence


def test_bruteforce_walk_at_its_cap_stays_under_24_mib():
    # one byte per composition, 2^24 in all, plus the raised copy of the
    # parent level as the last level is joined: about 20 MiB at the peak
    tracemalloc.start()
    try:
        triangle(24, "bruteforce")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_runs_biject_with_compositions():
    for n in range(15):
        assert Counter(_bit_runs(n)) == Counter(_compositions_by_first_part(n))


def test_minor_route_examples():
    rows = triangle(4, "minors")
    assert rows[4][0] == 2
    assert rows[4][2] == 3
    assert rows[3][3] == 1
    assert rows[0][0] == 1


def test_minor_route_propagates_bound():
    with pytest.raises(EnumerationBoundError):
        triangle(8, "minors", bound=6)


def test_five_route_agreement_small():
    bruteforce = triangle(10, "bruteforce")
    bitstring, minors = triangle(10, "bitstring"), triangle(10, "minors")
    recurrence = triangle(10, "recurrence")
    for n in range(11):
        for k in range(n + 1):
            expected = bruteforce[n][k]
            assert c_entry(n, k) == expected
            assert recurrence[n][k] == expected
            assert bitstring[n][k] == expected
            assert minors[n][k] == expected


# --- the triangle -----------------------------------------------------------


def test_triangle_first_rows():
    rows = triangle(4)
    assert rows == [
        [1],
        [0, 1],
        [1, 0, 1],
        [1, 2, 0, 1],
        [2, 2, 3, 0, 1],
    ]


@pytest.mark.parametrize("route", ROUTES)
def test_triangle_zero_is_the_empty_composition_alone(route):
    assert triangle(0, route) == [[1]]


def test_triangle_routes_agree():
    reference = triangle(9)
    for route in ("bruteforce", "recurrence", "bitstring", "minors", "charpoly"):
        assert triangle(9, route=route) == reference


def test_formula_and_recurrence_triangles_agree_to_rows_80_and_150():
    for n_max in (80, 150):
        formula, recurrence = triangle(n_max), triangle(n_max, "recurrence")
        assert formula == recurrence
        assert triangle(n_max, "charpoly") == recurrence


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 120).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_triangle_entry_matches_recurrence_at_random(nk):
    n, k = nk
    assert triangle(n, "recurrence")[n][k] == c_entry(n, k)


def test_triangle_row_sums():
    for n, row in enumerate(triangle(30)[1:], 1):
        assert sum(row) == 2 ** (n - 1)


def test_triangle_penultimate_column_vanishes():
    for row in triangle(30)[2:]:
        assert row[-2] == 0


def test_triangle_validates_route_and_bounds():
    with pytest.raises(ValueError):
        triangle(3, route="magic")
    with pytest.raises(ValueError):
        triangle(-1)
    with pytest.raises(EnumerationBoundError):
        triangle(30, route="bruteforce")
    with pytest.raises(EnumerationBoundError):
        triangle(21, route="minors")
    with pytest.raises(EnumerationBoundError):
        triangle(10, route="bitstring", bound=9)


@pytest.mark.parametrize("route, message", [
    ("bruteforce", r"^target 12 exceeds the enumeration bound 9 "),
    ("bitstring", r"^target 12 exceeds the enumeration bound 9 "),
    ("minors", r"^order 12 exceeds the enumeration bound 9 "),
])
def test_capped_routes_refuse_n_max_before_building_a_row(route, message):
    # a row-by-row check would name row 10, the first row above the cap
    with pytest.raises(EnumerationBoundError, match=message):
        triangle(12, route, bound=9)


_TARGET_REFUSAL = (r"^target {} exceeds the enumeration bound {} \(2\^\(n-1\) items\); "
                   r"pass a larger bound to force it$")
_ORDER_REFUSAL = (r"^order {} exceeds the enumeration bound {} \(2\^n principal-minor "
                  r"subsets\); pass a larger bound to force it$")


@pytest.mark.parametrize("enumerate_, message", [
    (lambda: triangle(25, "bruteforce"), _TARGET_REFUSAL.format(25, 24)),
    (lambda: triangle(25, "bitstring"), _TARGET_REFUSAL.format(25, 24)),
    (lambda: triangle(21, "minors"), _ORDER_REFUSAL.format(21, 20)),
    (lambda: leading_minor_sums(build_F(21)), _ORDER_REFUSAL.format(21, 20)),
    (lambda: triangle(10, "bruteforce", bound=9), _TARGET_REFUSAL.format(10, 9)),
    (lambda: triangle(5, "minors", bound=4), _ORDER_REFUSAL.format(5, 4)),
], ids=["compositions", "bitstring", "minor-sums",
        "leading-minor-sums", "compositions-override", "minor-sums-override"])
def test_enumeration_refusals_word_for_word(enumerate_, message):
    with pytest.raises(EnumerationBoundError, match=message):
        enumerate_()
