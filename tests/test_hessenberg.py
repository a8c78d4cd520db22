import itertools
import math
import random
import tracemalloc
from collections import deque

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fibcomb import hessenberg
from fibcomb.compositions import triangle
from fibcomb.fib import fib, fib_poly, shift_poly
from fibcomb.hessenberg import (
    CAPS,
    EnumerationBoundError,
    HessenbergMatrix,
    adjugate_det_F,
    adjugate_oracle,
    build_F,
    build_G,
    char_poly,
    cofactor_F,
    det,
    det_oracle,
    leading_char_polys,
    leading_dets,
    leading_minor_sums,
)
from fibcomb.poly import IntPolynomial

from horner import horner


def _det_cofactor(m):
    # test-local reference determinant: first-row cofactor expansion
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j, v in enumerate(m[0]):
        if v:
            sub = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * v * _det_cofactor(sub)
    return total


def dense_cofactor(matrix, i, j):
    # test-local reference cofactor: (-1)^(i+j) times the oracle determinant
    # of matrix with row i and column j removed, one elimination per entry
    sub = [
        [v for c, v in enumerate(row, start=1) if c != j]
        for r, row in enumerate(matrix, start=1)
        if r != i
    ]
    return (-1) ** (i + j) * det_oracle(sub)


@st.composite
def hessenberg_matrices(draw, max_order=7):
    n = draw(st.integers(1, max_order))
    rows = [
        draw(st.lists(st.integers(-3, 3), min_size=n - i, max_size=n - i))
        for i in range(n)
    ]
    return HessenbergMatrix(rows)


@st.composite
def constant_tailed_hessenberg_matrices(draw, max_order=40):
    # each row is a drawn head followed by one drawn value repeated to its
    # end, as build_F's rows end in zeros and build_G's in ones; det and
    # char_poly take each tail in one product
    n = draw(st.integers(1, max_order))
    rows = []
    for i in range(n):
        kept = draw(st.integers(0, n - i))
        head = draw(st.lists(st.integers(-3, 3), min_size=kept, max_size=kept))
        rows.append(head + [draw(st.integers(-3, 3))] * (n - i - kept))
    return HessenbergMatrix(rows)


@st.composite
def zero_heavy_hessenberg_matrices(draw, max_order=8):
    # mostly zero entries, so that many principal submatrices have a zero
    # leading entry or a column with no pivot in the rows above it
    n = draw(st.integers(1, max_order))
    entries = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3))
    return HessenbergMatrix(
        draw(st.lists(entries, min_size=n - i, max_size=n - i)) for i in range(n)
    )


@st.composite
def square_matrices(draw, max_order=5):
    n = draw(st.integers(0, max_order))
    return [
        draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(n)
    ]


@st.composite
def zero_heavy_square_matrices(draw, max_order=8):
    # mostly zero entries and a zero diagonal: most elimination steps have a
    # zero factor, and each pivot column needs a row swap, often of a row
    # that has skipped a run of steps and still carries its deferred scaling
    n = draw(st.integers(0, max_order))
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 0
    return rows


# --- construction ---------------------------------------------------------


def test_build_F_small():
    assert build_F(1).materialize() == [[1]]
    assert build_F(2).materialize() == [[1, 1], [-1, 1]]


def test_build_F_pattern():
    n = 6
    full = build_F(n).materialize()
    for i in range(n):
        for j in range(n):
            if j == i or j == i + 1:
                assert full[i][j] == 1
            elif i == j + 1:
                assert full[i][j] == -1
            else:
                assert full[i][j] == 0


def test_build_G_pattern():
    n = 6
    full = build_G(n).materialize()
    for i in range(n):
        for j in range(n):
            if j > i:
                assert full[i][j] == 1
            elif i == j + 1:
                assert full[i][j] == -1
            else:
                assert full[i][j] == 0


def test_builders_start_at_order_zero():
    for build in (build_F, build_G):
        with pytest.raises(ValueError, match=r"^matrix order must be >= 0, got -1$"):
            build(-1)
    assert build_F(0) == build_G(0) == HessenbergMatrix([])


def test_ragged_upper_table_rejected():
    with pytest.raises(ValueError):
        HessenbergMatrix([[1, 2], [3, 4]])


def _upper_rows(full):
    return [row[i:] for i, row in enumerate(full)]


@pytest.mark.parametrize("build", [build_F, build_G])
def test_families_equal_their_materialized_rows(build):
    # the builders store their rows directly; the constructor splits full
    # rows, and both must give the same matrix
    for n in range(13):
        h = build(n)
        rebuilt = HessenbergMatrix(_upper_rows(h.materialize()))
        assert rebuilt == h
        assert hash(rebuilt) == hash(h)


@given(st.one_of(hessenberg_matrices(), constant_tailed_hessenberg_matrices(max_order=12)))
@settings(deadline=None)
def test_materialize_round_trips_with_minus_one_on_the_subdiagonal(h):
    full = h.materialize()
    assert HessenbergMatrix(_upper_rows(full)) == h
    # below the diagonal: -1 on the subdiagonal and 0 under it
    assert all(full[i][j] == (-1 if j == i - 1 else 0) for i in range(h.n) for j in range(i))


def test_matrices_with_different_tails_differ():
    assert HessenbergMatrix([[1, 0], [0]]) != HessenbergMatrix([[1, 1], [0]])
    assert HessenbergMatrix([[1, 1], [1]]) != HessenbergMatrix([[1, 1], [0]])


# --- determinants ---------------------------------------------------------


def test_det_of_one_by_one():
    assert det(HessenbergMatrix([[7]])) == 7


def test_det_F_examples():
    assert det(build_F(5)) == 8
    assert det_oracle(build_F(6).materialize()) == 13


def test_det_G_examples():
    assert det(build_G(1)) == 0
    assert det(build_G(2)) == 1
    assert det(build_G(6)) == 5


def test_det_families_match_fibonacci():
    for n in [*range(16), 150, 650, 1000]:
        assert det(build_F(n)) == fib(n + 1)
        assert det(build_G(n)) == fib(n - 1)


def test_det_families_at_order_20000():
    # O(n) products for both families, so this takes well under a second
    assert det(build_G(20000)) == fib(19999)
    assert det(build_F(20000)) == fib(20001)


@given(hessenberg_matrices())
def test_expansion_det_equals_oracle(h):
    assert det(h) == det_oracle(h.materialize())


@given(constant_tailed_hessenberg_matrices())
@settings(max_examples=40, deadline=None)
def test_expansion_det_equals_oracle_on_constant_tailed_rows(h):
    assert det(h) == det_oracle(h.materialize())


@given(constant_tailed_hessenberg_matrices(max_order=20), st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_char_poly_at_t_is_det_of_t_minus_h_on_constant_tailed_rows(h, t):
    full = h.materialize()
    shifted = [[t * (i == j) - v for j, v in enumerate(row)] for i, row in enumerate(full)]
    assert horner(char_poly(h), t) == det_oracle(shifted)


def test_order_zero_gives_one():
    empty = HessenbergMatrix([])
    assert det(empty) == 1
    assert char_poly(empty) == 1
    assert list(leading_dets(empty)) == [1]
    assert list(leading_char_polys(empty)) == [IntPolynomial.one()]


def _leading_blocks(h):
    # the leading m x m blocks of h, m = 0..n, each built from its own entries
    full = h.materialize()
    return [HessenbergMatrix(row[i:m] for i, row in enumerate(full[:m]))
            for m in range(h.n + 1)]


@given(constant_tailed_hessenberg_matrices())
@settings(max_examples=40, deadline=None)
def test_leading_dets_are_the_oracle_determinants_of_the_leading_blocks(h):
    assert list(leading_dets(h)) == [
        det_oracle(block.materialize()) for block in _leading_blocks(h)]


@given(constant_tailed_hessenberg_matrices(max_order=20))
@settings(max_examples=30, deadline=None)
def test_leading_char_polys_are_the_char_polys_of_the_leading_blocks(h):
    assert list(leading_char_polys(h)) == list(map(char_poly, _leading_blocks(h)))


@pytest.mark.parametrize("build", [build_F, build_G])
def test_the_three_leading_walks_give_the_same_orders(build):
    # row m of each walk over build(n) is the value of build(m), from m = 0
    for n in range(13):
        h = build(n)
        dets, polys = list(leading_dets(h)), list(leading_char_polys(h))
        sums = leading_minor_sums(h)
        assert len(dets) == len(polys) == len(sums) == n + 1
        for m in range(n + 1):
            block = build(m)
            assert dets[m] == det(block), (n, m)
            assert polys[m] == char_poly(block), (n, m)
            assert sums[m] == leading_minor_sums(block)[-1], (n, m)


def test_leading_char_polys_keep_no_passed_polynomial():
    # read and dropped one by one, the 300 polynomials leave the walk holding
    # a few open columns, under the same ceiling as char_poly
    h = build_G(300)
    tracemalloc.start()
    try:
        deque(leading_char_polys(h), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


def test_det_oracle_conventions():
    assert det_oracle([]) == 1
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    assert det_oracle(identity) == 1
    assert det_oracle([[1, 2], [1, 2]]) == 0


def test_det_oracle_rejects_non_square():
    with pytest.raises(ValueError):
        det_oracle([[1, 2, 3], [4, 5, 6]])


@given(square_matrices())
@settings(deadline=None)
def test_det_oracle_matches_cofactor_expansion(m):
    assert det_oracle(m) == _det_cofactor(m)


@given(zero_heavy_square_matrices())
@settings(max_examples=300, deadline=None)
def test_det_oracle_with_deferred_scalings_matches_cofactor_expansion(m):
    assert det_oracle(m) == _det_cofactor(m)


def test_det_oracle_of_the_families_up_to_order_60():
    # on Hessenberg input only the subdiagonal row has a nonzero factor at
    # each column, so the oracle makes O(n^2) steps
    for n in range(1, 61):
        assert det_oracle(build_F(n).materialize()) == fib(n + 1)
        assert det_oracle(build_G(n).materialize()) == fib(n - 1)


# --- principal minors -----------------------------------------------------


def principal_minor(h, deleted):
    # test-local reference: det_oracle of the submatrix kept after deleting
    # the listed rows and matching columns (1-based); deleting every index
    # leaves the empty matrix, whose determinant is 1
    full = h.materialize()
    kept = [i for i in range(h.n) if i + 1 not in deleted]
    return det_oracle([[full[r][c] for c in kept] for r in kept])


def _f_block_product(n, deleted):
    out, prev = 1, 0
    for d in deleted:
        out *= fib(d - prev)
        prev = d
    return out * fib(n - prev + 1)


def _g_block_product(n, deleted):
    out, prev = 1, 0
    for d in deleted:
        out *= fib(d - prev - 2)
        prev = d
    return out * fib(n - prev - 1)


def test_single_deletion_from_F():
    for n in range(1, 11):
        h = build_F(n)
        for i in range(1, n + 1):
            assert principal_minor(h, [i]) == fib(i) * fib(n - i + 1)


def test_delete_everything_gives_one():
    h = build_F(4)
    assert principal_minor(h, [1, 2, 3, 4]) == 1
    assert principal_minor(h, []) == det(h)


def test_F_block_product_formula_all_subsets():
    for n in range(1, 13):
        h = build_F(n)
        for size in range(n + 1):
            for deleted in itertools.combinations(range(1, n + 1), size):
                assert principal_minor(h, deleted) == _f_block_product(n, deleted)


def test_G_block_product_formula_all_subsets():
    for n in range(1, 11):
        h = build_G(n)
        for size in range(n + 1):
            for deleted in itertools.combinations(range(1, n + 1), size):
                assert principal_minor(h, deleted) == _g_block_product(n, deleted)


def test_minor_sums_conventions():
    h = build_F(4)
    sums = leading_minor_sums(h)[-1]
    assert sums[0] == 1
    assert sums[4] == det(h)
    assert sums[2] == 9


def test_minor_sums_respects_bound():
    with pytest.raises(EnumerationBoundError):
        leading_minor_sums(build_F(5), bound=4)
    assert len(leading_minor_sums(build_F(5), bound=5)[-1]) == 6


def test_leading_minor_sums_refusal_words():
    refusal = (r"^order 5 exceeds the enumeration bound 4 \(2\^n principal-minor "
               r"subsets\); pass a larger bound to force it$")
    with pytest.raises(EnumerationBoundError, match=refusal):
        leading_minor_sums(build_F(5), bound=4)
    assert len(leading_minor_sums(build_F(5), bound=5)) == 6


def _minor_sums_by_subsets(h):
    # test-local reference: one oracle principal minor per deleted subset.
    # principal_minor runs det_oracle, which the walk also uses for its
    # blocks, so up to order 8 each minor is checked against the cofactor
    # expansion too, which shares nothing with the walk
    full = h.materialize()
    sums = [0] * (h.n + 1)
    for size in range(h.n + 1):
        for deleted in itertools.combinations(range(1, h.n + 1), size):
            minor = principal_minor(h, deleted)
            if h.n <= 8:
                kept = [i for i in range(h.n) if i + 1 not in deleted]
                assert minor == _det_cofactor([[full[r][c] for c in kept] for r in kept])
            sums[h.n - size] += minor
    return sums


@given(zero_heavy_hessenberg_matrices())
@settings(max_examples=60, deadline=None)
def test_minor_sums_equal_the_sum_over_every_subset(h):
    leading = leading_minor_sums(h)
    assert leading == list(map(_minor_sums_by_subsets, _leading_blocks(h)))


def test_minor_sums_with_nontrivial_pivots_equal_the_sum_over_every_subset():
    # zero-heavy rows give many runs whose block determinant is 0, and
    # entries other than +-1 make the block products more than a sign
    rng = random.Random(18)
    for _ in range(300):
        n = rng.randint(1, 8)
        h = HessenbergMatrix(
            [rng.choice((0, 0, 0, 2, -3, 5)) for _ in range(n - i)] for i in range(n))
        assert leading_minor_sums(h) == list(map(_minor_sums_by_subsets, _leading_blocks(h)))


def test_minor_sums_with_zero_diagonals_equal_the_sum_over_every_subset():
    # a zero diagonal makes every run of one index a zero block, so many
    # subsets are zero products, and each is still visited and added
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(1, 8)
        h = HessenbergMatrix(
            [0, *(rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(n - i - 1))]
            for i in range(n))
        assert leading_minor_sums(h) == list(map(_minor_sums_by_subsets, _leading_blocks(h)))


def test_a_minor_takes_its_sign_from_the_block_product():
    # {1, 2} is one run, whose block [[0, 3], [-1, 5]] has determinant 3,
    # not -3: the walk multiplies block determinants as they are and keeps
    # no sign of its own.  {1, 2, 3} is the whole matrix, det(h) = 14.
    h = HessenbergMatrix([[0, 3, 2], [5, 1], [4]])
    assert principal_minor(h, [3]) == 3
    assert det(h) == 14
    leading = leading_minor_sums(h)
    assert leading[2][2] == 3
    assert leading[3][3] == 14
    assert leading == list(map(_minor_sums_by_subsets, _leading_blocks(h)))


@pytest.mark.parametrize("build", [build_F, build_G])
def test_minor_sums_of_the_families_equal_the_sum_over_every_subset(build):
    # build_G's zero diagonal makes every run of one index a zero block,
    # and build(n) is the leading n-block of build(12)
    leading = leading_minor_sums(build(12))
    blocks = _leading_blocks(build(12))
    assert leading[0] == [1]
    for n in range(1, 13):
        h = build(n)
        assert blocks[n] == h
        assert leading_minor_sums(h)[-1] == leading[n] == _minor_sums_by_subsets(h)


def test_every_subset_is_visited_once_at_the_cap():
    # with 1 on the diagonal and 0 above it every principal submatrix is unit
    # lower triangular, so each subset adds exactly 1 to its size's sum
    n = CAPS["minors"][0]
    h = HessenbergMatrix([1] + [0] * (n - i - 1) for i in range(n))
    assert leading_minor_sums(h) == [[math.comb(m, k) for k in range(m + 1)] for m in range(n + 1)]


def _distinct_blocks(h):
    return {h.rows[a : b + 1] for b in range(h.n) for a in range(b + 1)}


def _oracle_calls(monkeypatch):
    # the orders of the blocks the walk hands to det_oracle, one per call
    calls = []

    def counted(matrix):
        calls.append(len(matrix))
        return det_oracle(matrix)

    monkeypatch.setattr(hessenberg, "det_oracle", counted)
    return calls


@pytest.mark.parametrize("build", [build_F, build_G])
@pytest.mark.parametrize("n", [1, 2, 3, 12, 20])
def test_one_oracle_call_per_distinct_block_of_the_families(monkeypatch, build, n):
    # build_F(20) has 3n-4 = 56 distinct blocks of its 210, build_G(20)
    # 2n-1 = 39
    h = build(n)
    calls = _oracle_calls(monkeypatch)
    leading_minor_sums(h)
    assert len(calls) == len(_distinct_blocks(h))
    if n == 20:
        assert len(calls) == {build_F: 56, build_G: 39}[build]


def test_one_oracle_call_per_distinct_block_of_repeating_rows(monkeypatch):
    # rows drawn from a few (head, tail) pairs repeat, so blocks do
    rng = random.Random(26)
    calls = _oracle_calls(monkeypatch)
    for _ in range(100):
        n = rng.randint(1, 8)
        h = HessenbergMatrix(
            [rng.choice((0, 1)), *[rng.choice((0, 1))] * (n - i - 1)] for i in range(n))
        calls.clear()
        assert leading_minor_sums(h) == list(map(_minor_sums_by_subsets, _leading_blocks(h)))
        assert len(calls) == len(_distinct_blocks(h))


def test_every_block_of_distinct_rows_goes_to_the_oracle_once(monkeypatch):
    # row i has diagonal i + 1, so no two blocks are equal: n(n+1)/2 calls,
    # b - a + 1 = L for n - L + 1 of them
    n = 12
    h = HessenbergMatrix([i + 1] + [0] * (n - i - 1) for i in range(n))
    calls = _oracle_calls(monkeypatch)
    leading_minor_sums(h)
    assert len(calls) == n * (n + 1) // 2
    assert sorted(calls) == sorted(
        length for length in range(1, n + 1) for _ in range(n - length + 1))


def test_walk_keeps_only_the_minors_a_later_run_extends():
    # at order 20 the walk keeps the 2^18 minors of largest index at most
    # 17, a 2.1 MiB tracemalloc peak for build_F(20) when measured; 3 MiB
    # allows 40% over that, and keeping all 2^20 would take four times as
    # many list slots, 8 MiB of pointers alone
    h = build_F(20)
    tracemalloc.start()
    try:
        leading_minor_sums(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


# --- characteristic polynomial --------------------------------------------


def test_char_poly_example():
    assert char_poly(build_F(2)) == IntPolynomial((2, -2, 1))


def test_char_poly_monic_of_degree_n():
    for n in range(1, 10):
        p = char_poly(build_F(n))
        assert p.degree == n
        assert p.coefficient(n) == 1


def test_char_poly_at_zero_recovers_det():
    for build in (build_F, build_G):
        for n in range(1, 10):
            h = build(n)
            assert (-1) ** n * horner(char_poly(h), 0) == det(h)


def test_char_poly_is_shifted_fibonacci_polynomial():
    for n in [*range(1, 13), 200]:
        assert char_poly(build_F(n)) == shift_poly(fib_poly(n + 1))


@pytest.mark.parametrize("build", [build_F, build_G])
def test_char_poly_keeps_no_finished_leading_determinant(build):
    # kept, the 300 leading determinants of order m hold O(m^2) bits each,
    # megabytes in all; cleared, the walk holds a few open columns
    h = build(300)
    tracemalloc.start()
    try:
        char_poly(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


def test_char_poly_coefficients_are_signed_minor_sums():
    for n in range(1, 11):
        h = build_G(n)
        sums = leading_minor_sums(h)[-1]
        p = char_poly(h)
        for k in range(n + 1):
            assert p.coefficient(k) == (-1) ** (n - k) * sums[n - k]


def test_char_poly_of_G_has_the_composition_counts_as_coefficients():
    # the paper's headline claim: c(n, k) up to sign is the coefficient of x^k
    # in the characteristic polynomial of build_G(n), whose rows have tail 1
    rows = triangle(120, "recurrence")
    for n in range(1, 121):
        p = char_poly(build_G(n))
        assert p.degree == n
        for k in range(n + 1):
            assert p.coefficient(k) == (-1) ** (n - k) * rows[n][k]


@given(hessenberg_matrices(max_order=5))
@settings(deadline=None)
def test_char_poly_coefficient_identity_random(h):
    sums = leading_minor_sums(h)[-1]
    p = char_poly(h)
    for k in range(h.n + 1):
        assert p.coefficient(k) == (-1) ** (h.n - k) * sums[h.n - k]


# --- cofactors and the cofactor matrix -------------------------------------


def test_cofactor_examples():
    assert cofactor_F(2, 1, 1) == 1
    assert cofactor_F(2, 2, 1) == -1


def test_cofactor_matches_oracle():
    for n in range(1, 7):
        full = build_F(n).materialize()
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert cofactor_F(n, i, j) == dense_cofactor(full, i, j)


def test_cofactor_rejects_bad_positions():
    with pytest.raises(ValueError):
        cofactor_F(3, 0, 1)
    with pytest.raises(ValueError):
        cofactor_F(3, 1, 4)
    with pytest.raises(ValueError, match=r"^cofactor position \(1, 1\) outside 1\.\.0$"):
        cofactor_F(0, 1, 1)


def _reference_adjugate(matrix):
    n = len(matrix)
    return [[dense_cofactor(matrix, j, i) for j in range(1, n + 1)] for i in range(1, n + 1)]


def _nonsingular_matrices(rng, count, max_order=7):
    # about half the entries are 0, and every other matrix starts with a 0
    # pivot, so the elimination meets zero pivots and row swaps
    found = []
    while len(found) < count:
        n = rng.randint(1, max_order)
        m = [[rng.choice((0, rng.randint(-5, 5))) for _ in range(n)] for _ in range(n)]
        if len(found) % 2:
            m[0][0] = 0
        if det_oracle(m):
            found.append(m)
    return found


def test_adjugate_oracle_examples():
    assert adjugate_oracle([]) == []
    assert adjugate_oracle([[-7]]) == [[1]]
    assert adjugate_oracle([[1, 2], [3, 4]]) == [[4, -2], [-3, 1]]
    assert adjugate_oracle([[0, 1], [1, 0]]) == [[0, -1], [-1, 0]]


def test_adjugate_oracle_is_the_transposed_reference_cofactors():
    for m in _nonsingular_matrices(random.Random(28), 300):
        assert adjugate_oracle(m) == _reference_adjugate(m), m


@pytest.mark.parametrize("build, first", [(build_F, 1), (build_G, 2)])
def test_adjugate_oracle_on_the_families(build, first):
    # build_G has a zero diagonal, so every column but the last needs a swap
    for n in range(first, 12):
        full = build(n).materialize()
        assert adjugate_oracle(full) == _reference_adjugate(full), n


def test_adjugate_times_matrix_is_determinant_times_identity():
    matrices = _nonsingular_matrices(random.Random(29), 100)
    matrices += [build_G(n).materialize() for n in range(2, 12)]
    for m in matrices:
        n = len(m)
        adj = adjugate_oracle(m)
        d = det_oracle(m)
        product = [[sum(adj[r][t] * m[t][c] for t in range(n)) for c in range(n)]
                   for r in range(n)]
        assert product == [[d * (r == c) for c in range(n)] for r in range(n)]


@pytest.mark.parametrize("matrix", [
    [[1, 2], [2, 4]],
    [[0, 1, 1], [0, 1, 1], [0, 0, 1]],  # no pivot in the first column
    [[1, 1, 1], [1, 1, 1], [1, 0, 1]],  # rank 2
    build_G(1).materialize(),
])
def test_adjugate_oracle_refuses_singular_input(matrix):
    with pytest.raises(ValueError, match="singular"):
        adjugate_oracle(matrix)


@pytest.mark.parametrize("matrix", [[[1, 2]], [[1], [2]], [[1, 0], [0]], [[1, 0], [0, 1, 0]]])
def test_adjugate_oracle_refuses_non_square_input(matrix):
    with pytest.raises(ValueError, match="square"):
        adjugate_oracle(matrix)


def test_adjugate_det_examples():
    assert adjugate_det_F(2) == 2
    assert adjugate_det_F(3) == 9


def test_adjugate_det_is_fibonacci_power():
    for n in range(2, 9):
        assert adjugate_det_F(n) == fib(n + 1) ** (n - 1)


def test_adjugate_det_rejects_small_orders():
    with pytest.raises(ValueError):
        adjugate_det_F(1)


# --- the generic recurrence-determinant identity ----------------------------


def _recurrence_term(h, a1):
    # test-local reference: a_{n+1} from iterating a_{m+1} = sum_{i<=m} p(i, m) * a_i
    # from a_1, with p(i, m) read from the materialized matrix
    full = h.materialize()
    values = [a1]
    for m in range(h.n):
        values.append(sum(full[i][m] * values[i] for i in range(m + 1)))
    return values[-1]


def test_all_ones_table_doubles():
    # a_1 = 1 and a_{m+1} = a_1 + ... + a_m: 1, 1, 2, 4, 8, 16
    h = HessenbergMatrix([[1] * (5 - i) for i in range(5)])
    assert det(h) == 16 == det_oracle(h.materialize()) == _recurrence_term(h, 1)


@given(st.one_of(hessenberg_matrices(), constant_tailed_hessenberg_matrices(max_order=12)),
       st.integers(-3, 3))
@settings(deadline=None)
def test_recurrence_equals_scaled_determinant(h, a1):
    # the paper's identity a_{n+1} = a_1 * det(P_n), against the det that ships
    assert _recurrence_term(h, a1) == a1 * det(h)
