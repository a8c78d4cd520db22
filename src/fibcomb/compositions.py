"""The triangle c(n, k): compositions of n with exactly k parts equal to 1.

Six independent routes compute the same triangle (OEIS A105422); each is a
``route`` of ``triangle(n_max, route)``:

* ``bruteforce``     - count every composition of every m <= n_max, one
                       byte each, 2^n_max bytes for the whole triangle:
                       level m holds each composition's number of 1s, built
                       from level m-1 raised by one (last part 1) and the
                       levels below it unchanged (last part 2, 3, ...), so
                       each composition is visited once, its count derived
                       from its parent's;
* ``formula``        - the explicit formula in convolved Fibonacci numbers:
                       G(x) = 1 + x^2/(1 - x - x^2) = (1 - x)/(1 - x - x^2),
                       so c(n, k), the coefficient of x^(n-k) in G(x)^(k+1),
                       is a signed binomial sum over row k+1 of the convolved
                       table; a triangle row n shares one triangular table,
                       row k+1 cut at index n-k, among its n+1 entries, and
                       a triangle costs about n^3/6 additions;
* ``recurrence``     - bottom-up recurrence peeling off the first part equal
                       to 1;
* ``bitstring``      - count bit strings that start with 0 and
                       have exactly k maximal runs of length 1, straight
                       from each bit pattern: each string's singles are the
                       popcount of adjacent run boundaries, worked out in
                       its own lane of a few ints that hold one bit of
                       2^16 patterns each (a fixed block size), the same
                       strings counted at O(n 2^n / 64) word operations;
* ``minors``         - brute-force principal-minor sums of build_G(n), the
                       leading n-block of build_G(n_max): one walk over the
                       2^n_max index subsets gives every row;
* ``charpoly``       - the paper's headline claim: c(n, k) is (-1)^(n-k)
                       times the coefficient of x^k in det(xI - build_G(n)),
                       and one polynomial expansion walk over
                       build_G(n_max) gives every row, O(n_max) polynomial
                       products.

The exhaustive routes stay exponential on purpose, as ground truth: every
composition and every subset is still visited, but each triangle costs one
walk (``bitstring`` scans the patterns of each length once), not one walk
per row.

``c_formula`` gives one entry by the ``formula`` route.  Enumeration caps
live in ``fibcomb.hessenberg.CAPS``.

Boundary conventions: c(0, 0) = 1 (the empty composition), and c(m, k) = 0
for k < 0, k > m, or m < 0.  Row 0 of the bit-string route counts the empty
string, which has no runs; that anchors the same convention.
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from operator import mul

from .convolved import _convolved_rows, convolved_table
from .fib import fib
from .hessenberg import build_G, check_cap, leading_char_polys, leading_minor_sums
from .poly import convolve


def _check_nk(n: int, k: int) -> None:
    if n < 0:
        raise ValueError(f"target must be >= 0, got {n}")
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")


def c_formula(n: int, k: int, table: list[list[int]]) -> int:
    """c(n, k) by the explicit formula in convolved Fibonacci numbers.

    c(n, k) = sum over j of (-1)^j * C(k+1, j) * convolved_fib(k+1, n-k-j+1),
    the coefficient of x^(n-k) in G(x)^(k+1) = (1-x)^(k+1) / (1-x-x^2)^(k+1).
    Equivalent to summing fib(j_1)*...*fib(j_{k+1}) over tuples with every
    j_t >= -1 and j_1+...+j_{k+1} = n-2k-1, but costs one (k+1)-row
    convolved table, O(k * (n-k)) additions, instead of an exponential
    tuple scan; ``tests/test_compositions.py`` keeps that scan as the oracle
    it is checked against.

    ``table`` holds rows r = 1, 2, ... of the convolved table, at least k+1
    of them, row k+1 of at least n-k+1 terms, and only row k+1 is read:
    ``convolved_table(k + 1, n - k + 1)`` is the smallest that serves.  A
    ``convolved_table(n + 1, n + 1)`` serves every entry of row n, and so
    does the triangular table that the formula route builds for it, row r
    of n-r+2 terms: about n^2/2 additions for the row instead of about
    n^3/6, so a whole triangle costs about n^3/6 additions.

    Given the table, an entry costs min(k+1, n-k)+1 products, summed in one
    pass of C-level iteration.  The signs (-1)^j C(k+1, j) come from a row
    of binomials that is built once per k+1 and cached for the life of the
    process, so the cache grows with the largest k+1 any caller passes, as
    its cube.  On 64-bit CPython 3.11 it holds about 55 KiB for k+1 <= 53
    (a 53-row triangle), 0.5 MiB for k+1 <= 150, 2.3 MiB for k+1 <= 300
    and 47 MiB for k+1 <= 1000.
    """
    _check_nk(n, k)
    top = n - k
    if len(table) <= k or len(table[k]) <= top:
        raise ValueError(f"convolved table too small for n={n}, k={k}")
    # (1-x)^(k+1) times row k+1 of the convolved table, read at x^top; map
    # stops at the shorter operand, so min(k+1, top)+1 terms are read
    row = table[k]
    backwards = islice(reversed(row), len(row) - 1 - top, None)  # row[top], row[top-1], ...
    return sum(map(mul, _one_minus_x_power(k + 1), backwards))


@cache
def _one_minus_x_power(r: int) -> tuple[int, ...]:
    # the coefficients (-1)^j C(r, j) of (1-x)^r, one row per r for the life
    # of the process: an lru_cache bounded below the largest r in use evicts
    # every row before its next read.  Each term from the last, one product
    # and one exact division: r + 1 calls of math.comb take 7x as long at
    # r <= 300
    signed = [1]
    for j in range(r):
        signed.append(-signed[-1] * (r - j) // (j + 1))
    return tuple(signed)


def c_formula_wrong_index(n: int, k: int) -> int:
    """Variant of c_formula with the tuple-sum constraint shifted to n-2k+1.

    Kept as a counterexample generator: it does NOT count compositions.
    Shifting the constraint by 2 reads x^(n-k+2) in G(x)^(k+1), which is
    c(n+2, k), the count two rows down (at n=3, k=1 it yields c(5, 1) = 5
    where the true count is 2; at k=0 it yields fib(n+1) instead of
    fib(n-1)).
    """
    _check_nk(n, k)
    return c_formula(n + 2, k, convolved_table(k + 1, n - k + 3))


# Lanes per block of the bit-sliced scan: one int of 2^16 bits (8 KiB) per
# plane, mark and counter digit.  Measured on triangle(24, "bitstring")
# under CPython 3.11: 2^16 lanes is the fastest block and adds nothing to
# the 16 MB resident after import; 2^12 lanes take twice the time, 2^20
# add 13 MB, and one block per length (2^23 lanes at n = 24) adds 100 MB.
_BLOCK_BITS = 16


def _bitstring_row(n: int) -> list[int]:
    # counts[k] = length-n bit strings starting with 0 that have k singles.
    # Read pattern p < 2^(n-1) as such a string, its top bit the leading 0.
    # Bit-sliced: each int below holds one bit of many patterns, lane p of
    # it for pattern p.  Mark i is a run boundary before bit i of p (marks 0
    # and n are the two ends), so a single is two adjacent marks, and a
    # vertical binary counter adds up each lane's singles.
    counts = [0] * (n + 1)
    if n == 0:
        counts[0] = 1  # the empty string has no runs
        return counts
    lane_bits = min(n - 1, _BLOCK_BITS)
    lanes = 1 << lane_bits
    full = (1 << lanes) - 1
    # plane i for the low bits: 2^i clear lanes then 2^i set ones, doubled
    # into place across every lane
    low = []
    for i in range(lane_bits):
        half = 1 << i
        plane, width = ((1 << half) - 1) << half, 2 * half
        while width < lanes:
            plane |= plane << width
            width *= 2
        low.append(plane)
    high_bits = n - 1 - lane_bits
    for block in range(1 << high_bits):
        # the higher bits of p are the block's, the same in every lane, and
        # the leading bit is 0
        planes = low + [full if block >> i & 1 else 0 for i in range(high_bits)] + [0]
        marks = [full, *map(int.__xor__, planes, planes[1:]), full]
        digits = []  # the counter, lowest digit first
        for carry in map(int.__and__, marks, marks[1:]):
            for t, digit in enumerate(digits):
                if not carry:
                    break
                digits[t], carry = digit ^ carry, digit & carry
            if carry:
                digits.append(carry)
        # split the lanes by each digit in turn: spelled[k] holds the lanes
        # whose counter reads k
        spelled = [full]
        for digit in digits:
            spelled = [s & ~digit for s in spelled] + [s & digit for s in spelled]
        for k, s in zip(range(n + 1), spelled):
            counts[k] += s.bit_count()
    return counts


def _formula_row(n: int) -> list[int]:
    # one table per row, not per triangle: bench/test_checks.py expects
    # `fibcomb triangle 9` to call fib with repeated arguments.  c(n, k)
    # reads row k+1 only up to index n-k, so the table is triangular, rows
    # of n+1, n, ..., 1 terms: about n^2/2 additions, n^3/6 per triangle
    table = _convolved_rows(range(n + 1, 0, -1))
    return [c_formula(n, k, table) for k in range(n + 1)]


def _recurrence_triangle(n_max: int) -> list[list[int]]:
    # rows[j][d] = c(j + d, j).  Split at the first part equal to 1: a 1-free
    # prefix summing to s + 1 (fib(s) of them), the 1, then the rest with one
    # 1 fewer, so row j is row j - 1 convolved with fib(s), s >= -1.  Row 0 is
    # c(m, 0) = fib(m-1), the coefficients of G(x) = 1 + x^2/(1 - x - x^2).
    fibs = [fib(m - 1) for m in range(n_max + 1)]  # fibs[s + 1] = fib(s)
    rows = [fibs]
    for width in range(n_max, 0, -1):
        rows.append(convolve(fibs, rows[-1], width))
    return [[rows[k][n - k] for k in range(n + 1)] for n in range(n_max + 1)]


# _PLUS_ONE[b] = b + 1, a bytes.translate table: raises every ones count of
# a level by one, as appending a part 1 does
_PLUS_ONE = bytes(range(1, 256)) + bytes(1)


def _bruteforce_triangle(n_max: int) -> list[list[int]]:
    # ones[m] holds one byte per composition of m, its number of 1s.  A
    # composition of m is a composition of m - p followed by its last part p:
    # for p = 1 its parent's count plus one, for p >= 2 its parent's count.
    # So every composition of every m <= n_max is one byte, 2^n_max in all,
    # each from its parent's; counts are never added across compositions.
    ones = [bytes(1)]  # the empty composition
    for _ in range(n_max):
        ones.append(b"".join([ones[-1].translate(_PLUS_ONE), *ones[:-1]]))
    return [[level.count(k) for k in range(m + 1)] for m, level in enumerate(ones)]


def _minors_triangle(n_max: int) -> list[list[int]]:
    # c(n, k) is the sum of the order-(n-k) principal minors of build_G(n),
    # the leading n-block of build_G(n_max), for n = 0..n_max
    return [sums[::-1] for sums in leading_minor_sums(build_G(n_max), n_max)]


def _charpoly_triangle(n_max: int) -> list[list[int]]:
    # c(n, k) is (-1)^(n-k) times the coefficient of x^k in the
    # characteristic polynomial of build_G(n), the leading n-block of
    # build_G(n_max), for n = 0..n_max
    return [[-c if (n - k) % 2 else c for k, c in enumerate(p.coeffs)]
            for n, p in enumerate(leading_char_polys(build_G(n_max)))]


# route -> (rows 0..n_max, the CAPS entry that n_max is checked against, or
# None).  triangle() has held n_max to the cap, so a route passes n_max as its
# bound.  Each brute-force route makes one walk per triangle, not one per row.
_ROUTE_TABLE = {
    "bruteforce": (_bruteforce_triangle, "compositions"),
    "formula": (lambda n_max: [_formula_row(n) for n in range(n_max + 1)], None),
    "recurrence": (_recurrence_triangle, None),
    "bitstring": (lambda n_max: [_bitstring_row(n) for n in range(n_max + 1)], "compositions"),
    "minors": (_minors_triangle, "minors"),
    "charpoly": (_charpoly_triangle, None),
}
ROUTES = tuple(_ROUTE_TABLE)


def triangle(
    n_max: int, route: str = "formula", bound: int | None = None
) -> list[list[int]]:
    """Rows 0..n_max of the triangle, computed by the selected route.

    Row n is the list c(n, 0), ..., c(n, n), fresh on every call.

    ``bound`` overrides the enumeration cap of the brute-force routes
    (``bruteforce``, ``bitstring``, ``minors``), which refuse an n_max above
    it before building any row; ``formula``, ``recurrence`` and
    ``charpoly`` ignore it.
    Resource errors from a route propagate unchanged.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; choose one of {ROUTES}")
    if n_max < 0:
        raise ValueError(f"row bound must be >= 0, got {n_max}")
    rows_of, enumeration = _ROUTE_TABLE[route]
    if enumeration is not None:
        check_cap(enumeration, n_max, bound)
    return rows_of(n_max)
