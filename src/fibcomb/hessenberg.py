"""Upper Hessenberg matrices with a fixed -1 subdiagonal.

Two determinant routes are kept deliberately separate so they count as
independent evidence:

* ``det`` runs the expansion that the -1 subdiagonal makes possible.  Each
  row is stored as a head that holds the diagonal and a tail value repeated
  from there to the row's end.  The expansion walks the rows once: when the
  determinant d[i] of the leading i x i block is known, row i+1 adds its
  head times d[i] to the next columns and its tail times d[i] once to a
  running carry that every later column takes up.  That is O(sum of head
  lengths) products, O(n) for ``build_F(n)`` and ``build_G(n)``, whose
  heads hold at most two entries.  ``char_poly`` runs the same walk over
  polynomial entries.  The walk passes through d[m] for every m on its way
  to d[n]: ``det`` and ``char_poly`` read the last, and ``leading_dets``
  and ``leading_char_polys`` yield every leading block's, so one walk over
  ``build_F(n)`` or ``build_G(n)`` gives every order 0..n.  The sign
  that turns det(H - xI) into det(xI - H) is applied only to an order that
  is read.
* ``det_oracle`` is fraction-free Bareiss elimination on a dense matrix and
  shares no code with ``det``.  It defers each step whose factor is 0 into
  one exact scaling per run, so on Hessenberg input, where one row per
  column has a nonzero factor, it makes O(n^2) operations, not O(n^3).

``adjugate_oracle`` gives every cofactor of a dense matrix at once, from one
fraction-free Gauss-Jordan pass over [A | I]: O(n^3) products where one
elimination per minor would take O(n^5).  It is the oracle side of the
closed-form ``cofactor_F`` and shares no code with it or with
``det_oracle``.

``leading_minor_sums`` is the brute-force ground truth for sums of
principal minors.  It visits all 2^n index subsets in one walk: a
principal submatrix of a Hessenberg matrix is block upper triangular over
its runs of consecutive indices, so each subset's minor is its parent's
times one determinant of a contiguous block, one product per subset.  The
products are made a list at a time, all parents of one size times one
block, and only the minors a later run can extend are kept, 2^(n-2) ints.
It takes each distinct block determinant once from ``det_oracle``, which
the ``thm11`` and ``adjugate`` checks test on their own, and shares no code
with ``det``, ``char_poly``, the ``formula`` route or the convolution
series.  A subset is a principal minor of every leading block that holds
its largest index, so the one walk gives the minor sums of all n+1 leading
blocks, the last row being those of h itself.  ``build_F(m)`` and
``build_G(m)`` are the leading blocks of ``build_F(n)`` and ``build_G(n)``,
so one walk serves a whole range of orders.  Order 0 is the empty matrix,
``build_F(0) == build_G(0)``, with determinant and characteristic
polynomial 1, and every leading walk starts there.

``CAPS`` holds the cap of every brute-force enumeration in the package, and
``check_cap`` refuses a size above it unless a larger bound is passed.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice, repeat
from operator import add, mul

from .fib import fib
from .poly import IntPolynomial

# enumeration -> (default cap, what the cap limits, what is enumerated)
CAPS = {
    "compositions": (24, "target", "2^(n-1) items"),
    "minors": (20, "order", "2^n principal-minor subsets"),
}

DenseMatrix = Sequence[Sequence[int]]


class EnumerationBoundError(ValueError):
    """A brute-force enumeration would exceed its configured resource bound."""


def check_cap(enumeration: str, n: int, bound: int | None = None) -> None:
    """Refuse to enumerate at size ``n`` above ``bound``.

    ``bound=None`` means the enumeration's default cap in ``CAPS``.
    """
    default, size, items = CAPS[enumeration]
    if bound is None:
        bound = default
    if n > bound:
        raise EnumerationBoundError(
            f"{size} {n} exceeds the enumeration bound {bound} "
            f"({items}); pass a larger bound to force it"
        )


class HessenbergMatrix:
    """Square matrix with -1 on the subdiagonal and zeros below it.

    Only the entries on and above the diagonal are stored, one (head, tail)
    pair per row: ``rows[i]`` describes row i+1 from the diagonal rightward
    as the tuple ``head``, which holds at least the diagonal entry, followed
    by ``tail`` repeated to the row's end.  The head is the shortest that
    allows this, and ``tail`` is the row's last entry, so equal matrices
    have equal pairs.  Instances are immutable.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[int]]):
        stored = tuple(tuple(row) for row in rows)
        n = len(stored)
        for i, row in enumerate(stored):
            if len(row) != n - i:
                raise ValueError(
                    f"row {i + 1} must carry {n - i} upper entries, got {len(row)}"
                )
        self.n = n
        self.rows = tuple(map(_split_row, stored))

    @classmethod
    def _of_pairs(cls, pairs: Sequence[tuple[tuple, int]]) -> HessenbergMatrix:
        # pairs already in the form __init__ gives them
        h = object.__new__(cls)
        h.n = len(pairs)
        h.rows = tuple(pairs)
        return h

    def materialize(self) -> list[list[int]]:
        """Full n x n matrix as a fresh list of lists."""
        n = self.n
        full = []
        for i, (head, tail) in enumerate(self.rows):
            below = [0] * (i - 1) + [-1] if i else []
            full.append(below + [*head, *repeat(tail, n - i - len(head))])
        return full

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HessenbergMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"HessenbergMatrix(order={self.n})"


def _split_row(row: tuple) -> tuple[tuple, int]:
    # (shortest head holding the diagonal, the row's last entry) such that
    # the head followed by repeats of that entry is the row
    tail = row[-1]
    end = len(row)
    while end > 1 and row[end - 1] == tail:
        end -= 1
    return row[:end], tail


def build_F(n: int) -> HessenbergMatrix:
    """Order-n matrix with 1 on the diagonal and superdiagonal, 0 elsewhere above.

    Its determinant is fib(n+1), also at n = 0, the empty matrix.
    """
    if n < 0:
        raise ValueError(f"matrix order must be >= 0, got {n}")
    # a row of one or two entries is all ones, so its tail is 1
    return HessenbergMatrix._of_pairs([((1, 1), 0)] * (n - 2) + [((1,), 1)] * min(n, 2))


def build_G(n: int) -> HessenbergMatrix:
    """Order-n matrix with 0 on the diagonal and 1 everywhere strictly above.

    Its determinant is fib(n-1), also at n = 0, the empty matrix.
    """
    if n < 0:
        raise ValueError(f"matrix order must be >= 0, got {n}")
    # the last row is its diagonal 0 alone, so its tail is 0
    return HessenbergMatrix._of_pairs([((0,), 1)] * (n - 1) + [((0,), 0)] * min(n, 1))


def _expansion_det(rows: Sequence[tuple[Sequence, object]], one) -> Iterator:
    # Yields d[0] = one, d[1], ..., d[n], where d[m] is the determinant of
    # the leading m x m block; expanding the last column against the -1
    # subdiagonal gives d[m] = sum_i h(i, m) * d[i-1].
    # rows[i] is the (head, tail) pair of row i+1: h(i+1, m) is head[m-i-1]
    # for the first len(head) columns m = i+1, i+2, ... and tail after them.
    # totals[m-1] collects the head terms of d[m] and is complete once rows
    # 1..m have added to it.  A tail term tail * d[i] belongs to every column
    # from its first on, so it is added once, to starts[that column - 1], and
    # carry, the running sum of starts, holds every tail term of the column
    # being finished.  A finished column's slots are cleared, so the walk
    # holds only the columns still open, not every leading determinant: over
    # polynomials those would be O(n^3) bits in all.  Works over any
    # commutative ring whose elements support + and *.
    n = len(rows)
    zero = one - one
    d = one
    totals = [zero] * n
    starts = [zero] * (n + 1)  # starts[n] takes the tails that are empty
    carry = zero
    yield d
    for i, (head, tail) in enumerate(rows):
        # one step per head entry: on the families' one- and two-entry heads
        # that takes about half the time of updating a slice of totals
        # through map (build_F(1000), build_G(1000))
        for column, entry in enumerate(head, i):
            totals[column] += entry * d
        starts[i + len(head)] += tail * d
        carry += starts[i]
        d = totals[i] + carry
        totals[i] = starts[i] = zero
        yield d


def _last(values: Iterable):
    # the last of values, consumed without a loop step per value in Python
    return deque(values, maxlen=1)[0]


def det(h: HessenbergMatrix) -> int:
    """Determinant via the subdiagonal expansion (order 0 gives 1).

    O(sum of the rows' head lengths) products, so O(n) for ``build_F(n)``
    and ``build_G(n)``, whose rows are constant after at most two entries.
    """
    return _last(leading_dets(h))


def leading_dets(h: HessenbergMatrix) -> Iterator[int]:
    """Determinants of the leading m x m blocks of h, m = 0..n, from one walk.

    The walk ``det`` makes, read at every order: all n+1 values cost what
    the last one costs.  ``build_F(m)`` and ``build_G(m)`` are the leading
    blocks of ``build_F(n)`` and ``build_G(n)``.
    """
    return _expansion_det(h.rows, 1)


def det_oracle(matrix: DenseMatrix) -> int:
    """Exact determinant of a square integer matrix by Bareiss elimination.

    Fraction-free: every division is exact.  Serves as the independent ground
    truth against ``det`` and shares no code with it.  The empty matrix has
    determinant 1.

    A step whose factor is 0 only scales its row by pivot / prev, so such
    steps are skipped, and each row keeps ``base``, the prev it was last
    brought up to, swapped together with the row.  The skipped run then
    telescopes to one exact scaling by prev / base: the row's next real step
    divides by its base instead of prev, a row scales by it when it becomes
    the pivot row, and the last entry scales by it at the end.  On
    Hessenberg input only the subdiagonal row has a nonzero factor at each
    column, so the elimination makes O(n^2) operations, not O(n^3).
    """
    n = len(matrix)
    m = [list(row) for row in matrix]
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if n == 0:
        return 1
    # the true row r is the stored one times prev / base[r]
    base = [1] * n
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for r in range(col + 1, n):
                if m[r][col]:
                    m[col], m[r] = m[r], m[col]
                    base[col], base[r] = base[r], base[col]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = m[col]
        if base[col] != prev:
            pivot_row[col:] = [prev * x // base[col] for x in pivot_row[col:]]
        pivot = pivot_row[col]
        for r in range(col + 1, n):
            row = m[r]
            factor = row[col]
            if factor:
                # (pivot * x' - factor' * y) / prev with x' = x * prev / b and
                # factor' = factor * prev / b is (pivot * x - factor * y) / b
                b = base[r]
                row[col + 1 :] = [
                    (pivot * x - factor * y) // b
                    for x, y in zip(row[col + 1 :], pivot_row[col + 1 :])
                ]
                row[col] = 0
                base[r] = pivot
        prev = pivot
    return sign * m[n - 1][n - 1] * prev // base[n - 1]


def adjugate_oracle(matrix: DenseMatrix) -> list[list[int]]:
    """Adjugate of a nonsingular square integer matrix, adj(A) = det(A) A^-1.

    One fraction-free Gauss-Jordan pass over [A | I] (Bareiss, Math. Comp.
    22, 1968): step k makes every row but the pivot row k zero in column k
    by row_r = (pivot * row_r - row_r[k] * row_k) / prev, prev being the
    previous pivot.  Every entry is then a minor of [A | I], so every
    division is exact.  After n steps the row operations M make M A =
    s det(A) I, s the sign of the row swaps, so the right half M is s adj(A).
    O(n^3) products for all n^2 cofactors.  Serves as the independent
    ground truth for ``cofactor_F`` and shares no code with ``det_oracle``.
    Raises ``ValueError`` for non-square or singular input; the empty
    matrix has the empty adjugate.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    rows = [[*row, *(int(c == r) for c in range(n))] for r, row in enumerate(matrix)]
    sign = 1
    prev = 1
    for k in range(n):
        found = next((r for r in range(k, n) if rows[r][k]), None)
        if found is None:
            raise ValueError("matrix is singular")
        if found != k:
            rows[k], rows[found] = rows[found], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        right = pivot_row[k + 1 :]
        # columns up to k are never read again, so only those past k change
        for r, row in enumerate(rows):
            if r != k:
                factor = row[k]
                row[k + 1 :] = [(pivot * x - factor * y) // prev
                                for x, y in zip(row[k + 1 :], right)]
        prev = pivot
    return [[sign * x for x in row[n:]] for row in rows]


def leading_minor_sums(h: HessenbergMatrix, bound: int | None = None) -> list[list[int]]:
    """Sums of the principal minors of every leading block, from one walk.

    Row m, for m = 0..n, holds the sums of the principal minors of the
    leading m x m block of h, indexed by minor order 0..m: entry 0 is 1 (the
    empty minor) and entry m is that block's determinant.  Visits every one
    of the 2^n index subsets, so it is exact by construction and can act as
    the ground-truth side of identity checks.  The entry below the diagonal
    at each gap between kept indices is 0, so a principal submatrix is block
    upper triangular over its runs of consecutive indices, and its minor is
    the product of those runs' block determinants.  A subset is its parent
    (every run but the last) times its last run [a, b], whose parent is the
    empty subset or ends at a-2 or earlier: one product per subset, zero
    products included, made a list at a time, every parent of one size
    times one block.  Each minor goes into the bucket of its largest index
    b, since it is a principal minor of every leading block of order above
    b, and row m is the sum of the buckets below m.  Only the minors a later
    run can extend, those of largest index at most n-3, are kept, 2^(n-2)
    ints; the rest are summed as they are made.  Equal rows give equal
    blocks, so each distinct ``h.rows[a:b+1]`` is taken once from
    ``det_oracle``, about 2n blocks for ``build_F(n)`` and ``build_G(n)``,
    n(n+1)/2 when every row differs.  Shares ``det_oracle`` with the
    ``thm11`` and ``adjugate`` checks, which test it, and no code with
    ``det``, ``char_poly``, the ``formula`` route or the series.
    """
    check_cap("minors", h.n, bound)
    n = h.n
    full = h.materialize()
    dets = {}  # h.rows[a:b+1] -> determinant of the contiguous block a..b
    # kept[size]: the minors of the subsets a later run can extend, in order
    # of largest index, the empty subset first
    kept = [[1]] + [[] for _ in range(n)]
    # parents[a][size]: how many of kept[size] end at a-2 or earlier, so are
    # the parents of a run that starts at a
    parents = [[1], [1]] + [None] * n
    sums = [[1]]
    for b in range(n):
        bucket = [0] * (b + 2)  # summed minors by size of the subsets ending at b
        extended = b <= n - 3
        for a in range(b + 1):
            key = h.rows[a : b + 1]
            block = dets.get(key)
            if block is None:
                block = dets[key] = det_oracle([row[a : b + 1] for row in full[a : b + 1]])
            length = b - a + 1
            for size, count in enumerate(parents[a]):
                minors = islice(kept[size], count)
                if extended:
                    children = [minor * block for minor in minors]
                    kept[size + length] += children
                    bucket[size + length] += sum(children)
                else:
                    bucket[size + length] += sum(map(mul, minors, repeat(block)))
        if extended:
            parents[b + 2] = [len(minors) for minors in kept[: b + 2]]
        sums.append(list(map(add, sums[-1] + [0], bucket)))
    return sums


def _shifted_rows(h: HessenbergMatrix) -> list[tuple[tuple, IntPolynomial]]:
    # the (head, tail) pairs of H - xI over polynomials: only each row's
    # head, whose first entry becomes the diagonal h[i][i] - x, and its tail
    # are lifted
    x = IntPolynomial.x()
    lift = IntPolynomial.constant
    return [
        ((lift(head[0]) - x, *map(lift, head[1:])), lift(tail))
        for head, tail in h.rows
    ]


def char_poly(h: HessenbergMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI - H), monic of degree n.

    Runs the same subdiagonal expansion as ``det`` but over polynomial
    entries: the expansion yields det(H - xI), and the sign flip for odd
    order converts it.  Only each row's head and tail are lifted to
    polynomials, so the walk makes O(sum of head lengths) polynomial
    products.
    """
    p = _last(_expansion_det(_shifted_rows(h), IntPolynomial.one()))
    return -p if h.n % 2 else p


def leading_char_polys(h: HessenbergMatrix) -> Iterator[IntPolynomial]:
    """Characteristic polynomials of the leading m x m blocks, m = 0..n.

    The walk ``char_poly`` makes, read at every order, so the n+1
    polynomials cost what the last one costs; each odd order takes its
    sign flip as it is read.  The walk keeps no polynomial it has passed.
    """
    walk = _expansion_det(_shifted_rows(h), IntPolynomial.one())
    for m, p in enumerate(walk):
        yield -p if m % 2 else p


def cofactor_F(n: int, i: int, j: int) -> int:
    """Closed-form cofactor of entry (i, j) of build_F(n).

    fib(i)*fib(n-j+1) on or above the diagonal, and the signed mirror
    (-1)^(i+j)*fib(j)*fib(n-i+1) below it.
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"cofactor position ({i}, {j}) outside 1..{n}")
    if i <= j:
        return fib(i) * fib(n - j + 1)
    return (-1) ** (i + j) * fib(j) * fib(n - i + 1)


def adjugate_det_F(n: int) -> int:
    """Oracle determinant of the full cofactor matrix of build_F(n).

    Equals fib(n+1)**(n-1); requires n >= 2.
    """
    if n < 2:
        raise ValueError(f"cofactor-matrix determinant needs order >= 2, got {n}")
    cof = [[cofactor_F(n, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    return det_oracle(cof)
