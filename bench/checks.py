"""Independent checks of fibcomb's command output.

Nothing here imports fibcomb.  Every expected value comes from a formula
that differs from the route under test, or from a property the output must
have:

* triangle:  c(n, k) = sum_{j>=1} C(k+j, k) * C(n-k-j-1, j-1), c(n, n) = 1,
             and every row n >= 1 sums to 2^(n-1);
* convolved: conv(r, m) = sum_i C(n-i, i) * C(n-2i, k) with n = m+r-2 and
             k = r-1; whole tables also satisfy
             a[r][m] = a[r-1][m] + a[r][m-1] + a[r][m-2];
* fib:       fast doubling, with fib(-1) = 1;
* det:       det F n = fib(n+1) and det G n = fib(n-1);
* charpoly:  the coefficient of x^k is (-1)^(n-k) * conv(k+1, n-k+1).

Each ``check_*`` function raises ``CheckError`` with a reason on the first
mismatch and returns None when the output is right.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from math import comb

SUITES = ("thm11", "minors", "charpoly", "identity24", "adjugate", "compositions")


class CheckError(AssertionError):
    """A command's output disagrees with the independent computation."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckError(reason)


def binom(a: int, b: int) -> int:
    """C(a, b), and 0 whenever a < 0, b < 0 or b > a."""
    return comb(a, b) if 0 <= b <= a else 0


def fib(n: int) -> int:
    """Fibonacci number by fast doubling; fib(-1) = 1, fib(0) = 0."""
    if n == -1:
        return 1
    a, b = 0, 1  # fib(i), fib(i+1) for i = the bits of n read so far
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def composition_count(n: int, k: int) -> int:
    """Compositions of n with exactly k parts equal to 1 (OEIS A105422)."""
    if k == n:
        return 1
    return sum(
        binom(k + j, k) * binom(n - k - j - 1, j - 1) for j in range(1, (n - k) // 2 + 1)
    )


def shifted_index_sum(n: int, k: int) -> int:
    """Sum of fib(j_1)*...*fib(j_{k+1}) over j_t >= -1 with sum n-2k+1.

    The deliberately wrong tuple-sum constraint; small arguments only.
    """

    def tuples(parts: int, total: int) -> int:
        if parts == 1:
            return fib(total) if total >= -1 else 0
        return sum(fib(j) * tuples(parts - 1, total - j) for j in range(-1, total + parts))

    return tuples(k + 1, n - 2 * k + 1)


def conv(r: int, m: int) -> int:
    """m-th convolved Fibonacci number of order r, by the double binomial sum."""
    n, k = m + r - 2, r - 1
    return sum(binom(n - i, i) * binom(n - 2 * i, k) for i in range(n // 2 + 1))


@contextmanager
def _unlimited_digits():
    # Lifted only while the checker reads a long number; the command under
    # test always runs with the interpreter's default limit.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


_DURATION = re.compile(r", \d+\.\d\ds\)")


def without_durations(stdout: str) -> str:
    """The output with verify's per-suite durations removed."""
    return _DURATION.sub(")", stdout)


def check_number(stdout: str, expected: int) -> None:
    """The output is exactly one line holding ``expected``."""
    with _unlimited_digits():
        _require(stdout == f"{expected}\n", f"expected the single value {expected}")


def check_triangle_bfile(stdout: str, pairs: list[tuple[int, int]], n_max: int, offset: int) -> None:
    """b-file of rows 0..n_max, and its parse, against the binomial formula."""
    rows = [[composition_count(n, k) for k in range(n + 1)] for n in range(n_max + 1)]
    for n, row in enumerate(rows):
        _require(sum(row) == (2 ** (n - 1) if n else 1), f"row {n} of the reference")
    flat = [v for row in rows for v in row]
    _require(stdout == "".join(f"{i} {v}\n" for i, v in enumerate(flat, start=offset)),
             f"triangle {n_max} b-file text")
    _require(pairs == list(enumerate(flat, start=offset)), f"triangle {n_max} parsed b-file")


def check_convolved_grid(stdout: str, grid: list[list[int]], r_max: int, m_max: int) -> None:
    """Convolved table CSV, and its parse, by recurrence, edges and binomial sums.

    The recurrence with the first row (Fibonacci) and the first two columns
    (1 and r) fixes every entry; the last row and the last column are also
    compared against the binomial sum.
    """
    _require(len(grid) == r_max and all(len(row) == m_max for row in grid),
             f"convolved table shape, expected {r_max} x {m_max}")
    _require(stdout == "".join(",".join(map(str, row)) + "\n" for row in grid),
             "convolved table text does not match its parse")
    _require(grid[0] == [fib(m) for m in range(1, m_max + 1)], "row 1 must be Fibonacci")
    for r in range(1, r_max + 1):
        row = grid[r - 1]
        _require(row[0] == 1 and (m_max < 2 or row[1] == r), f"row {r} edge columns")
        if r > 1:
            above = grid[r - 2]
            for m in range(2, m_max):
                _require(row[m] == above[m] + row[m - 1] + row[m - 2],
                         f"recurrence fails at r={r}, m={m + 1}")
    for m in range(1, m_max + 1):
        _require(grid[-1][m - 1] == conv(r_max, m), f"binomial sum at r={r_max}, m={m}")
    for r in range(1, r_max + 1):
        _require(grid[r - 1][-1] == conv(r, m_max), f"binomial sum at r={r}, m={m_max}")


_TERM = re.compile(r"(-?)(\d*)(x(?:\^(\d+))?)?")


def parse_polynomial(text: str) -> dict[int, int]:
    """Coefficients by power of a polynomial printed as in ``x^2 - 2x + 2``."""
    coeffs: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        match = _TERM.fullmatch(term)
        _require(match is not None and term not in ("", "-"), f"bad term {term!r}")
        sign, digits, var, power = match.groups()
        if var is None:
            _require(bool(digits), f"bad term {term!r}")
        p = 0 if var is None else int(power) if power else 1
        _require(p not in coeffs, f"power {p} printed twice")
        coeffs[p] = (-1 if sign else 1) * (int(digits) if digits else 1)
    return coeffs


def check_charpoly(stdout: str, n: int) -> None:
    """Characteristic polynomial of build_F(n) against signed convolved numbers."""
    _require(stdout.endswith("\n") and "\n" not in stdout[:-1], "charpoly prints one line")
    coeffs = parse_polynomial(stdout[:-1])
    for k in range(n + 1):
        expected = (-1) ** (n - k) * conv(k + 1, n - k + 1)
        _require(coeffs.pop(k, 0) == expected, f"charpoly {n}: coefficient of x^{k}")
    _require(not coeffs, f"charpoly {n}: powers above {n}")


_HEADER = re.compile(r"suite (\S+): (PASS|FAIL) \((\d+)/(\d+) checks passed, \d+\.\d\ds\)")


def _suite_reports(stdout: str) -> dict[str, tuple[str, int, int, list[str]]]:
    reports: dict[str, tuple[str, int, int, list[str]]] = {}
    lines: list[str] = []
    for line in stdout.splitlines():
        header = _HEADER.fullmatch(line)
        if header:
            name, status, passed, total = header.groups()
            _require(name not in reports, f"suite {name} reported twice")
            lines = []
            reports[name] = (status, int(passed), int(total), lines)
        else:
            _require(bool(reports) and line.startswith("  "), f"stray line {line!r}")
            lines.append(line.strip())
    return reports


def check_verify_all(stdout: str) -> None:
    """Every one of the six suites ran and passed every check."""
    reports = _suite_reports(stdout)
    _require(sorted(reports) == sorted(SUITES), f"suites run: {sorted(reports)}")
    for name, (status, passed, total, lines) in reports.items():
        _require(status == "PASS" and passed == total == len(lines) > 0, f"suite {name}")
        _require(all(line.startswith(f"PASS {name}/") for line in lines), f"suite {name} lines")


_COUNTEREXAMPLE = re.compile(
    r"FAIL compositions/(\S+): counterexample \(n=(\d+), k=(\d+)\): (\S+)=(-?\d+), (\S+)=(-?\d+)"
)


def check_wrong_index(stdout: str) -> None:
    """The wrong-index variant fails with the counterexample 5 vs 2 at (3, 1)."""
    reports = _suite_reports(stdout)
    _require(list(reports) == ["compositions"], "only the compositions suite runs")
    status, passed, total, lines = reports["compositions"]
    _require(status == "FAIL" and passed == 0 and total == len(lines) == 1, "one failing check")
    match = _COUNTEREXAMPLE.fullmatch(lines[0])
    _require(match is not None, f"counterexample line {lines[0]!r}")
    n, k = int(match.group(2)), int(match.group(3))
    _require((n, k) == (3, 1), f"counterexample at ({n}, {k}), expected (3, 1)")
    values = {int(match.group(5)), int(match.group(7))}
    _require(values == {shifted_index_sum(3, 1), composition_count(3, 1)} == {5, 2},
             f"counterexample values {values}, expected 5 and 2")
