"""Verification suites that cross-check every identity the library implements.

Each suite pits at least two independently coded routes against each other
and reports a concrete counterexample on the first disagreement.  Suites:

* ``thm11``        - determinants of the F/G families against Fibonacci
                     numbers, every order of the expansion from one walk
                     and the oracle order by order, plus random matrices
                     for the recurrence-determinant identity: the
                     expansion ``det`` runs, which is the recurrence from
                     a_1 = 1, against the oracle;
* ``minors``       - principal-minor sums of F against the convolution series;
* ``charpoly``     - characteristic polynomials, every order from one walk,
                     against shifted Fibonacci polynomials coefficient by
                     coefficient, their coefficients against convolved
                     numbers, and the binomial route against the series
                     and the row-recurrence table;
* ``identity24``   - the alternating double binomial sum against Fibonacci;
* ``adjugate``     - closed-form cofactors against the oracle adjugate, one
                     elimination per order, and the cofactor-matrix
                     determinant against fib(n+1)^(n-1);
* ``compositions`` - the six triangle routes against each other and the
                     structural row properties.

``run_suite("compositions", variant="wrong-index")`` instead runs the
deliberate counterexample demonstrating that shifting the tuple-sum
constraint from n-2k-1 to n-2k+1 breaks the count at (n, k) = (3, 1) with
5 vs 2.

A suite maps each check name to a function the engine calls inside the
check's timing, which returns the check's cases ``(n, k, values)``,
``values`` mapping a route label to that route's value.  One engine starts
the timer, calls that function, walks its cases and stops at the first
disagreement, so all of a check's route work falls inside its recorded
duration.  Every case of a check carries the same labels, so the engine
picks out the compared ones once, from the first case.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import zip_longest
from operator import itemgetter

from .compositions import (
    c_formula,
    c_formula_wrong_index,
    triangle,
)
from .convolved import (
    _series_rows,
    alternating_sum,
    convolved_fib,
    convolved_table,
)
from .fib import fib, fib_poly, shift_poly
from .hessenberg import (
    HessenbergMatrix,
    adjugate_det_F,
    adjugate_oracle,
    build_F,
    build_G,
    cofactor_F,
    det,
    det_oracle,
    leading_char_polys,
    leading_dets,
    leading_minor_sums,
)

Case = tuple[int, int | None, dict[str, object]]


class Counterexample(namedtuple("Counterexample", "n k values")):
    """Location and per-route values of a failed comparison.

    ``n`` is an int, ``k`` an int or None, and ``values`` maps each route
    label to that route's value.
    """

    __slots__ = ()

    def __str__(self) -> str:
        where = f"n={self.n}" if self.k is None else f"n={self.n}, k={self.k}"
        detail = ", ".join(f"{label}={value}" for label, value in self.values.items())
        return f"({where}): {detail}"


class CheckResult(namedtuple(
    "CheckResult", "name passed counterexample duration cases max_n max_k",
    defaults=(None, 0.0, 0, None, None),
)):
    """Outcome of one check; ``duration`` covers all of its route work.

    ``counterexample`` is None when the check passed.  ``cases`` counts the
    cases compared (the failing one included), and ``max_n``/``max_k`` are
    the largest indices among them (None when no case carries one).
    """

    __slots__ = ()


class VerifyReport(namedtuple("VerifyReport", "suite checks duration", defaults=((), 0.0))):
    """One suite's check results, in run order, and its total duration."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


# Labels that only say where a case is: shown in a counterexample, not compared.
_POSITION_LABELS = frozenset({"trial", "i", "j"})

# edge-columns is the one check that is not plain agreement between its routes.
_TESTS = {"edge-columns": lambda v: v["c(n,0)"] == v["fib(n-1)"] and v["c(n,n)"] == 1}


def _routes_agree(labels: list[str]):
    # every case of a check carries the same labels, so the compared ones
    # are picked out once per check
    compared = itemgetter(*labels)

    def holds(values: dict[str, object]) -> bool:
        routes = compared(values)
        return routes.count(routes[0]) == len(routes)

    return holds


def _run_check(name: str, cases: Callable[[], Iterable[Case]]) -> CheckResult:
    holds = _TESTS.get(name)
    started = time.perf_counter()
    counterexample = None
    count, max_n, max_k = 0, None, None
    for n, k, values in cases():
        if holds is None:
            holds = _routes_agree([label for label in values if label not in _POSITION_LABELS])
        count += 1
        if max_n is None or n > max_n:
            max_n = n
        if k is not None and (max_k is None or k > max_k):
            max_k = k
        if not holds(values):
            counterexample = Counterexample(n, k, values)
            break
    duration = time.perf_counter() - started
    return CheckResult(name, counterexample is None, counterexample, duration,
                       count, max_n, max_k)


def _det_cases(build, index_shift: int, limit: int) -> Iterator[Case]:
    # orders 0..limit from one walk over build(limit), whose leading n-block
    # is build(n); the oracle takes each order on its own, as the
    # independent route
    for n, d in enumerate(leading_dets(build(limit))):
        yield n, None, {"expansion": d, "oracle": det_oracle(build(n).materialize()),
                        "fibonacci": fib(n + index_shift)}


def _random_tables(seed: int) -> Iterator[Case]:
    rng = random.Random(seed)
    for trial in range(50):
        n = rng.randint(1, 10)
        h = HessenbergMatrix([rng.randint(-3, 3) for _ in range(n - i)] for i in range(n))
        yield n, None, {"trial": trial, "expansion": det(h),
                        "oracle": det_oracle(h.materialize())}


def _triangle_cases(n_max: int, routes: tuple[str, ...], bound: int | None) -> Iterator[Case]:
    # whole rows are compared: a row or entry that a route lacks reads None,
    # so a missing or extra row or entry is a disagreement.  Every route is
    # compared at n_max and then at 0, which a route may build on a path of
    # its own.
    for size in dict.fromkeys((n_max, 0)):
        tables = [triangle(size, route, bound) for route in routes]
        for n, rows in enumerate(zip_longest(*tables, fillvalue=())):
            for k, column in enumerate(zip_longest(*rows)):
                yield n, k, dict(zip(routes, column))


def _series_table(n_max: int) -> list[list[int]]:
    # orders 1..n_max+1 of the convolution series from one chain, order k+1
    # cut at index n_max-k: entry [k][n-k] is convolved_fib(k+1, n-k+1)
    return list(_series_rows(range(n_max + 1, 0, -1)))


def _binomial_cases(n_max: int) -> Iterator[Case]:
    # "binomial" is the value `fibcomb convolved R M` prints, with its
    # argument mapping
    series = _series_table(n_max)
    table = convolved_table(n_max + 1, n_max + 1)
    for n in range(n_max + 1):
        for k in range(n + 1):
            yield n, k, {"binomial": convolved_fib(k + 1, n - k + 1),
                         "series": series[k][n - k],
                         "table": table[k][n - k]}


def _minor_sum_cases(n_max: int, bound: int | None) -> Iterator[Case]:
    # build_F(n) is the leading n-block of build_F(n_max), so one walk gives
    # every order; at n_max = 0 the walk is over the empty matrix, so the
    # bound is still checked
    leading = leading_minor_sums(build_F(n_max), bound)
    series = _series_table(n_max)
    for n in range(1, n_max + 1):
        sums = leading[n]
        for k in range(n):
            yield n, k, {"minor-sums": sums[n - k], "series": series[k][n - k]}


# Each suite takes limit (default index bound -> the bound in force), the
# enumeration cap and the seed, and returns {check name: function returning
# the check's cases}; building a suite does no route work.


def _thm11(limit, bound, seed):
    return {
        "det-F-fibonacci": lambda: _det_cases(build_F, 1, limit(25)),
        "det-G-fibonacci": lambda: _det_cases(build_G, -1, limit(25)),
        "random-tables": lambda: _random_tables(seed),
    }


def _minors(limit, bound, seed):
    return {"minor-sums-are-convolved": lambda: _minor_sum_cases(limit(12), bound)}


def _charpoly(limit, bound, seed):
    return {
        "charpoly-equals-shifted-fib-poly": lambda: (
            (n, None, {"char-poly": p.coeffs,
                       "shifted-fib-poly": shift_poly(fib_poly(n + 1)).coeffs})
            for n, p in enumerate(leading_char_polys(build_F(limit(15))))
        ),
        "charpoly-coefficients-are-convolved": lambda: (
            (n, k, {"coefficient": p.coefficient(k),
                    "signed-convolved": (-1) ** (n - k) * series[k][n - k]})
            for series in [_series_table(limit(15))]
            for n, p in enumerate(leading_char_polys(build_F(limit(15))))
            for k in range(n + 1)
        ),
        "binomial-route-agrees": lambda: _binomial_cases(limit(40)),
    }


def _identity24(limit, bound, seed):
    return {"alternating-sum-is-fibonacci": lambda: (
        (n, None, {"alternating-sum": alternating_sum(n), "fibonacci": fib(n + 1)})
        for n in range(limit(40) + 1)
    )}


def _adjugate(limit, bound, seed):
    return {
        "cofactor-matrix-determinant": lambda: (
            (n, None, {"cofactor-matrix-det": adjugate_det_F(n),
                       "fibonacci-power": fib(n + 1) ** (n - 1)})
            for n in range(2, limit(10) + 1)
        ),
        "cofactor-closed-form": lambda: (
            (n, None, {"i": i, "j": j, "closed-form": cofactor_F(n, i, j),
                       "oracle": adj[j - 1][i - 1]})
            for n in range(1, limit(8) + 1)
            for adj in [adjugate_oracle(build_F(n).materialize())]
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ),
    }


def _compositions(limit, bound, seed):
    rows = range(limit(30) + 1)  # each formula check reads one table for all rows
    size = len(rows)
    return {
        "route-agreement": lambda: _triangle_cases(
            limit(18), ("formula", "bruteforce", "recurrence", "bitstring"), bound),
        "minor-route-agreement": lambda: _triangle_cases(
            min(14, limit(18)), ("formula", "minors", "charpoly"), bound),
        "row-sums": lambda: (
            (n, None, {"row-sum": sum(c_formula(n, k, table) for k in range(n + 1)),
                       "power": 2 ** (n - 1)})
            for table in [convolved_table(size, size)] for n in rows[1:]
        ),
        "edge-columns": lambda: (
            (n, None, {"c(n,0)": c_formula(n, 0, table), "fib(n-1)": fib(n - 1),
                       "c(n,n)": c_formula(n, n, table)})
            for table in [convolved_table(size, size)] for n in rows
        ),
        "penultimate-zero": lambda: (
            (n, n - 1, {"c(n,n-1)": c_formula(n, n - 1, table), "expected": 0})
            for table in [convolved_table(size, size)] for n in rows[2:]
        ),
    }


def _wrong_index(limit, bound, seed):
    if limit(3) < 3:
        raise ValueError("the wrong-index demonstration needs nmax >= 3")
    return {"wrong-index-counterexample": lambda: (
        (n, k, {"formula[wrong-index]": c_formula_wrong_index(n, k),
                "bruteforce": rows[n][k]})
        for rows in [triangle(3, "bruteforce")]
        for n, k in [(3, 1)]
    )}


# (suite name, variant) -> suite
_SUITES = {
    ("thm11", None): _thm11,
    ("minors", None): _minors,
    ("charpoly", None): _charpoly,
    ("identity24", None): _identity24,
    ("adjugate", None): _adjugate,
    ("compositions", None): _compositions,
    ("compositions", "wrong-index"): _wrong_index,
}
SUITE_NAMES = tuple(name for name, variant in _SUITES if variant is None)


def run_suite(
    name: str,
    nmax: int | None = None,
    bound: int | None = None,
    seed: int = 0,
    variant: str | None = None,
) -> VerifyReport:
    """Run one suite by name; ``variant`` is only valid for compositions."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose one of {SUITE_NAMES}")
    if variant is not None and name != "compositions":
        raise ValueError("--variant applies to the compositions suite only")
    if (name, variant) not in _SUITES:
        raise ValueError(f"unknown variant {variant!r}")
    if nmax is not None and nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    started = time.perf_counter()

    def limit(default: int) -> int:
        return default if nmax is None else nmax

    suite = _SUITES[name, variant](limit, bound, seed)
    checks = [_run_check(check, cases) for check, cases in suite.items()]
    return VerifyReport(name, checks, time.perf_counter() - started)


def run_all(
    nmax: int | None = None, bound: int | None = None, seed: int = 0
) -> list[VerifyReport]:
    """Run every suite with its default bounds (nmax overrides all of them)."""
    return [run_suite(name, nmax=nmax, bound=bound, seed=seed) for name in SUITE_NAMES]


def format_report(report: VerifyReport) -> str:
    """Stable one-line-per-check rendering of a suite report."""
    passed = sum(check.passed for check in report.checks)
    status = "PASS" if report.passed else "FAIL"
    lines = [
        f"suite {report.suite}: {status} "
        f"({passed}/{len(report.checks)} checks passed, {report.duration:.2f}s)"
    ]
    for check in report.checks:
        if check.passed:
            lines.append(f"  PASS {report.suite}/{check.name}")
        else:
            lines.append(
                f"  FAIL {report.suite}/{check.name}: "
                f"counterexample {check.counterexample}"
            )
    return "\n".join(lines)
