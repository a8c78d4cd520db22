"""Mutation tests for the verification engine.

Each case breaks one route, as seen from ``fibcomb.verify``, by one and
asserts that the check built on that route fails where it first can, with
the same counterexample labels the report has always printed.  The
acceptance tests only see checks pass; these show that a check which
passes would have caught a wrong route.
"""

import pytest

from fibcomb import hessenberg, verify
from fibcomb.compositions import c_formula, triangle
from fibcomb.convolved import convolved_table
from fibcomb.poly import IntPolynomial


def off_by_one(fn, one=1):
    # fn's value plus one, where a polynomial route passes IntPolynomial.one()
    return lambda *args, **kwargs: fn(*args, **kwargs) + one


def walk_off_by_one(walk, one=1):
    # a leading-block walk with the value of every order one too high
    return lambda h: (value + one for value in walk(h))


def empty_gives(fn, value):
    # fn with the empty matrix's value replaced
    return lambda matrix: value if len(matrix) == 0 else fn(matrix)


def constant_moved_to_the_top(fn):
    # fn's polynomial with its constant coefficient moved above its leading one
    def mutant(*args):
        coeffs = fn(*args).coeffs
        return IntPolynomial((0, *coeffs[1:], coeffs[0]))

    return mutant


def table_off_by_one(fn):
    return lambda *args: [[v + 1 for v in row] for row in fn(*args)]


def entry_off_by_one(fn, row, index):
    # fn's rows with entry `index` of row `row` one too high
    def mutant(*args):
        rows = fn(*args)
        rows[row][index] += 1
        return rows

    return mutant


def rows_off_by_one(route):
    # triangle() with every value of one route's rows one too high
    def mutant(n_max, name, bound=None):
        rows = triangle(n_max, name, bound)
        if name != route:
            return rows
        return [[v + 1 for v in row] for row in rows]

    mutant.__name__ = route
    return mutant


def last_row_padded(route):
    # triangle() with one route's last row one entry too long, a 0
    def mutant(n_max, name, bound=None):
        rows = triangle(n_max, name, bound)
        if name == route:
            rows[-1].append(0)
        return rows

    mutant.__name__ = f"{route}-padded"
    return mutant


def row_zero_of(route, row):
    # triangle() with one route's whole triangle at n_max = 0 replaced
    def mutant(n_max, name, bound=None):
        if (n_max, name) == (0, route):
            return [row]
        return triangle(n_max, name, bound)

    mutant.__name__ = f"{route}-row-zero"
    return mutant


MUTATIONS = [
    # suite, check, route replaced (mutants wrap the unpatched route), mutant,
    # (n, k) of the counterexample, labels
    ("thm11", "det-F-fibonacci", "leading_dets",
     walk_off_by_one(verify.leading_dets), (0, None),
     ("expansion", "oracle", "fibonacci")),
    ("thm11", "det-F-fibonacci", "det_oracle",
     empty_gives(verify.det_oracle, 2), (0, None),
     ("expansion", "oracle", "fibonacci")),
    ("thm11", "det-G-fibonacci", "det_oracle",
     off_by_one(verify.det_oracle), (0, None),
     ("expansion", "oracle", "fibonacci")),
    ("thm11", "random-tables", "det",
     off_by_one(verify.det), (7, None),
     ("trial", "expansion", "oracle")),
    ("minors", "minor-sums-are-convolved", "_series_rows",
     table_off_by_one(verify._series_rows), (1, 0),
     ("minor-sums", "series")),
    ("minors", "minor-sums-are-convolved", "leading_minor_sums",
     entry_off_by_one(verify.leading_minor_sums, 4, 2), (4, 2),
     ("minor-sums", "series")),
    ("charpoly", "charpoly-equals-shifted-fib-poly", "shift_poly",
     off_by_one(verify.shift_poly, IntPolynomial.one()), (0, None),
     ("char-poly", "shifted-fib-poly")),
    ("charpoly", "charpoly-equals-shifted-fib-poly", "shift_poly",
     constant_moved_to_the_top(verify.shift_poly), (0, None),
     ("char-poly", "shifted-fib-poly")),
    ("charpoly", "charpoly-coefficients-are-convolved", "leading_char_polys",
     walk_off_by_one(verify.leading_char_polys, IntPolynomial.one()), (0, 0),
     ("coefficient", "signed-convolved")),
    ("charpoly", "charpoly-coefficients-are-convolved", "_series_rows",
     table_off_by_one(verify._series_rows), (0, 0),
     ("coefficient", "signed-convolved")),
    ("charpoly", "binomial-route-agrees", "convolved_fib",
     off_by_one(verify.convolved_fib), (0, 0),
     ("binomial", "series", "table")),
    ("charpoly", "binomial-route-agrees", "convolved_table",
     table_off_by_one(verify.convolved_table), (0, 0),
     ("binomial", "series", "table")),
    ("charpoly", "binomial-route-agrees", "_series_rows",
     table_off_by_one(verify._series_rows), (0, 0),
     ("binomial", "series", "table")),
    ("identity24", "alternating-sum-is-fibonacci", "alternating_sum",
     off_by_one(verify.alternating_sum), (0, None),
     ("alternating-sum", "fibonacci")),
    ("adjugate", "cofactor-matrix-determinant", "adjugate_det_F",
     off_by_one(verify.adjugate_det_F), (2, None),
     ("cofactor-matrix-det", "fibonacci-power")),
    ("adjugate", "cofactor-closed-form", "cofactor_F",
     off_by_one(verify.cofactor_F), (1, None),
     ("i", "j", "closed-form", "oracle")),
    ("adjugate", "cofactor-closed-form", "adjugate_oracle",
     table_off_by_one(verify.adjugate_oracle), (1, None),
     ("i", "j", "closed-form", "oracle")),
    ("compositions", "route-agreement", "triangle",
     rows_off_by_one("recurrence"), (0, 0),
     ("formula", "bruteforce", "recurrence", "bitstring")),
    ("compositions", "route-agreement", "triangle",
     rows_off_by_one("formula"), (0, 0),
     ("formula", "bruteforce", "recurrence", "bitstring")),
    ("compositions", "route-agreement", "triangle",
     rows_off_by_one("bruteforce"), (0, 0),
     ("formula", "bruteforce", "recurrence", "bitstring")),
    ("compositions", "route-agreement", "triangle",
     rows_off_by_one("bitstring"), (0, 0),
     ("formula", "bruteforce", "recurrence", "bitstring")),
    ("compositions", "minor-route-agreement", "triangle",
     rows_off_by_one("minors"), (0, 0),
     ("formula", "minors", "charpoly")),
    ("compositions", "route-agreement", "triangle",
     last_row_padded("bruteforce"), (6, 7),
     ("formula", "bruteforce", "recurrence", "bitstring")),
    ("compositions", "minor-route-agreement", "triangle",
     row_zero_of("minors", [2]), (0, 0),
     ("formula", "minors", "charpoly")),
    ("compositions", "minor-route-agreement", "triangle",
     rows_off_by_one("charpoly"), (0, 0),
     ("formula", "minors", "charpoly")),
    ("compositions", "row-sums", "c_formula",
     off_by_one(verify.c_formula), (1, None),
     ("row-sum", "power")),
    ("compositions", "edge-columns", "fib",
     off_by_one(verify.fib), (0, None),
     ("c(n,0)", "fib(n-1)", "c(n,n)")),
    ("compositions", "penultimate-zero", "c_formula",
     off_by_one(verify.c_formula), (2, 1),
     ("c(n,n-1)", "expected")),
]


def _ids(mutations):
    # a check's first mutation is named suite/check, any further one adds its
    # route, and one more that breaks the same route adds the mutant's name
    ids = []
    for suite, check, route, mutant, *_ in mutations:
        name = f"{suite}/{check}"
        for suffix in (route, mutant.__name__):
            if name in ids:
                name += f"/{suffix}"
        ids.append(name)
    return ids


IDS = _ids(MUTATIONS)


@pytest.mark.parametrize("suite, check, route, mutant, where, labels", MUTATIONS, ids=IDS)
def test_a_route_off_by_one_fails_its_check(
    monkeypatch, suite, check, route, mutant, where, labels
):
    monkeypatch.setattr(verify, route, mutant)
    result = {c.name: c for c in verify.run_suite(suite, nmax=6).checks}[check]
    assert not result.passed
    ce = result.counterexample
    assert (ce.n, ce.k) == where
    assert tuple(ce.values) == labels


def test_random_tables_catch_an_expansion_that_drops_head_entries(monkeypatch):
    # build_F's and build_G's heads hold at most two entries, so only the
    # random tables reach a third head entry of the walk det runs
    expansion = hessenberg._expansion_det

    def two_entry_heads(rows, one):
        return expansion([(head[:2], tail) for head, tail in rows], one)

    monkeypatch.setattr(hessenberg, "_expansion_det", two_entry_heads)
    checks = {c.name: c for c in verify.run_suite("thm11").checks}
    assert checks["det-F-fibonacci"].passed
    assert checks["det-G-fibonacci"].passed
    tables = checks["random-tables"]
    assert not tables.passed
    ce = tables.counterexample
    assert (ce.n, ce.k) == (7, None)
    assert ce.values == {"trial": 0, "expansion": -93, "oracle": -253}


def test_wrong_index_reports_whatever_the_routes_compute(monkeypatch):
    monkeypatch.setattr(verify, "triangle", rows_off_by_one("bruteforce"))
    (result,) = verify.run_suite("compositions", variant="wrong-index").checks
    assert not result.passed
    assert (result.counterexample.n, result.counterexample.k) == (3, 1)
    assert result.counterexample.values == {"formula[wrong-index]": 5, "bruteforce": 3}


def test_wrong_index_passes_once_the_index_is_right(monkeypatch):
    # the demonstration fails because of the shifted index, not the engine
    def right_index(n, k):
        return c_formula(n, k, convolved_table(k + 1, n - k + 1))

    monkeypatch.setattr(verify, "c_formula_wrong_index", right_index)
    (result,) = verify.run_suite("compositions", variant="wrong-index").checks
    assert result.passed
    assert result.counterexample is None
