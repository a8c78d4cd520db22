"""Acceptance suite: one test per headline claim, each with a time budget.

Every criterion asserts that its checks in one verification suite passed;
each suite runs once, at its default bounds, for all the criteria that read
it.  The time held against the budget is the sum of the criterion's own
checks' durations, which cover all of their route work (the last test
holds every suite to that).  Every check is an exact integer (or exact
polynomial-coefficient) equality; there are no tolerances to tune.  Each test prints one pass/fail line, so
``pytest tests/test_acceptance.py -v -s`` doubles as a readable report.
"""

import io
import time
from contextlib import contextmanager, redirect_stdout
from functools import cache

import pytest

from fibcomb import verify
from fibcomb.cli import main as cli_main
from fibcomb.verify import run_suite


@contextmanager
def criterion_line(num, slug, budget):
    durations = []  # the body appends the duration of every check it ran
    try:
        yield durations
    except BaseException:
        print(f"ACCEPTANCE {num:2d} {slug}: FAIL")
        raise
    elapsed = sum(durations)
    within = elapsed < budget
    status = "PASS" if within else "FAIL (time budget exceeded)"
    print(f"ACCEPTANCE {num:2d} {slug}: {status} ({elapsed:.2f}s, budget {budget:g}s)")
    assert within, f"criterion {num} took {elapsed:.2f}s, budget {budget:g}s"


# only thm11's random-tables reads the seed; this one draws the 50 tables
# on which criterion 2 checks det against the oracle
SEED = 20250809


@cache
def suite_checks(suite):
    # one run per suite serves every criterion that reads from it
    return {check.name: check for check in run_suite(suite, seed=SEED).checks}


def criterion(num, slug, budget, suite, names):
    def test():
        with criterion_line(num, slug, budget) as durations:
            checks = suite_checks(suite)
            for name in names:
                assert checks[name].passed, f"{name}: {checks[name].counterexample}"
                durations.append(checks[name].duration)

    return test


test_01_determinants_of_both_families = criterion(
    1, "determinants-both-routes", 1.0, "thm11", ("det-F-fibonacci", "det-G-fibonacci"))
test_02_generic_recurrence_identity_on_random_tables = criterion(
    2, "recurrence-equals-scaled-det", 1.0, "thm11", ("random-tables",))
test_03_minor_sums_are_convolved_fibonacci = criterion(
    3, "minor-sums-vs-series", 30.0, "minors", ("minor-sums-are-convolved",))
test_04_charpoly_shift_and_coefficients = criterion(
    4, "charpoly-identities", 5.0, "charpoly",
    ("charpoly-equals-shifted-fib-poly", "charpoly-coefficients-are-convolved"))
test_05_binomial_route_matches_series = criterion(
    5, "binomial-vs-series", 5.0, "charpoly", ("binomial-route-agrees",))
test_06_alternating_double_sum_is_fibonacci = criterion(
    6, "alternating-sum", 1.0, "identity24", ("alternating-sum-is-fibonacci",))
test_07_cofactors_and_adjugate_determinant = criterion(
    7, "cofactor-identities", 10.0, "adjugate",
    ("cofactor-matrix-determinant", "cofactor-closed-form"))
test_08_five_route_agreement_on_the_triangle = criterion(
    8, "five-route-triangle", 60.0, "compositions",
    ("route-agreement", "minor-route-agreement"))


def test_09_wrong_index_variant_reports_the_documented_counterexample():
    with criterion_line(9, "wrong-index-counterexample", 10.0) as durations:
        report = run_suite("compositions", variant="wrong-index")
        assert not report.passed
        assert len(report.checks) == 1
        durations.append(report.checks[0].duration)
        ce = report.checks[0].counterexample
        assert (ce.n, ce.k) == (3, 1)
        assert ce.values == {"formula[wrong-index]": 5, "bruteforce": 2}

        # captured here rather than with capsys, which would also swallow
        # this criterion's ACCEPTANCE line
        with redirect_stdout(io.StringIO()) as cli_out:
            code = cli_main(["verify", "--suite", "compositions",
                             "--variant", "wrong-index", "--nmax", "3"])
        out = cli_out.getvalue()
        assert code == 1
        assert "(n=3, k=1)" in out
        assert "formula[wrong-index]=5" in out
        assert "bruteforce=2" in out


test_10_structural_row_properties = criterion(
    10, "structural-rows", 1.0, "compositions",
    ("row-sums", "edge-columns", "penultimate-zero"))


def test_check_durations_cover_their_route_work(monkeypatch):
    # the budgets above read CheckResult.duration, so every route a check
    # runs must run inside its timer, none while its suite is built
    def refuse(*args, **kwargs):
        raise AssertionError("route work outside a check's timer")

    builders = set(verify._SUITES.values())
    for name, value in vars(verify).items():
        if callable(value) and value not in builders:
            monkeypatch.setattr(verify, name, refuse)
    for build in builders:
        for cases in build(lambda default: default, None, 0).values():
            with pytest.raises(AssertionError, match="outside a check's timer"):
                for _ in cases():
                    pass
    monkeypatch.undo()

    series_table = verify._series_table

    def slow_series_table(n_max):
        time.sleep(0.05)
        return series_table(n_max)

    monkeypatch.setattr(verify, "_series_table", slow_series_table)
    durations = {check.name: check.duration for check in run_suite("charpoly").checks}
    assert durations["charpoly-coefficients-are-convolved"] >= 0.05
    assert durations["binomial-route-agrees"] >= 0.05
    assert durations["charpoly-equals-shifted-fib-poly"] < 0.05
