"""What every check of a default ``run_all()`` covers.

A check's duration says how fast it ran; these figures say how much it
compared.  Pinning them keeps a faster route from passing by quietly
walking fewer cases or stopping at a smaller index.
"""

from collections import Counter

from fibcomb import hessenberg, verify
from fibcomb.verify import run_all, run_suite

# suite -> check -> (cases, max_n, max_k)
RANGES = {
    "thm11": {
        "det-F-fibonacci": (26, 25, None),
        "det-G-fibonacci": (26, 25, None),
        "random-tables": (50, 10, None),
    },
    "minors": {
        "minor-sums-are-convolved": (78, 12, 11),
    },
    "charpoly": {
        "charpoly-equals-shifted-fib-poly": (16, 15, None),
        "charpoly-coefficients-are-convolved": (136, 15, 15),
        "binomial-route-agrees": (861, 40, 40),
    },
    "identity24": {
        "alternating-sum-is-fibonacci": (41, 40, None),
    },
    "adjugate": {
        "cofactor-matrix-determinant": (9, 10, None),
        "cofactor-closed-form": (204, 8, None),
    },
    "compositions": {
        "route-agreement": (191, 18, 18),
        "minor-route-agreement": (121, 14, 14),
        "row-sums": (30, 30, None),
        "edge-columns": (31, 30, None),
        "penultimate-zero": (29, 30, 29),
    },
}


def test_every_check_covers_its_pinned_range():
    seen = {
        report.suite: {
            check.name: (check.cases, check.max_n, check.max_k) for check in report.checks
        }
        for report in run_all()
    }
    assert seen == RANGES


def test_nmax_zero_compares_order_zero_in_every_leading_walk_check():
    # the leading walks start at the empty matrix, so --nmax 0 is one case
    seen = {
        check.name: (check.cases, check.max_n, check.max_k)
        for report in run_all(nmax=0) for check in report.checks
    }
    assert seen["det-F-fibonacci"] == seen["det-G-fibonacci"] == (1, 0, None)
    assert seen["charpoly-equals-shifted-fib-poly"] == (1, 0, None)
    assert seen["charpoly-coefficients-are-convolved"] == (1, 0, 0)


def test_a_failing_check_counts_the_cases_up_to_its_counterexample():
    (check,) = run_suite("compositions", variant="wrong-index").checks
    assert (check.cases, check.max_n, check.max_k) == (1, 3, 1)


def test_adjugate_suite_eliminates_once_per_order(monkeypatch):
    # one adjugate per order for the 204 closed-form cofactors, and one
    # determinant per order for the cofactor-matrix check
    calls = []
    for module, name in [(hessenberg, "det_oracle"), (verify, "det_oracle"),
                         (verify, "adjugate_oracle")]:

        def counted(*args, route=getattr(module, name), name=name):
            calls.append(name)
            return route(*args)

        monkeypatch.setattr(module, name, counted)
    assert run_suite("adjugate").passed
    assert Counter(calls) == {"det_oracle": 9, "adjugate_oracle": 8}


def test_random_tables_pass_on_50_tables_at_every_seed_below_100():
    # CI's console-script step runs seeds 1-8; this covers 5,000 tables
    for seed in range(100):
        (check,) = [c for c in run_suite("thm11", seed=seed).checks if c.name == "random-tables"]
        assert check.passed, (seed, check.counterexample)
        assert check.cases == 50 and check.max_n <= 10
