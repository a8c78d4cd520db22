import decimal
import os
import random
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import fibcomb
import fibcomb.cli
from fibcomb.cli import _STR_BITS, _int_digits, build_parser, main
from fibcomb.convolved import _series_rows, convolved_fib, convolved_fib_binomial
from fibcomb.fib import fib
from fibcomb.hessenberg import build_F, build_G, det


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fib_extended_indices(capsys):
    assert run(capsys, "fib", "-1") == (0, "1\n", "")
    assert run(capsys, "fib", "0") == (0, "0\n", "")
    assert run(capsys, "fib", "1") == (0, "1\n", "")
    assert run(capsys, "fib", "2") == (0, "1\n", "")
    assert run(capsys, "fib", "10") == (0, "55\n", "")


def test_fib_usage_error(capsys):
    code, out, err = run(capsys, "fib", "-2")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_convolved_single_values(capsys):
    assert run(capsys, "convolved", "1", "7")[:2] == (0, "13\n")
    assert run(capsys, "convolved", "3", "3")[:2] == (0, "9\n")


def test_convolved_value_matches_the_series_definition(capsys):
    # the command prints the binomial sum; the series rows convolve
    for r, series in enumerate(_series_rows([60] * 12), start=1):
        for m, value in enumerate(series, start=1):
            assert run(capsys, "convolved", str(r), str(m)) == (0, f"{value}\n", ""), (r, m)


def test_convolved_value_is_the_library_value(capsys):
    for r, m in ((3, 3), (6, 100), (20, 250), (1, 1)):
        assert run(capsys, "convolved", str(r), str(m)) == (0, f"{convolved_fib(r, m)}\n", "")
    for r, m in ((0, 5), (5, 0), (0, 0)):
        with pytest.raises(ValueError) as refused:
            convolved_fib(r, m)
        assert run(capsys, "convolved", str(r), str(m)) == (2, "", f"error: {refused.value}\n")


def test_convolved_value_usage_errors(capsys):
    # the index is checked before the order
    assert run(capsys, "convolved", "0", "3") == (
        2, "", "error: convolution order must be >= 1, got 0\n")
    assert run(capsys, "convolved", "2", "0") == (
        2, "", "error: series index must be >= 1, got 0\n")
    assert run(capsys, "convolved", "0", "0") == (
        2, "", "error: series index must be >= 1, got 0\n")


def test_convolved_table_csv_rows(capsys):
    code, out, _ = run(capsys, "convolved", "4", "10", "--table", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("1,1,2,3,5")


def test_convolved_table_usage_error_names_both_bounds(capsys):
    assert run(capsys, "convolved", "0", "5", "--table") == (
        2, "", "error: table bounds must be >= 1, got r_max=0, m_max=5\n")


def test_triangle_plain_rows(capsys):
    code, out, _ = run(capsys, "triangle", "4", "--route", "formula")
    assert code == 0
    assert out == "1\n0 1\n1 0 1\n1 2 0 1\n2 2 3 0 1\n"


def test_triangle_bfile_line_count(capsys):
    code, out, _ = run(capsys, "triangle", "4", "--format", "bfile")
    assert code == 0
    assert len(out.splitlines()) == 15


def test_triangle_routes_give_identical_output(capsys):
    outputs = set()
    for route in ("bruteforce", "formula", "recurrence", "bitstring", "minors", "charpoly"):
        code, out, _ = run(capsys, "triangle", "8", "--route", route)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_triangle_bound_enforcement(capsys):
    # refused up front, so the message names n_max and not row 25
    assert run(capsys, "triangle", "30", "--route", "bruteforce") == (
        2, "", "error: target 30 exceeds the enumeration bound 24 (2^(n-1) items); "
        "pass a larger bound to force it\n")


def test_det_commands(capsys):
    assert run(capsys, "det", "F", "6")[:2] == (0, "13\n")
    assert run(capsys, "det", "G", "6")[:2] == (0, "5\n")
    # order 0 is the empty matrix, determinant and characteristic polynomial 1
    for command in (("det", "F", "0"), ("det", "G", "0"), ("charpoly", "0")):
        assert run(capsys, *command)[:2] == (0, "1\n"), command
    assert run(capsys, "det", "F", "-1") == (
        2, "", "error: matrix order must be >= 0, got -1\n")


def test_charpoly_output(capsys):
    # det(xI - F_n) = (x - 1) det(xI - F_(n-1)) + det(xI - F_(n-2)), by hand
    printed = ["x - 1", "x^2 - 2x + 2", "x^3 - 3x^2 + 5x - 3", "x^4 - 4x^3 + 9x^2 - 10x + 5"]
    for n, text in enumerate(printed, start=1):
        assert run(capsys, "charpoly", str(n)) == (0, text + "\n", ""), n


def test_verify_single_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identity24", "--nmax", "40")
    assert code == 0
    assert "suite identity24: PASS" in out


def test_verify_all_with_small_bound(capsys):
    code, out, _ = run(capsys, "verify", "--nmax", "6")
    assert code == 0
    assert out.count("suite") == 6
    assert "FAIL" not in out


VERIFY_REPORT = """\
suite thm11: PASS (3/3 checks passed, _s)
  PASS thm11/det-F-fibonacci
  PASS thm11/det-G-fibonacci
  PASS thm11/random-tables
suite minors: PASS (1/1 checks passed, _s)
  PASS minors/minor-sums-are-convolved
suite charpoly: PASS (3/3 checks passed, _s)
  PASS charpoly/charpoly-equals-shifted-fib-poly
  PASS charpoly/charpoly-coefficients-are-convolved
  PASS charpoly/binomial-route-agrees
suite identity24: PASS (1/1 checks passed, _s)
  PASS identity24/alternating-sum-is-fibonacci
suite adjugate: PASS (2/2 checks passed, _s)
  PASS adjugate/cofactor-matrix-determinant
  PASS adjugate/cofactor-closed-form
suite compositions: PASS (5/5 checks passed, _s)
  PASS compositions/route-agreement
  PASS compositions/minor-route-agreement
  PASS compositions/row-sums
  PASS compositions/edge-columns
  PASS compositions/penultimate-zero
"""


@pytest.mark.parametrize("argv", [("verify",), ("verify", "--nmax", "0")])
def test_verify_report_text(capsys, argv):
    # the check order and the report layout, durations masked
    code, out, err = run(capsys, *argv)
    assert (code, re.sub(r"\d+\.\d\ds\)", "_s)", out), err) == (0, VERIFY_REPORT, "")


def test_verify_wrong_index_variant(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "compositions",
        "--variant", "wrong-index", "--nmax", "3",
    )
    assert code == 1
    assert "suite compositions: FAIL" in out
    assert "(n=3, k=1)" in out
    assert "formula[wrong-index]=5" in out
    assert "bruteforce=2" in out


@pytest.mark.parametrize("argv", [
    ("verify", "--nmax", "-1"),
    ("verify", "--suite", "thm11", "--nmax", "-1"),
])
def test_verify_refuses_negative_nmax(capsys, argv):
    # refused before any suite runs, so no check passes vacuously
    assert run(capsys, *argv) == (2, "", "error: nmax must be >= 0, got -1\n")


@pytest.mark.parametrize("argv, order, bound", [
    (("verify", "--suite", "minors", "--bound", "5"), 12, 5),
    (("verify", "--bound", "3", "--nmax", "5"), 5, 3),
    (("verify", "--bound", "-1", "--nmax", "0"), 0, -1),
])
def test_verify_refuses_the_minors_suite_up_front(capsys, argv, order, bound):
    # refused before any minor is summed, so the message names the largest
    # order the suite would reach, not the first order above the cap
    assert run(capsys, *argv) == (
        2, "", f"error: order {order} exceeds the enumeration bound {bound} "
        "(2^n principal-minor subsets); pass a larger bound to force it\n")


def test_variant_requires_compositions_suite(capsys):
    code, _, err = run(
        capsys, "verify", "--suite", "minors", "--variant", "wrong-index"
    )
    assert code == 2
    assert "compositions" in err


def test_unknown_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("fib", "10"), ("verify", "--nmax", "2")], ids=["fib", "verify"])
def test_a_closed_stdout_exits_2_with_one_error_line(argv, unbuffered):
    # the read end is closed before the command starts, so its first write
    # (unbuffered) or its flush (buffered) meets a broken pipe
    src = Path(fibcomb.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "fibcomb", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (
        2, "error: standard output was closed before the output was complete\n")


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="no int-to-str digit limit before Python 3.10.7",
)


@contextmanager
def unlimited_digits():
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@needs_digit_limit
def test_fib_prints_values_over_the_int_str_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "fib", "25000")
    assert (code, err, len(out)) == (0, "", 5226)
    assert sys.get_int_max_str_digits() == limit
    with unlimited_digits():
        assert out == f"{fib(25000)}\n"


def test_int_digits_is_str_around_the_threshold():
    edges = [0, 1, -1]
    for bits in (_STR_BITS - 1, _STR_BITS, _STR_BITS + 1):
        edges += [1 << (bits - 1), (1 << bits) - 1, -(1 << (bits - 1)), 1 - (1 << bits)]
    with unlimited_digits():
        for value in edges:
            assert _int_digits(value) == str(value), value.bit_length()


def test_int_digits_is_str_on_random_ints():
    rng = random.Random(14)
    with unlimited_digits():
        for _ in range(40):
            value = rng.getrandbits(rng.randrange(1, 200_001)) * rng.choice((1, -1))
            assert _int_digits(value) == str(value), value.bit_length()


@needs_digit_limit
@pytest.mark.parametrize("argv, value", [
    (("fib", "300000"), lambda: fib(300000)),
    (("det", "F", "60000"), lambda: det(build_F(60000))),
    (("det", "G", "60000"), lambda: det(build_G(60000))),
])
def test_values_over_the_split_threshold_print_as_str(capsys, argv, value):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv)
    assert sys.get_int_max_str_digits() == limit
    expected = value()
    assert expected.bit_length() > _STR_BITS
    with unlimited_digits():
        assert (code, out, err) == (0, f"{expected}\n", "")


def test_fib_switches_to_decimal_past_the_split_threshold(capsys, monkeypatch):
    # fib(n) < phi^n, so the command runs the int loop while n log2(phi)
    # <= _STR_BITS, through n = 47199, and the Decimal loop from 47200 on;
    # either way it prints str(fib(n))
    number_types = {}

    def spy(n, one=1):
        number_types[n] = type(one)
        return fib(n, one)

    monkeypatch.setattr(fibcomb.cli, "fib", spy)
    with unlimited_digits():
        for n in range(47196, 47206):
            assert run(capsys, "fib", str(n)) == (0, f"{fib(n)}\n", ""), n
    assert _STR_BITS == 1 << 15
    assert number_types == {n: int if n <= 47199 else decimal.Decimal
                            for n in range(47196, 47206)}


def test_convolved_value_below_the_split_threshold(capsys):
    # the binomial sum takes minutes to reach the threshold, so only str()
    # is exercised here
    value = convolved_fib_binomial(2000 + 20 - 2, 20 - 1)
    assert 1000 < value.bit_length() <= _STR_BITS
    with unlimited_digits():
        assert run(capsys, "convolved", "20", "2000") == (0, f"{value}\n", "")


def test_parser_is_built_once_and_reused():
    assert build_parser() is build_parser()


def run_to_exit(capsys, *argv):
    """Like ``run``, but an argparse exit (usage error, ``--help``) is a result."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_keeps_no_state_between_calls(capsys):
    later = (("triangle", "4"), ("convolved", "2", "5", "--table"), ("--help",))
    fresh = []
    for argv in later:
        build_parser.cache_clear()
        fresh.append(run_to_exit(capsys, *argv))
    assert fresh[0] == (0, "1\n0 1\n1 0 1\n1 2 0 1\n2 2 3 0 1\n", "")
    # a usage error, a refusal, a failed check and non-default options, all
    # on the one parser, must not change what the later commands print
    for argv, code in (
        (("triangle", "3", "--route", "magic"), 2),
        (("fib", "-2"), 2),
        (("verify", "--suite", "compositions", "--variant", "wrong-index"), 1),
        (("triangle", "4", "--format", "bfile", "--offset", "7"), 0),
    ):
        assert run_to_exit(capsys, *argv)[0] == code, argv
    assert [run_to_exit(capsys, *argv) for argv in later] == fresh
