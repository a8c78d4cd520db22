"""Tests of the benchmark's own checks and tracer.

    PYTHONPATH=src python -m pytest bench

The checks must accept hand-written rows of A105422 and of the convolved
table, and must reject wrong outputs such as a row from
``c_formula_wrong_index`` or an off-by-one Fibonacci number.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from fibcomb import cli, formats  # noqa: E402
from fibcomb.compositions import c_formula_wrong_index  # noqa: E402

# Rows 0..6 of OEIS A105422, counted by hand from the compositions of n.
A105422 = [
    [1],
    [0, 1],
    [1, 0, 1],
    [1, 2, 0, 1],
    [2, 2, 3, 0, 1],
    [3, 5, 3, 4, 0, 1],
    [5, 8, 9, 4, 5, 0, 1],
]
# Rows r = 1..3 of (1 - x - x^2)^(-r), m = 1..7 (A000045, A001629, A001628).
CONVOLVED = [
    [1, 1, 2, 3, 5, 8, 13],
    [1, 2, 5, 10, 20, 38, 71],
    [1, 3, 9, 22, 51, 111, 233],
]


def _bfile(rows: list[list[int]], offset: int) -> tuple[str, list[tuple[int, int]]]:
    pairs = list(enumerate((v for row in rows for v in row), start=offset))
    return "".join(f"{i} {v}\n" for i, v in pairs), pairs


def _csv(grid: list[list[int]]) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in grid)


def _cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_reference_formulas_match_hand_written_rows():
    assert [[checks.composition_count(n, k) for k in range(n + 1)] for n in range(7)] == A105422
    assert [[checks.conv(r, m) for m in range(1, 8)] for r in range(1, 4)] == CONVOLVED
    assert [checks.fib(n) for n in range(-1, 12)] == [1, 0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert checks.shifted_index_sum(3, 1) == 5


def test_triangle_check_accepts_a105422_and_rejects_the_wrong_index_row():
    text, pairs = _bfile(A105422, offset=7)
    checks.check_triangle_bfile(text, pairs, 6, 7)

    wrong = [row[:] for row in A105422]
    wrong[3] = [c_formula_wrong_index(3, k) for k in range(4)]
    assert wrong[3] != A105422[3]
    text, pairs = _bfile(wrong, offset=7)
    with pytest.raises(checks.CheckError):
        checks.check_triangle_bfile(text, pairs, 6, 7)
    with pytest.raises(checks.CheckError):  # right values, wrong offset
        checks.check_triangle_bfile(*_bfile(A105422, offset=0), 6, 7)


def test_convolved_check_accepts_the_table_and_rejects_one_wrong_entry():
    checks.check_convolved_grid(_csv(CONVOLVED), CONVOLVED, 3, 7)
    for r, m in ((0, 4), (1, 3), (2, 6)):
        wrong = [row[:] for row in CONVOLVED]
        wrong[r][m] += 1
        with pytest.raises(checks.CheckError):
            checks.check_convolved_grid(_csv(wrong), wrong, 3, 7)
    with pytest.raises(checks.CheckError):  # parse disagrees with the text
        checks.check_convolved_grid(_csv(CONVOLVED[:2]), CONVOLVED, 3, 7)


def test_number_checks_reject_off_by_one_fibonacci():
    checks.check_number("55\n", checks.fib(10))
    for text in ("89\n", "34\n", "55", "55\n55\n"):
        with pytest.raises(checks.CheckError):
            checks.check_number(text, checks.fib(10))


def test_charpoly_check():
    checks.check_charpoly("x^2 - 2x + 2\n", 2)
    assert checks.parse_polynomial("-x^3 + 12x - 1") == {3: -1, 1: 12, 0: -1}
    for text in ("x^2 - 2x + 3\n", "x^2 + 2x + 2\n", "x^3 - 2x + 2\n", "x^2 - 2x\n"):
        with pytest.raises(checks.CheckError):
            checks.check_charpoly(text, 2)


def test_verify_checks_on_real_and_doctored_reports():
    code, text = _cli("verify", "--nmax", "6")
    assert code == 0
    checks.check_verify_all(text)
    with pytest.raises(checks.CheckError):
        checks.check_verify_all(text.replace("  PASS adjugate/", "  FAIL adjugate/", 1))
    with pytest.raises(checks.CheckError):  # a suite missing
        checks.check_verify_all(text.split("suite compositions")[0])

    code, text = _cli("verify", "--suite", "compositions", "--variant", "wrong-index")
    assert code == 1
    checks.check_wrong_index(text)
    with pytest.raises(checks.CheckError):
        checks.check_wrong_index(text.replace("=5,", "=6,"))
    with pytest.raises(checks.CheckError):
        checks.check_wrong_index(text.replace("n=3, k=1", "n=4, k=1"))


def test_checks_accept_program_output():
    code, text = _cli("triangle", "14", "--format", "bfile", "--offset", "3")
    assert code == 0
    checks.check_triangle_bfile(text, formats.parse_bfile(text), 14, 3)
    code, text = _cli("convolved", "6", "25", "--table", "--format", "csv")
    assert code == 0
    checks.check_convolved_grid(text, formats.parse_grid_csv(text), 6, 25)
    checks.check_charpoly(_cli("charpoly", "30")[1], 30)
    checks.check_number(_cli("det", "G", "40")[1], checks.fib(39))
    checks.check_number(_cli("convolved", "7", "30")[1], checks.conv(7, 30))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workloads_are_seeded_whole_rounds(workload):
    make = run.WORKLOADS[workload]
    first = [op.argv for op in make(random.Random(5))]
    assert first == [op.argv for op in make(random.Random(5))]
    for seed in range(20):
        assert len(make(random.Random(seed))) == len(first)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((Path(run.BENCH).parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [Path(run.BENCH).name]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_coeff_products_counts_what_convolve_multiplies():
    rng = random.Random(1)
    for _ in range(200):
        a = [rng.randint(1, 9) for _ in range(rng.randint(0, 12))]
        b = [rng.randint(1, 9) for _ in range(rng.randint(0, 12))]
        length = rng.randint(0, 25)
        brute = sum(1 for i in range(min(len(a), length)) for _ in b[: length - i])
        assert tracing._coeff_products(a, b, length) == brute


def test_tracer_self_times_add_up_and_originals_come_back():
    import fibcomb.compositions as compositions
    import fibcomb.poly as poly

    before = (compositions.convolve, poly.IntPolynomial.__mul__, cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        out = io.StringIO()
        with redirect_stdout(out):
            cli.main(["triangle", "9"])
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert (compositions.convolve, poly.IntPolynomial.__mul__, cli.main) == before

    assert tracer.calls["cli.main"] == 1 and tracer.calls["compositions.triangle"] == 1
    assert tracer.calls["compositions.c_formula"] == sum(n + 1 for n in range(10))
    root = [i for i in range(len(tracer.span_id)) if tracer.span_parent[i] == -1]
    assert len(root) == 1
    total = tracer.span_end[root[0]] - tracer.span_start[root[0]]
    assert sum(tracer.self_s.values()) == pytest.approx(total)
    assert 0 < tracer.counts["fib.fib.distinct"] < tracer.calls["fib.fib"]


def test_host_speed_cost_removes_sampling_and_divides_by_the_local_speed():
    speed = hostspeed.HostSpeed()
    # a sample every 0.1 s taking 0.01 s; the host runs half as fast from t = 10
    speed.at = [i / 10 for i in range(200)]
    speed.took = [0.01 if t < 10 else 0.02 for t in speed.at]
    speed.index()
    # 2 s at full speed with 20 samples inside: 1.8 s of work, 180 references
    assert speed.cost(2.05, 4.05) == pytest.approx(180)
    # the same work at half speed: 3.6 s of work and 45 samples of 0.02 s
    assert speed.cost(12.05, 16.55) == pytest.approx(180)


def test_host_speed_samples_while_the_block_runs_and_restores_the_handler():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        start = perf_counter()
        while perf_counter() - start < 0.3:
            pass
        end = perf_counter()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.took) >= 5
    assert 0 < speed.cost(start, end) < (end - start) / min(speed.took)
