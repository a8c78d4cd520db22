"""Benchmark of the fibcomb command line: workloads ``tables``, ``values`` and ``verify``.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports fibcomb from ``src/``.
One process, one client, closed loop: each operation calls
``fibcomb.cli.main(argv)`` in-process with stdout captured, and the next
starts when it returns.  A seeded list of operations (a cycle) runs once
untimed, and its outputs are checked against independent computations
(``checks.py``); then whole cycles repeat until ``--seconds`` have passed,
and every timed output must equal the checked one.

``--trace 0`` prints the end-to-end metrics.  Its timed phase runs under
``HostSpeed`` (``hostspeed.py``), which samples the host's momentary speed,
and operation times are reported in units of that reference work.
``--trace 1`` times the first half of the run untraced and the second half
with every layer wrapped in spans (``tracing.py``), and prints per-layer
figures per cycle plus the tracing overhead.  The last line of stdout is the JSON result; a
copy and the trace spans are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
from hostspeed import HostSpeed
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
# Cold starts per run for setup_s: half before the warm-up and half after the
# timed phase, so that one slow stretch of the host does not decide the median.
COLD_STARTS = 10


@dataclass
class Op:
    argv: list[str]
    check: Callable[[str, object], None]  # (stdout, parsed output) -> raises CheckError
    parse: str | None = None  # fibcomb.formats parser run on stdout inside the operation
    exit_code: int = 0


@dataclass
class Outcome:
    code: object
    stdout: str
    parsed: object
    start: float
    seconds: float


# -- workloads -----------------------------------------------------------------
#
# Each cycle is a fixed ladder of sizes spanning the workload's range, and
# the seed moves every size by at most about 1% (triangles: antithetic pairs
# base +- d), picks the order, the b-file offsets and the verify seeds.  So
# every seed does nearly the same work, which keeps ops_per_kref steady
# across seeds, and a cluster of near-equal operations sits in the middle of
# each ladder so that latency_p50_ref does not jump between two operation kinds.


def _near(rng: random.Random, base: int) -> int:
    spread = max(1, round(base / 100))
    return base + rng.randint(-spread, spread)


def _triangle_op(n_max: int, offset: int) -> Op:
    return Op(
        ["triangle", str(n_max), "--format", "bfile", "--offset", str(offset)],
        lambda out, pairs: checks.check_triangle_bfile(out, pairs, n_max, offset),
        parse="parse_bfile",
    )


def _table_op(r_max: int, m_max: int) -> Op:
    return Op(
        ["convolved", str(r_max), str(m_max), "--table", "--format", "csv"],
        lambda out, grid: checks.check_convolved_grid(out, grid, r_max, m_max),
        parse="parse_grid_csv",
    )


def tables_ops(rng: random.Random) -> list[Op]:
    # triangle rows 0..42 (five times: 42, 42 +- d1, 42 +- d2) are the middle
    # cluster; six cheaper and six dearer operations surround it
    sizes = [42]
    for base in (28, 35, 42, 42, 48, 52):
        d = rng.randint(0, 1)
        sizes += [base - d, base + d]
    ops = [_triangle_op(n, rng.randrange(1000)) for n in sizes]
    ops += [_table_op(20, _near(rng, 180)) for _ in range(2)]
    ops += [_table_op(30, _near(rng, 330)) for _ in range(2)]
    rng.shuffle(ops)
    return ops


def _value_op(argv: list[str], expected: Callable[[], int]) -> Op:
    return Op(argv, lambda out, _: checks.check_number(out, expected()))


def values_ops(rng: random.Random) -> list[Op]:
    # fib near 20000 (five times) is the middle cluster; eight cheaper and
    # eight dearer operations surround it
    ops = []
    for base in (4000, 8000, 12000, 16000, 20000, 20000, 20000, 20000, 20000):
        n = _near(rng, base)
        ops.append(_value_op(["fib", str(n)], partial(checks.fib, n)))
    # Fails every time: fib(100000) has 20899 digits, over the interpreter's
    # 4300-digit limit for int -> str, so the command exits 2.  Kept, not
    # seeded, and counted in ``failed``.
    ops.append(_value_op(["fib", "100000"], partial(checks.fib, 100000)))
    for base in (150, 650, 1000):
        n = _near(rng, base)
        ops.append(_value_op(["det", "F", str(n)], partial(checks.fib, n + 1)))
        n = _near(rng, base)
        ops.append(_value_op(["det", "G", str(n)], partial(checks.fib, n - 1)))
    for base in (40, 110, 200):
        n = _near(rng, base)
        ops.append(Op(["charpoly", str(n)], lambda out, _, n=n: checks.check_charpoly(out, n)))
    for r, base in ((6, 100), (14, 180), (20, 250)):
        m = _near(rng, base)
        ops.append(_value_op(["convolved", str(r), str(m)], partial(checks.conv, r, m)))
    rng.shuffle(ops)
    return ops


def verify_ops(rng: random.Random) -> list[Op]:
    return [
        Op(["verify", "--seed", str(rng.randrange(10**6))], lambda out, _: checks.check_verify_all(out)),
        Op(
            ["verify", "--suite", "compositions", "--variant", "wrong-index"],
            lambda out, _: checks.check_wrong_index(out),
            exit_code=1,
        ),
        Op(["verify", "--seed", str(rng.randrange(10**6))], lambda out, _: checks.check_verify_all(out)),
    ]


WORKLOADS = {"tables": tables_ops, "values": values_ops, "verify": verify_ops}

# -- metrics ---------------------------------------------------------------------

END_TO_END = {"ops_per_kref": "1/kref", "latency_p50_ref": "ref", "setup_s": "s", "peak_rss_mib": "MiB"}
SELF_TIMES = (
    "compositions.triangle", "compositions.c_formula",
    "convolved.convolved_table", "convolved.convolved_series",
    "convolved.convolved_fib_binomial", "convolved.alternating_sum",
    "poly.convolve", "poly.mul", "fib.fib", "fib.fib_poly",
    "hessenberg.det", "hessenberg.det_oracle", "hessenberg.minor_sums", "hessenberg.char_poly",
    "formats.render", "formats.parse",
    *(f"verify.suite.{name}" for name in checks.SUITES),
    "cli.main",
)
CALLS = (
    "compositions.triangle", "compositions.c_formula", "convolved.convolved_series",
    "poly.convolve", "poly.mul", "fib.fib", "hessenberg.det", "hessenberg.det_oracle", "cli.main",
)
COUNTS = (
    "compositions.enumerated", "poly.convolve.coeff_products", "formats.render.bytes",
    "formats.parse.bytes", "verify.checks", "cli.stdout_bytes",
)


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    names = [(f"{span}.self_s", "s") for span in SELF_TIMES]
    names += [(f"{span}.calls", "count") for span in CALLS]
    names += [(name, "computed_count" if name.endswith("coeff_products") else
               "bytes" if name.endswith("bytes") else "count") for name in COUNTS]
    names += [("fib.fib.distinct_share", "ratio"),
              ("trace.overhead.ops_per_s", "ratio"), ("trace.overhead.latency_p50_s", "ratio")]
    return names


# -- running -------------------------------------------------------------------------


def run_op(op: Op, tracer: Tracer | None = None) -> Outcome:
    # imported here: main() first puts this checkout's src/ on sys.path
    import fibcomb.cli
    import fibcomb.formats

    stdout = io.StringIO()
    start = perf_counter()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        try:
            code = fibcomb.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation; keep the loop going
            code = traceback.format_exc()
    text = stdout.getvalue()
    parsed = getattr(fibcomb.formats, op.parse)(text) if op.parse and code == op.exit_code else None
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.counts["cli.stdout_bytes"] += len(text.encode())
    return Outcome(code, text, parsed, start, seconds)


@dataclass
class Phase:
    cycles: int = 0
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    intervals: list[tuple[float, float, bool]] = field(default_factory=list)  # start, end, completed
    cycle_s: list[float] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall

    @property
    def latency_p50_s(self) -> float:
        return statistics.median(self.latencies)


class Runner:
    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.verified: dict[int, Outcome] = {}
        self.errors: list[str] = []

    def _accept(self, index: int, outcome: Outcome) -> None:
        """Check a completed operation against the verified output, or verify it."""
        known = self.verified.get(index)
        if known is not None:
            if (checks.without_durations(outcome.stdout) != checks.without_durations(known.stdout)
                    or outcome.parsed != known.parsed):
                self.errors.append(f"{self.ops[index].argv}: output changed between cycles")
            return
        try:
            self.ops[index].check(outcome.stdout, outcome.parsed)
        except checks.CheckError as exc:
            self.errors.append(f"{self.ops[index].argv}: {exc}")
        self.verified[index] = outcome

    def warm_up(self) -> None:
        for index, op in enumerate(self.ops):
            outcome = run_op(op)
            if outcome.code == op.exit_code:
                self._accept(index, outcome)

    def phase(self, seconds: float, tracer: Tracer | None = None) -> Phase:
        """Whole cycles until ``seconds`` have passed."""
        result = Phase()
        start = cycle_start = perf_counter()
        while True:
            for index, op in enumerate(self.ops):
                if tracer is not None:
                    tracer.begin_op(result.attempted)
                outcome = run_op(op, tracer)
                if tracer is not None:
                    tracer.end_op()
                result.attempted += 1
                completed = outcome.code == op.exit_code
                result.intervals.append((outcome.start, outcome.start + outcome.seconds, completed))
                if not completed:
                    result.failed += 1
                    continue
                result.latencies.append(outcome.seconds)
                self._accept(index, outcome)
            result.cycles += 1
            now = perf_counter()
            result.cycle_s.append(now - cycle_start)
            cycle_start = now
            if now - start >= seconds:
                break
        result.wall = perf_counter() - start
        return result


def cold_start_seconds(count: int) -> list[float]:
    """Wall times of ``count`` fresh interpreters importing fibcomb.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    command = [sys.executable, "-c", "import fibcomb.cli"]
    times = []
    for _ in range(count):
        start = perf_counter()
        subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def reference_metrics(timed: Phase, speed: HostSpeed) -> dict[str, float]:
    """ops_per_kref and latency_p50_ref: operation costs in reference units."""
    costs = [(speed.cost(start, end), completed) for start, end, completed in timed.intervals]
    done = [cost for cost, completed in costs if completed]
    return {
        "ops_per_kref": 1000 * len(done) / sum(cost for cost, _ in costs),
        "latency_p50_ref": statistics.median(done),
    }


def layer_metrics(tracer: Tracer, traced: Phase, untraced: Phase) -> dict[str, float]:
    per_cycle = 1 / traced.cycles
    values = {f"{span}.self_s": tracer.self_s[span] * per_cycle for span in SELF_TIMES}
    values.update({f"{span}.calls": tracer.calls[span] * per_cycle for span in CALLS})
    values.update({name: tracer.counts[name] * per_cycle for name in COUNTS})
    fib_calls = tracer.calls["fib.fib"]
    values["fib.fib.distinct_share"] = tracer.counts["fib.fib.distinct"] / fib_calls if fib_calls else 0.0
    values["trace.overhead.ops_per_s"] = untraced.ops_per_s / traced.ops_per_s - 1
    values["trace.overhead.latency_p50_s"] = traced.latency_p50_s / untraced.latency_p50_s - 1
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import fibcomb.cli
    except ImportError as exc:
        print(f"error: cannot import fibcomb from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(fibcomb.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: fibcomb was imported from {fibcomb.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    runner = Runner(WORKLOADS[args.workload](random.Random(args.seed)))
    if not args.trace:
        cold_start_seconds(1)  # settles the byte-code and file caches; not counted
        starts = cold_start_seconds(COLD_STARTS // 2)
    runner.warm_up()
    if args.trace:
        untraced = runner.phase(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.phase(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        phases = (untraced, traced)
        metrics = layer_metrics(tracer, traced, untraced)
        units = dict(per_layer_names())
    else:
        with HostSpeed() as speed:
            timed = runner.phase(args.seconds)
        starts += cold_start_seconds(COLD_STARTS - COLD_STARTS // 2)
        phases = (timed,)
        metrics = {
            **reference_metrics(timed, speed),
            "setup_s": statistics.median(starts),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    for error in runner.errors:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {**result, "wall_s": [p.wall for p in phases], "cycle_s": [p.cycle_s for p in phases],
               "operations": [op.argv for op in runner.ops]}
    if not args.trace:
        # wall-clock figures of the same run, for reading the reference units
        details.update(wall_ops_per_s=timed.ops_per_s, wall_latency_p50_s=timed.latency_p50_s,
                       reference_samples=len(speed.took),
                       reference_median_s=statistics.median(speed.took))
    (OUT / f"result-{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        tracer.write_spans(OUT / f"trace-{stem}.csv")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
