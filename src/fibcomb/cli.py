"""Command-line front end: values, tables, and the verification suites.

Exit codes: 0 on success (and when every verification check passes), 1 when
a verification check fails, 2 on usage or resource errors (a
``MemoryError`` among them) and when standard output is closed before the
output is complete (``fibcomb fib 10 | true``).

``main`` builds the argument parser on its first call and reuses it for the
rest of the process, and lifts the int-to-str digit limit while a command
runs.  Every value and table is printed with ``str()``.  ``fib n`` alone
picks its number type: past ``_STR_BITS`` (2^15) bits it runs ``fib``'s
loop over an exact ``decimal.Decimal``, whose ``str()`` is linear in the
digit count, where ``str()`` of an int is quadratic before Python 3.12.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .compositions import ROUTES, triangle
from .convolved import convolved_fib, convolved_table
from .fib import fib
from .formats import FORMATS, render_grid, render_triangle
from .hessenberg import build_F, build_G, char_poly, det
from .verify import SUITE_NAMES, format_report, run_all, run_suite


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibcomb",
        description=(
            "Exact-integer combinatorics: Fibonacci numbers as Hessenberg "
            "determinants, convolved Fibonacci numbers, and the triangle of "
            "compositions counted by their number of ones."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fib", help="Fibonacci number of index n (n >= -1)")
    p.add_argument("n", type=int)

    p = sub.add_parser("convolved", help="convolved Fibonacci number or table")
    p.add_argument("r", type=int, help="convolution order >= 1 (row bound with --table)")
    p.add_argument("m", type=int, help="series index >= 1 (column bound with --table)")
    p.add_argument("--table", action="store_true", help="emit the full r x m table")
    p.add_argument("--format", choices=FORMATS, default="plain")
    p.add_argument("--offset", type=int, default=0, help="first index for bfile output")

    p = sub.add_parser("triangle", help="rows 0..n_max of the composition-ones triangle")
    p.add_argument("n_max", type=int)
    p.add_argument("--route", choices=ROUTES, default="formula")
    p.add_argument("--format", choices=FORMATS, default="plain")
    p.add_argument("--bound", type=int, default=None,
                   help="override the enumeration cap (bruteforce, bitstring, minors)")
    p.add_argument("--offset", type=int, default=0, help="first index for bfile output")

    p = sub.add_parser("det", help="determinant of the order-n F or G matrix")
    p.add_argument("family", choices=("F", "G"))
    p.add_argument("n", type=int)

    p = sub.add_parser("charpoly", help="characteristic polynomial of the order-n F matrix")
    p.add_argument("n", type=int)

    p = sub.add_parser("verify", help="run identity-verification suites")
    p.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p.add_argument("--nmax", type=int, default=None, help="override the suite's index bound")
    p.add_argument("--bound", type=int, default=None, help="override enumeration caps")
    p.add_argument("--seed", type=int, default=0, help="seed for the random-table check")
    p.add_argument(
        "--variant",
        choices=("wrong-index",),
        default=None,
        help="compositions only: demonstrate the shifted-constraint counterexample",
    )
    return parser


# the number type of fib's loop: over int below this many bits, over an
# exact Decimal above.  On a 2-core x86-64 host under Python 3.11.7 (only
# 3.11 measured), computing and printing fib(n) costs the same within 5%
# on both from n = 8,000 to 46,550 (1.6 ms there), and Decimal pulls ahead
# from n = 46,600 (1.66 vs 0.74 ms at 47,200, 7.1 vs 1.8 ms at 100,000,
# 61 vs 4.6 ms at 300,000)
_STR_BITS = 1 << 15
# fib(n) < phi^n, so fib(n) has at most _STR_BITS bits while n log2(phi)
# <= _STR_BITS, that is for n < 47,200
_LOG2_PHI = math.log2((1 + math.sqrt(5)) / 2)


def _cmd_fib(args: argparse.Namespace) -> int:
    if args.n * _LOG2_PHI <= _STR_BITS:
        print(fib(args.n))
    else:
        import decimal

        # a rounded result raises Inexact
        ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
        ctx.traps[decimal.Inexact] = True
        with decimal.localcontext(ctx):
            print(fib(args.n, decimal.Decimal(1)))
    return 0


def _cmd_convolved(args: argparse.Namespace) -> int:
    if args.table:
        grid = convolved_table(args.r, args.m)
        print(render_grid(grid, args.format, args.offset), end="")
    else:
        print(convolved_fib(args.r, args.m))
    return 0


def _cmd_triangle(args: argparse.Namespace) -> int:
    rows = triangle(args.n_max, args.route, args.bound)
    print(render_triangle(rows, args.format, args.offset), end="")
    return 0


def _cmd_det(args: argparse.Namespace) -> int:
    build = build_F if args.family == "F" else build_G
    print(det(build(args.n)))
    return 0


def _cmd_charpoly(args: argparse.Namespace) -> int:
    print(char_poly(build_F(args.n)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        if args.variant is not None:
            raise ValueError("--variant needs --suite compositions")
        reports = run_all(nmax=args.nmax, bound=args.bound, seed=args.seed)
    else:
        reports = [run_suite(args.suite, nmax=args.nmax, bound=args.bound,
                             seed=args.seed, variant=args.variant)]
    for report in reports:
        print(format_report(report))
    return 0 if all(report.passed for report in reports) else 1


_COMMANDS = {
    "fib": _cmd_fib,
    "convolved": _cmd_convolved,
    "triangle": _cmd_triangle,
    "det": _cmd_det,
    "charpoly": _cmd_charpoly,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # values are exact ints of any size, so printing one must not hit the
    # int-to-str digit limit (Python >= 3.10.7); restore the caller's limit
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        code = _COMMANDS[args.command](args)
        # a closed stdout fails here, where it is caught, and not in the
        # interpreter's flush at exit
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone: what is still buffered, and the flush at exit,
        # go to os.devnull, so that the one line below is all that is printed
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed before the output was complete",
              file=sys.stderr)
        return 2
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
