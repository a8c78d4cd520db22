"""Exact-integer combinatorics around Fibonacci-flavored Hessenberg determinants.

Everything is computed over plain Python ints (exact, unbounded) and every
headline quantity is available by at least two independently coded routes so
the routes can verify each other: Fibonacci numbers as Hessenberg
determinants, convolved Fibonacci numbers, and the triangle counting
compositions of n by their number of ones (OEIS A105422).

The package exports the value functions, one per quantity a ``fibcomb``
command prints.  Routes, oracles, bounds and the verification suites are
imported from their modules: ``fibcomb.compositions``, ``fibcomb.convolved``,
``fibcomb.fib``, ``fibcomb.hessenberg``, ``fibcomb.poly``,
``fibcomb.formats`` and ``fibcomb.verify``.
"""

from .compositions import triangle
from .convolved import convolved_fib, convolved_table
from .fib import fib
from .hessenberg import build_F, build_G, char_poly, det
from .verify import run_all

__version__ = "0.1.0"

__all__ = [
    "build_F",
    "build_G",
    "char_poly",
    "convolved_fib",
    "convolved_table",
    "det",
    "fib",
    "run_all",
    "triangle",
]
