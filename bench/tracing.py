"""Spans and counters around fibcomb's public functions, from outside the package.

``Tracer.install`` replaces each traced function under every name its
callers look it up by (``fibcomb.compositions.convolve``,
``fibcomb.hessenberg.det_oracle``, ``IntPolynomial.__mul__`` ...) with a
wrapper that records a span: name, start, end, parent span and operation id.
``uninstall`` puts the originals back.  Spans stay in memory and are
written out by ``write_spans`` at the end of a run.

A span's self time is its duration minus the time covered by its child
spans; it is accumulated per span name as spans close.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

# (defining module, function, span name).  Self time and calls are kept for
# every entry; the counters below are kept where a layer metric needs them.
TRACED = (
    ("fibcomb.cli", "main", "cli.main"),
    ("fibcomb.compositions", "triangle", "compositions.triangle"),
    ("fibcomb.compositions", "c_formula", "compositions.c_formula"),
    ("fibcomb.convolved", "convolved_table", "convolved.convolved_table"),
    ("fibcomb.convolved", "convolved_series", "convolved.convolved_series"),
    ("fibcomb.convolved", "convolved_fib_binomial", "convolved.convolved_fib_binomial"),
    ("fibcomb.convolved", "alternating_sum", "convolved.alternating_sum"),
    ("fibcomb.poly", "convolve", "poly.convolve"),
    ("fibcomb.fib", "fib", "fib.fib"),
    ("fibcomb.fib", "fib_poly", "fib.fib_poly"),
    ("fibcomb.hessenberg", "det", "hessenberg.det"),
    ("fibcomb.hessenberg", "det_oracle", "hessenberg.det_oracle"),
    ("fibcomb.hessenberg", "minor_sums", "hessenberg.minor_sums"),
    ("fibcomb.hessenberg", "char_poly", "hessenberg.char_poly"),
    ("fibcomb.formats", "render_triangle", "formats.render"),
    ("fibcomb.formats", "render_grid", "formats.render"),
    ("fibcomb.formats", "parse_bfile", "formats.parse"),
    ("fibcomb.formats", "parse_grid_csv", "formats.parse"),
    ("fibcomb.verify", "run_suite", "verify.suite"),
)
# Generators whose items are counted (the brute-force enumerations).
COUNTED = (
    ("fibcomb.compositions", "enumerate_compositions"),
    ("fibcomb.compositions", "bitstring_runs"),
)
MAX_STORED_SPANS = 1 << 18


def _coeff_products(a, b, length: int) -> int:
    # products poly.convolve computes for these argument lengths (zero
    # coefficients of ``a`` included): sum over i < min(len a, length) of
    # min(len b, length - i)
    rows, width = min(len(a), length), len(b)
    full = max(0, min(rows, length - width + 1))
    first, last = length - full, length - rows + 1  # length - i for i = full .. rows-1
    return full * width + (first + last) * (rows - full) // 2


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_seen = 0
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.op = -1
        self._stack: list[list] = []  # [span id, time covered by children]
        self._fib_args: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- operations ------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._fib_args = set()

    def end_op(self) -> None:
        self.counts["fib.fib.distinct"] += len(self._fib_args)
        self._fib_args = set()

    # -- spans -------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self) -> list:
        frame = [self.spans_seen, 0.0]
        self.spans_seen += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        parent = -1
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        if len(self.span_id) < MAX_STORED_SPANS:
            self.span_id.append(frame[0])
            self.span_parent.append(parent)
            self.span_op.append(self.op)
            self.span_name.append(self._name_id(name))
            self.span_start.append(start)
            self.span_end.append(end)

    def wrap(self, name: str, fn):
        tracer = self
        counts = self.counts
        if name == "fib.fib":
            def observe(args, kwargs, result):
                tracer._fib_args.add(args[0] if args else kwargs.get("n"))
        elif name == "poly.convolve":
            def observe(args, kwargs, result):
                counts["poly.convolve.coeff_products"] += _coeff_products(*args, **kwargs)
        elif name == "formats.render":
            def observe(args, kwargs, result):
                counts["formats.render.bytes"] += len(result.encode())
        elif name == "formats.parse":
            def observe(args, kwargs, result):
                counts["formats.parse.bytes"] += len((args[0] if args else kwargs["text"]).encode())
        elif name == "verify.suite":
            def observe(args, kwargs, result):
                counts["verify.checks"] += len(result.checks)
        else:
            observe = None

        def wrapper(*args, **kwargs):
            span = name
            if name == "verify.suite":
                span = f"verify.suite.{args[0] if args else kwargs['name']}"
            frame = tracer._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, span, start, perf_counter())
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def count_items(self, fn):
        counts = self.counts

        def counted(items):
            for item in items:
                counts["compositions.enumerated"] += 1
                yield item

        def wrapper(*args, **kwargs):
            # call fn eagerly so its argument checks still raise at the call
            return counted(fn(*args, **kwargs))

        return wrapper

    # -- patching ------------------------------------------------------------
    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fibcomb" and not mod_name.startswith("fibcomb."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function wherever fibcomb's modules bind it."""
        for mod_name, func, span in TRACED:
            original = getattr(sys.modules[mod_name], func, None)
            if original is not None:
                self._patch_everywhere(original, self.wrap(span, original))
        for mod_name, func in COUNTED:
            original = getattr(sys.modules[mod_name], func, None)
            if original is not None:
                self._patch_everywhere(original, self.count_items(original))
        poly_cls = getattr(sys.modules["fibcomb.poly"], "IntPolynomial")
        mul = poly_cls.__dict__["__mul__"]
        wrapped = self.wrap("poly.mul", mul)
        for attr in ("__mul__", "__rmul__"):
            if poly_cls.__dict__.get(attr) is mul:
                self._patches.append((poly_cls, attr, mul))
                setattr(poly_cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------
    def write_spans(self, path) -> None:
        """One CSV line per stored span: id, parent, op, name, start, end."""
        with open(path, "w", encoding="ascii") as out:
            out.write(f"# spans seen {self.spans_seen}, stored {len(self.span_id)}\n")
            out.write("id,parent,op,name,start_s,end_s\n")
            names = self.names
            for i in range(len(self.span_id)):
                out.write(
                    f"{self.span_id[i]},{self.span_parent[i]},{self.span_op[i]},"
                    f"{names[self.span_name[i]]},{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n"
                )
