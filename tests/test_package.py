import ast
import hashlib
import os
import re
import subprocess
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

import fibcomb
from fibcomb.cli import build_parser, main
from fibcomb.compositions import ROUTES, _one_minus_x_power
from fibcomb.formats import FORMATS

# export -> its home module; the attribute fibcomb.fib is the function, so
# modules are looked up by name
HOMES = {
    "build_F": "hessenberg",
    "build_G": "hessenberg",
    "char_poly": "hessenberg",
    "convolved_fib": "convolved",
    "convolved_table": "convolved",
    "det": "hessenberg",
    "fib": "fib",
    "run_all": "verify",
    "triangle": "compositions",
}
EXPORTS = {name: getattr(import_module(f"fibcomb.{home}"), name) for name, home in HOMES.items()}
# the parsers invert the renderers, and only the benchmark checks and CI run
# them
CALLED_FROM_OUTSIDE = {"parse_bfile", "parse_grid_csv", "parse_triangle_csv"}


def test_all_is_the_value_functions():
    assert sorted(fibcomb.__all__) == sorted(EXPORTS)


def test_exports_are_the_module_objects():
    for name in fibcomb.__all__:
        assert getattr(fibcomb, name) is EXPORTS[name], name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from fibcomb import *", namespace)
    del namespace["__builtins__"]
    assert namespace == EXPORTS


def test_readme_library_example():
    from fibcomb import build_F, char_poly, convolved_fib, det, fib, triangle

    assert det(build_F(10)) == fib(11)
    assert char_poly(build_F(2)).coeffs == (2, -2, 1)
    assert convolved_fib(3, 3) == 9
    assert triangle(4) == [[1], [0, 1], [1, 0, 1], [1, 2, 0, 1], [2, 2, 3, 0, 1]]


def test_python_dash_m_runs_the_command_line():
    # the package's own parent directory is the path, so the run needs
    # neither an install nor the console script
    src = Path(fibcomb.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "fibcomb", "fib", "10"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "55\n", "")


def test_importing_the_command_line_skips_dataclasses_and_inspect():
    # -S: no site .pth file may load either module first
    src = Path(fibcomb.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, fibcomb.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def _references(node):
    # every name a node's code looks up, by name, attribute or import;
    # docstrings and comments are no such references
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_library_function_has_a_caller():
    # a module-level function or class must be referenced from somewhere in
    # the package other than its own body
    trees = [ast.parse(path.read_text()) for path in Path(fibcomb.__file__).parent.glob("*.py")]
    everywhere = Counter(name for tree in trees for name in _references(tree))
    uncalled = sorted(
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in CALLED_FROM_OUTSIDE
        and everywhere[node.name] == Counter(_references(node))[node.name]
    )
    assert uncalled == []


# product runs at small sizes, with the exit code each must give and the
# sha256 of its stdout: every command, every triangle route and table in
# every format, fib on both sides of its int/Decimal switch, both verify runs,
# and a refusal for main's error handler.  Every route prints the same
# triangle, so each format has one digest.
TABLE_3_4 = {
    "plain": "87586856ac90a4a27082e611c3cb0def4b06305b8cbc9a4a296078211d70b6db",
    "csv": "5e93b481e259eeb8f0891e9089e721c382f90cf1457b3ce23b56eb4de91e39c5",
    "bfile": "8f1e8b142f7d11e4ea848ec063353bc689ce573cf7b0eb27b73bf15c4b4e3106",
}
TRIANGLE_6 = {
    "plain": "e6d3839e4c479580c59ab3be77606ecbf6a684934f0c92a4eb4883f1ae0aa1ad",
    "csv": "7207e081f5ac21f5d4f07421eb866e41a99226fe3941e3805543a66b6d0337bc",
    "bfile": "9a0fbb63e72366e789fc154e53a40a2f4f3e624d1a1c77111bf0a8fdb0ccf2cf",
}
INVOCATIONS = (
    (("fib", "10"), 0, "4c82a221b575ce7fe118b2e8cdf0764bf4ef570a3017e80b6d3438af9095f376"),
    (("fib", "47300"), 0, "8fdcd155290472f0f7a29047bceb8eb19231497804ab1d8431f0128ddabd284d"),
    (("det", "F", "8"), 0, "ea243e5457028e97f9bc93b37a72f8e80ea61ae081911bb037765590ee6aa435"),
    (("det", "G", "8"), 0, "1a252402972f6057fa53cc172b52b9ffca698e18311facd0f3b06ecaaef79e17"),
    (("charpoly", "6"), 0, "42767956d2f7a1c16127cf7fae2ec43a4829e022418aeb99aaa29693330a6660"),
    (("convolved", "3", "5"), 0,
     "9e62e6489fcc4bc58be7cb23e74d25cbfcc3732c1f70e8c37f12a756d1db9381"),
    *((("convolved", "3", "4", "--table", "--format", fmt), 0, TABLE_3_4[fmt])
      for fmt in FORMATS),
    *((("triangle", "6", "--route", route, "--format", fmt), 0, TRIANGLE_6[fmt])
      for route in ROUTES for fmt in FORMATS),
    (("verify", "--nmax", "5"), 0,
     "b55ede3652649bf0cc30e1b1895e827f8600da219f5fdc6c5df8ef6cde0d9c7a"),
    (("verify", "--suite", "compositions", "--variant", "wrong-index", "--nmax", "3"), 1,
     "eefc948e79de22f721bc32ea040a9bfd538d0638ac31d3869810c1490cd83af6"),
    (("verify", "--variant", "wrong-index"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
)
PROTOCOL = "exported-type protocol"
ORACLE = "general oracle"
ROUND_TRIP = "round-trip API read by bench/run.py and CI"
SUBPROCESS = "subprocess-only"
# module.function -> why the invocations leave some of its statements
# unreached
UNREACHED = {
    "cli.main": SUBPROCESS,
    "formats._line_error": ROUND_TRIP,
    "formats._fields_error": ROUND_TRIP,
    "formats.parse_triangle_csv": ROUND_TRIP,
    "formats.parse_grid_csv": ROUND_TRIP,
    "formats.parse_bfile": ROUND_TRIP,
    "hessenberg.HessenbergMatrix.__eq__": PROTOCOL,
    "hessenberg.HessenbergMatrix.__hash__": PROTOCOL,
    "hessenberg.HessenbergMatrix.__repr__": PROTOCOL,
    "hessenberg.det_oracle": ORACLE,
    "hessenberg.adjugate_oracle": ORACLE,
    "poly.IntPolynomial.coefficient": PROTOCOL,
    "poly.IntPolynomial.__eq__": PROTOCOL,
    "poly.IntPolynomial.__hash__": PROTOCOL,
    "poly.IntPolynomial.__add__": PROTOCOL,
    "poly.IntPolynomial.__sub__": PROTOCOL,
    "poly.IntPolynomial.__mul__": PROTOCOL,
    "poly.IntPolynomial.__str__": PROTOCOL,
    "poly.IntPolynomial.__repr__": PROTOCOL,
}


def _function_statements(node, scope, in_function=False):
    # (module.function, statement) for each statement in a function body;
    # module and class bodies run at import
    for child in ast.iter_child_nodes(node):
        if in_function and isinstance(child, ast.stmt):
            yield scope, child
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _function_statements(child, f"{scope}.{child.name}",
                                            isinstance(child, ast.FunctionDef))
        else:
            yield from _function_statements(child, scope, in_function)


def _reached_lines(capsys):
    package = str(Path(fibcomb.__file__).parent)
    reached = set()

    def trace(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return trace if os.path.dirname(frame.f_code.co_filename) == package else None

    # the parser and the (1-x)^r rows are cached, so an earlier test may have
    # built them already
    build_parser.cache_clear()
    _one_minus_x_power.cache_clear()
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        codes = [main(list(argv)) for argv, _, _ in INVOCATIONS]
    finally:
        sys.settrace(previous)
    capsys.readouterr()
    assert codes == [code for _, code, _ in INVOCATIONS]
    return reached


def test_every_invocation_prints_the_same_bytes(capsys):
    # verify's durations (format_report's ", 0.01s)") are masked
    for argv, code, digest in INVOCATIONS:
        assert main(list(argv)) == code, argv
        out = re.sub(r", \d+\.\d\ds\)", ", s)", capsys.readouterr().out)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_every_statement_is_reached_or_allowed(capsys):
    reached = _reached_lines(capsys)
    unreached = {}
    for path in sorted(Path(fibcomb.__file__).parent.glob("*.py")):
        for function, node in _function_statements(ast.parse(path.read_text()), path.stem):
            # a raise is a guard, and a docstring compiles to no code
            exempt = isinstance(node, ast.Raise) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
            if not exempt and (str(path), node.lineno) not in reached:
                unreached.setdefault(function, []).append(node.lineno)
    assert set(UNREACHED.values()) <= {PROTOCOL, ORACLE, ROUND_TRIP, SUBPROCESS}
    assert {f: lines for f, lines in unreached.items() if f not in UNREACHED} == {}
    # an entry whose function is now reached throughout is stale
    assert sorted(set(UNREACHED) - set(unreached)) == []
