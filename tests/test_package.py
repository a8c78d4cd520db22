import ast
import os
import subprocess
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

import fibcomb

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
