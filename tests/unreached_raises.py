"""List the `raise` statements and the functions of src/nlswkb that the
test suite never runs.

    PYTHONPATH=src python3 tests/unreached_raises.py [PYTEST ARGS ...]

Runs pytest in this process (by default on tests/, quietly) under a stdlib
`sys.settrace` line tracer that records the lines executed in src/nlswkb,
then prints one `path:line: source` entry for each `raise` statement whose
first line never ran, and one `path:line: def name` entry for each function
or method (nested ones included) whose body never ran, each list with its
count.  It exits with pytest's exit code when that is not 0, else with 1
when it lists any entry.  Passing `tests/test_golden.py` as the pytest
arguments lists the code that no shipped config reaches.  Code run in subprocesses (the CLI
start-up probe) is not traced.  The file name keeps pytest from collecting
it.  Expect the suite to take a few times longer than untraced.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nlswkb"
# import the package by its absolute path, so that its code objects carry
# file names under SRC whatever PYTHONPATH says
sys.path.insert(0, str(ROOT / "src"))


def raise_lines(text: str) -> list[int]:
    """First line of every raise statement in the module source `text`."""
    tree = ast.parse(text)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Raise))


def compiles_to_code(stmt: ast.stmt) -> bool:
    """False for a docstring, a global and a nonlocal statement, which
    leave no line for the tracer to record."""
    if isinstance(stmt, (ast.Global, ast.Nonlocal)):
        return False
    return not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str))


def function_bodies(text: str) -> list[tuple[int, str, range]]:
    """(def line, name, lines of the first body statement) of every
    function and method in the module source `text`.  The body ran when
    any line of its first statement that compiles to code did; a decorator
    runs before its def line."""
    tree = ast.parse(text)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = next((stmt for stmt in node.body if compiles_to_code(stmt)),
                         node.body[-1])
            start = min([first.lineno] + [d.lineno for d in
                                          getattr(first, "decorator_list", [])])
            out.append((node.lineno, node.name, range(start, first.end_lineno + 1)))
    return sorted(out)


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest with `pytest_args`; return its exit code and the
    (file, line) pairs executed under src/nlswkb."""
    prefix = str(SRC)
    executed: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        # line-trace only the package's own frames
        if frame.f_code.co_filename.startswith(prefix):
            executed.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, executed


def main(argv: list[str]) -> int:
    args = argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"]
    # read the sources before pytest imports them, so that a file edited
    # while the suite runs is still reported against the lines it ran
    texts = {path: path.read_text(encoding="utf-8")
             for path in sorted(SRC.glob("*.py"))}
    code, executed = run_traced(args)
    missed, idle = [], []
    for path, text in texts.items():
        where = path.relative_to(ROOT)
        lines = text.splitlines()
        for lineno in raise_lines(text):
            if (str(path), lineno) not in executed:
                missed.append(f"{where}:{lineno}: {lines[lineno - 1].strip()}")
        for lineno, name, body in function_bodies(text):
            if not any((str(path), line) in executed for line in body):
                idle.append(f"{where}:{lineno}: def {name}")
    print("\n".join(missed))
    print(f"{len(missed)} raise statement(s) never ran (pytest exit {code})")
    print("\n".join(idle))
    print(f"{len(idle)} function(s) whose body never ran")
    return int(code) or int(bool(missed or idle))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
