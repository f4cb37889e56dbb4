"""List the `raise` statements of src/nlswkb that the test suite never runs.

    PYTHONPATH=src python3 tests/unreached_raises.py [PYTEST ARGS ...]

Runs pytest in this process (by default on tests/, quietly) under a stdlib
`sys.settrace` line tracer that records the lines executed in src/nlswkb,
then prints one `path:line: source` entry for each `raise` statement whose
first line never ran, and their count.  Code run in subprocesses (the CLI
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


def raise_lines(path: Path) -> list[int]:
    """First line of every raise statement in the module at `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Raise))


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
    code, executed = run_traced(args)
    missed = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno in raise_lines(path):
            if (str(path), lineno) not in executed:
                missed.append(f"{path.relative_to(ROOT)}:{lineno}: "
                              f"{lines[lineno - 1].strip()}")
    print("\n".join(missed))
    print(f"{len(missed)} raise statement(s) never ran (pytest exit {code})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
