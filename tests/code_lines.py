"""Count the code lines of each module of src/nlswkb and their total.

    python3 tests/code_lines.py

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings do not count.  `tokenize` finds the
lines that hold tokens other than comments and line breaks; `ast` finds
the docstrings, the string statements that open a module, class or
function body.  A line that holds code and a trailing comment counts.
Prints one `path: count` line per module and a `total` line.  The file
name keeps pytest from collecting it.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nlswkb"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, clean=False):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The code lines of the module source `text`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.relative_to(ROOT)}: {count}")
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
