"""Count the code lines and the raw lines of each module of src/nlswkb and
their totals, and hold every module to MAX_MODULE_LINES raw lines.

    python3 tests/code_lines.py

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings do not count.  `tokenize` finds the
lines that hold tokens other than comments and line breaks; `ast` finds
the docstrings, the string statements that open a module, class or
function body.  A line that holds code and a trailing comment counts.
A raw line is any line of the file.  Prints one
`path: <code> code, <raw> raw` line per module and a `total` line, and
exits 1, naming each one, when a module has more than MAX_MODULE_LINES
raw lines.  The file name keeps pytest from collecting it.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

MAX_MODULE_LINES = 450   # raw lines a module of src/nlswkb may hold
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
    total = raw_total = 0
    over = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        count, raw = code_lines(text), len(text.splitlines())
        total += count
        raw_total += raw
        print(f"{path.relative_to(ROOT)}: {count} code, {raw} raw")
        if raw > MAX_MODULE_LINES:
            over.append(f"{path.relative_to(ROOT)} ({raw})")
    print(f"total: {total} code, {raw_total} raw")
    if over:
        print(f"over {MAX_MODULE_LINES} raw lines: {', '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
