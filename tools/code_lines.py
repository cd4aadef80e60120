"""Count the code lines of Python modules.

A code line is a line that is not blank, not only a comment, and not part
of a docstring.  Docstring ranges come from ``ast`` (the first statement of
a module, class or function body, when it is a string literal); comments
and blank lines from ``tokenize``.

Usage:
    python tools/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for ``*.py``; the
default is ``src/ringsolve``.  Prints each module's count and the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# tokens that carry no code of their own
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers every docstring of the tree spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one module."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source, filename=str(path)))
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def modules(paths: list[str]) -> list[Path]:
    found: list[Path] = []
    for name in paths:
        path = Path(name)
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> int:
    total = 0
    for path in modules(argv or ["src/ringsolve"]):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
