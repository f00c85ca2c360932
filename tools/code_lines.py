"""Physical and code lines of the package's modules.

    python3 tools/code_lines.py [FILE ...]

With no FILE it counts ``src/hmap/*.py``.  It prints one line per file,
``physical code path``, then the totals.  A code line holds a token other
than a comment, a line break, an indent or a dedent, and is not part of
a module, class or function docstring; so blank lines, comment lines and
docstrings do not count, and a statement over three lines counts three.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(physical lines, code lines)`` of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted((ROOT / "src" / "hmap").glob("*.py"))
    total = [0, 0]
    for path in paths:
        lines, code = count(path.read_text(encoding="utf-8"))
        total[0] += lines
        total[1] += code
        shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        print(f"{lines:6d} {code:6d} {shown}")
    print(f"{total[0]:6d} {total[1]:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
