"""Statements of the package's functions that the test suite never runs.

    python3 tools/unrun_lines.py

It runs the tier-1 suite (``tests/``) in this process under
``sys.settrace``, without the two exhaustive gates
(``test_04_criterion_equivalence_exhaustive`` and
``test_05_ring_break_exhaustive``), which take most of its time, and
prints ``path:line: source`` for every statement in the body of a
function of ``src/hmap/*.py`` that never ran, then their number.  A
compound statement (and an ``except`` clause) counts as run when a line
of its header ran, a simple one when any of its lines ran; docstrings,
``global`` and ``nonlocal`` run no code and are left out.  What tests
run in a child process is not seen.  Every line of the package is
traced, so the run takes minutes.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GATES = ("test_04_criterion_equivalence_exhaustive", "test_05_ring_break_exhaustive")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _body_statements(tree: ast.AST) -> list[ast.AST]:
    """Every statement and ``except`` clause in the body of a function
    of ``tree``; a nested function's body counts as its own."""
    found: list[ast.AST] = []
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCTIONS):
            continue
        body = fn.body
        if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        todo = list(body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            found.append(node)
            if not isinstance(node, FUNCTIONS):
                for name in ("body", "orelse", "finalbody", "handlers"):
                    todo.extend(getattr(node, name, ()))
    return found


def _lines(node: ast.AST) -> range:
    """The lines whose line event means ``node`` ran: the header of a
    compound statement, all lines of a simple one."""
    body = getattr(node, "body", None)
    if not isinstance(body, list):
        return range(node.lineno, node.end_lineno + 1)
    return range(node.lineno, max(body[0].lineno, node.lineno + 1))


def unrun(source: str, hits: set[int]) -> list[tuple[int, str]]:
    """``(line, text)`` of each function-body statement of ``source``
    that no line in ``hits`` shows ran, in line order; ``text`` is the
    statement's first line, stripped."""
    text = source.splitlines()
    missed = {node.lineno: text[node.lineno - 1].strip()
              for node in _body_statements(ast.parse(source))
              if hits.isdisjoint(_lines(node))}
    return sorted(missed.items())


def main() -> int:
    import pytest  # the suite's runner; everything else is the standard library

    sys.path.insert(0, str(ROOT / "src"))
    paths = sorted((ROOT / "src" / "hmap").glob("*.py"))
    hits: dict[str, set[int]] = {str(p): set() for p in paths}

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in hits else None

    sys.settrace(call)
    try:
        status = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                              "-k", " and ".join(f"not {g}" for g in GATES)])
    finally:
        sys.settrace(None)
    total = 0
    for path in paths:
        for n, text in unrun(path.read_text(encoding="utf-8"), hits[str(path)]):
            print(f"{path.relative_to(ROOT)}:{n}: {text}")
            total += 1
    print(f"{total} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
