"""The report of ``tools/unrun_lines.py``, on a synthetic module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unrun_lines.py"

SOURCE = '''"""Module docstring: not in a function."""

X = 1


def f(a):
    """A docstring runs no code."""
    if (a >
            0):
        return 1
    try:
        b = a
    except KeyError:
        b = 0
    return b


class C:
    def g(self):
        global X
        return [X,
                X]
'''


def _tool():
    spec = importlib.util.spec_from_file_location("unrun_lines", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_reports_each_statement_no_hit_shows_ran():
    # the line events of f(0): the if header, the try, its body and the return
    assert _tool().unrun(SOURCE, {8, 11, 12, 15}) == [
        (10, "return 1"), (13, "except KeyError:"), (14, "b = 0"), (21, "return [X,")]


def test_a_hit_on_any_line_of_a_header_or_statement_counts():
    # the second line of the if's condition and of g's return
    assert _tool().unrun(SOURCE, {9, 10, 11, 12, 13, 14, 15, 22}) == []


def test_nothing_outside_a_function_body_is_reported():
    every_body_line = _tool().unrun(SOURCE, set())
    assert [n for n, _ in every_body_line] == [8, 10, 11, 12, 13, 14, 15, 21]
