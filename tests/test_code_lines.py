"""The line counter of ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment


# a comment line
def f(a,
      b):
    """One docstring line."""
    text = """a string
that is not a docstring"""
    return os.path.join(a,
                        b, text)


class C:
    """Class docstring."""

    x = 1
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_counts_physical_and_code_lines_of_a_fixture():
    # code: the import, the two lines of the def, the two of the string,
    # the two of the return, the class line and ``x = 1``
    assert _tool().count(SOURCE) == (20, 9)


def test_main_prints_each_file_and_the_totals(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(SOURCE, encoding="utf-8")
    b.write_text("x = 1\n\n", encoding="utf-8")
    assert _tool().main([str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"    20      9 {a}", f"     2      1 {b}", "    22     10 total"]
