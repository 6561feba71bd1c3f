"""scripts/count_lines.py on a small synthetic module."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / \
    "count_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_lines", _PATH)
count_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_lines)

MODULE = '''"""Module docstring,
two lines."""

# a comment
import os  # code with a comment


class A:
    """Class docstring."""

    x = 1

    def f(self):
        """Function
        docstring."""
        s = """not a docstring:
        an assigned string"""
        return s


async def g():
    "one-line docstring"
    "a second string is code"
'''


def test_count_skips_blank_comment_and_docstring_lines():
    # code: import, class, x, def f, s = (2 lines), return, async def, and
    # the second string of g
    assert count_lines.count(MODULE) == (23, 9)


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(MODULE)
    (tmp_path / "a.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert count_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "2", "1"],
                    ["b.py", "23", "9"], ["total", "25", "10"]]
