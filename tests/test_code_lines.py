"""tools/code_lines.py: the code-line count of a hand-written module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULE = '''"""Module docstring,
on two lines."""

import math  # a comment after code counts
from functools import cache

# a comment line does not


@cache
def f(x):
    """Function docstring."""
    return math.sqrt(x)


class C:
    """Class docstring,

    on three lines."""

    def g(self):
        """Method docstring."""
        text = """a string that is no docstring
spans two code lines"""
        return text


VALUE = (1,
         2)
'''


def test_code_lines_of_a_small_module():
    total, defs = code_lines.code_lines(MODULE)
    assert defs == {"f": 3, "C": 5}
    # two imports, f's three lines, C's five and VALUE's two
    assert total == 12


def test_main_reports_modules_definitions_and_total(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{tmp_path / 'mod.py'}  12", "    f  3", "    C  5", "total  12"]
