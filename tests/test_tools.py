"""tools/code_lines.py: what counts as a code line, per module and in
total."""

import importlib.util
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

spec = importlib.util.spec_from_file_location("_code_lines", CODE_LINES)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# the counted lines are marked; docstrings, comments and blank lines are not
SOURCE = '''"""Module docstring,
over two lines."""

import os  # counted: a trailing comment does not hide code
# a comment line


class K:  # counted
    """Class docstring."""

    def f(self):  # counted
        """Function
        docstring."""
        return os.path.join(  # counted: a call over three lines
            "a",
            "b")


async def g():  # counted
    \'\'\'Async docstring.\'\'\'
    text = """not a
docstring"""
    return text  # counted
'''


def test_counts_code_lines_only():
    # import, class, def, the three lines of the call, async def, the two
    # lines of the string that is no docstring, return
    assert code_lines.code_lines(SOURCE) == 10


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text('"""Doc."""\n\nx = 1\n\n\ndef f():\n    return x\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "    3 a\n   10 b\n   13 total\n"
