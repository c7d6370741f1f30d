"""tools/code_lines.py: what counts as a code line, per module and in
total; tools/cli_digests.py: one digest line per CLI command."""

import importlib.util
import re
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
cli_digests = _load("cli_digests")

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


def test_digest_lines_name_their_command_and_repeat():
    # a passing run and a refusal before any computation (exit 2)
    for command in ("verify --alpha 0.5 --beta 0.5 --N 6", "verify --N 0"):
        line = cli_digests.digest_line(command)
        assert re.fullmatch(r"[0-9a-f]{64}  " + re.escape(command), line), line
        assert cli_digests.digest_line(command) == line
    assert (cli_digests.digest_line("verify --N 0")
            != cli_digests.digest_line("verify --N 1"))


def test_digest_list_holds_the_golden_pins():
    from test_cli import CONFIG_ERRORS, GOLDEN_STDOUT

    assert set(GOLDEN_STDOUT) <= set(cli_digests.COMMANDS)
    assert set(CONFIG_ERRORS) <= set(cli_digests.COMMANDS)
    assert (len(cli_digests.COMMANDS) == len(set(cli_digests.COMMANDS))
            == 7 * 7 * 7 + 9 + 4 * 3 * 4 + 3 + 44)
