import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

MODULE = '''"""Module docstring,
on two lines."""
import os   # a comment after code counts

# a comment-only line does not


class Thing:
    """Class docstring."""

    label = """a string literal that is
    not a docstring counts on every line"""

    def method(self):
        """Method docstring,

        three lines."""
        "a second string statement is no docstring"
        return os.sep


async def waiter():
    \'\'\'Async docstring.\'\'\'
    return (1,
            2)
'''


def test_counts_code_lines_and_skips_blank_comment_and_docstring_lines():
    # import, class, label (2 lines), def, string statement, return,
    # async def, return (2 lines)
    assert code_lines.code_lines(MODULE) == 10


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    (tmp_path / "c.py").write_text('"""Only a docstring."""\n')
    assert code_lines.main([str(tmp_path / "pkg"), str(tmp_path / "c.py")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{10:7d} {tmp_path / 'pkg' / 'a.py'}",
        f"{1:7d} {tmp_path / 'pkg' / 'b.py'}",
        f"{0:7d} {tmp_path / 'c.py'}",
        f"{11:7d} total",
    ]
