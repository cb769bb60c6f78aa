"""``tools/code_lines.py`` counts the lines that hold code: not docstring,
comment or blank."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


class Thing:
    """Class docstring."""

    # a comment line
    size = 3


def f(x):
    """Function
    docstring."""
    text = """a string
that is no docstring"""

    return x + len(text) + len(os.sep)
'''


def test_docstrings_comments_and_blank_lines_do_not_count(tmp_path, capsys):
    path = tmp_path / "pkg" / "module.py"
    path.parent.mkdir()
    path.write_text(SOURCE, encoding="utf-8")
    # import, class, size, def, the two lines of the string, return
    assert code_lines.code_lines(path) == (7, 20)
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     7     20  {Path('pkg', 'module.py')}",
        "     7     20  total",
    ]
