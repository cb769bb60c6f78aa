"""Count the code lines of each module under ``src/``.

A line counts unless it is docstring, comment or blank: a line counts when
it holds a token of code (a multi-line string that is not a docstring
counts on every line it spans), and the lines of a module's, class's or
function's docstring never count.  Stdlib only.

    python tools/code_lines.py [ROOT]

prints one line per module, ``<code lines>  <all lines>  <path>``, and the
totals; ROOT defaults to the ``src/`` next to this script's directory.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# tokens that are not code by themselves
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> tuple[int, int]:
    """(code lines, all lines) of one Python file."""
    source = path.read_text(encoding="utf-8")
    code = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _LAYOUT:
                code.update(range(token.start[0], token.end[0] + 1))
    code -= _docstring_lines(ast.parse(source, str(path)))
    return len(code), len(source.splitlines())


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    total_code = total_all = 0
    for path in sorted(root.rglob("*.py")):
        code, everything = code_lines(path)
        total_code += code
        total_all += everything
        print(f"{code:6d} {everything:6d}  {path.relative_to(root)}")
    print(f"{total_code:6d} {total_all:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
