"""Every module of the package uses every name it imports, only
``geometry`` knows the lattice's boundaries, and no module asserts.

A stdlib stand-in for a linter's unused-import rule: a reader that is
deleted must not leave its import behind.  ``__init__.py`` imports to
re-export and is left out.  Which sites couple, across an open or a
periodic axis, is decided in ``geometry`` alone.  Errors are raised, never
asserted: ``python -O`` strips an ``assert``, and with it the check.
"""

import ast
from pathlib import Path

import wgstate

PACKAGE = Path(wgstate.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.rglob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def attribute_reads(source: str, attribute: str) -> list[int]:
    """Lines on which ``source`` reads ``attribute`` of some object."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == attribute
            and isinstance(node.ctx, ast.Load)]


def test_only_geometry_reads_the_lattice_boundary():
    reads = {path.name: attribute_reads(path.read_text(encoding="utf-8"), "boundary")
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "geometry.py"}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def assert_lines(source: str) -> list[int]:
    """Lines of the ``assert`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_no_module_asserts():
    found = {path.name: assert_lines(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
