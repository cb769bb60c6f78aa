"""Every module of the package uses every name it imports, every private
name a module defines is read, only ``geometry`` knows the lattice's
boundaries, and no module asserts.

A stdlib stand-in for a linter's unused-import and unused-definition
rules: a reader that is deleted must not leave its import behind, nor a
private helper, class or constant that only it read.  ``__init__.py``
imports to re-export and is left out of the import rule.  Which sites couple, across an open or a
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


def private_definitions(source: str) -> dict[str, int]:
    """Module-level private names ``source`` defines, ``_name`` but not
    ``__name__``: functions, classes and assigned constants, with their
    lines."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    return defined


def name_reads(source: str) -> set[str]:
    """Names ``source`` reads, bare or as an attribute of some object."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_private_name_a_module_defines_is_read():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    read = set().union(*map(name_reads, sources.values()))
    unread = {name: [f"{d} (line {line})" for d, line in private_definitions(source).items()
                     if d not in read]
              for name, source in sources.items()}
    assert {name: names for name, names in unread.items() if names} == {}


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
