"""Each module owns its private names: no module of the package imports
another module's underscore name or reads an underscore attribute that
only another module defines."""

import ast
from pathlib import Path

import prmlearn

PACKAGE = Path(prmlearn.__file__).resolve().parent


def private(name: str) -> bool:
    """A single-underscore name: `_x`, not a dunder such as `__class__`."""
    return name.startswith("_") and not name.startswith("__")


def owned_names(tree) -> set:
    """The underscore names a module defines or assigns: its functions,
    classes, names, attributes (`self._x = ...`) and annotated fields."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return {name for name in names if private(name)}


def crossings(path: Path) -> list:
    """"file:line: name" for each relative import of an underscore name and
    each read `x._name`, x not self or cls, of a name the file does not own."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owned = owned_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += [(node.lineno, alias.name) for alias in node.names if private(alias.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and private(node.attr)
              and node.attr not in owned
              and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            found.append((node.lineno, ast.unparse(node)))
    return ["%s:%d: %s" % (path.name, line, name) for line, name in sorted(found)]


def test_finds_both_kinds_of_crossing(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("\n".join([
        "from .table import _differ, diff",
        "from . import _private",
        "import math",
        "class Own:",
        "    _field: int = 0",
        "    def __init__(self):",
        "        self._mine = self._theirs",
        "def _helper(table, m, cls):",
        "    return table._counts, m._mine, m._field, m._helper, cls._other, m.__class__, math._x",
    ]))
    assert crossings(source) == [
        "mod.py:1: _differ",
        "mod.py:2: _private",
        "mod.py:9: math._x",
        "mod.py:9: table._counts",
    ]


def test_no_module_reads_another_modules_private_names():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in crossings(path)]
    assert found == []
