"""Every name a ``src/repro`` module imports is used by that module.

An import nobody reads costs start-up time, hides the module's real
dependencies and survives every refactor that deletes its last user.
This scan parses each non-``__init__`` module (package ``__init__``
files import to re-export) and reports any name an ``import`` binds
that the module never reads as a ``Name``.  A name inside a string
annotation (``-> "OrderedDict"``) counts as read; ``from __future__``
imports bind no name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported_names(tree):
    """``(name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree):
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Constant) and \
                    isinstance(node.value, str):
                names |= _read_names(ast.parse(node.value, mode="eval"))
    return names


def dead_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = _read_names(tree)
    return [f"{path.relative_to(SRC.parent)}:{line}: {name}"
            for name, line in _imported_names(tree) if name not in read]


def test_every_import_is_used():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) > 50  # the scan found the package
    dead = [entry for path in modules for entry in dead_imports(path)]
    assert dead == []
