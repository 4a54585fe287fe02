"""Every name a ``bibclass`` module imports is used in that module.

A stand-in for a linter's unused-import check, on the standard library's
``ast``: a name counts as used where the module reads it, and the package's
``__init__`` re-exports what it imports, so there each name must be listed
in ``__all__``.  ``from __future__`` imports are compiler directives and
are skipped.
"""

import ast
from pathlib import Path

import pytest

import bibclass

SOURCES = sorted(Path(bibclass.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    """The names the module's imports bind, ``__future__`` imports aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, attribute chains by their first name."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def exported_names(tree: ast.Module) -> set[str]:
    """The strings of the module's ``__all__`` list."""
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [ast.unparse(t) for t in node.targets] == ["__all__"]
    ]
    return set(ast.literal_eval(value))


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "textpipe.py"}


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(source):
    tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
    used = exported_names(tree) if source.name == "__init__.py" else read_names(tree)
    assert sorted(imported_names(tree) - used) == []
