"""The library imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

import pytest

import bibclass

SOURCES = sorted(Path(bibclass.__file__).parent.glob("*.py"))


def imported_top_level_modules(source: Path) -> set[str]:
    """Top-level names of every absolute import in ``source``, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), str(source))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"bayes.py", "cli.py", "corpus.py", "textpipe.py"}


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_bibclass(source):
    outside = {
        name
        for name in imported_top_level_modules(source)
        if name != "bibclass" and name not in sys.stdlib_module_names
    }
    assert outside == set()
