"""The library imports nothing outside the standard library and itself, and the CLI little."""

import ast
import subprocess
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


def test_cli_import_loads_neither_dataclasses_nor_logging():
    # A CLI run is a short process, so what importing the CLI loads is paid
    # on every run: dataclasses brings inspect and ast, and logging is only
    # imported by the first warning.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bibclass.cli; "
        "print(' '.join(sorted(sys.modules)))"
    )
    src = str(Path(bibclass.__file__).resolve().parent.parent)
    argv = [sys.executable, "-S", "-I", "-B", "-c", code, src]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "bibclass.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "logging", "inspect", "ast"})
