"""Each rule has one home: the entry skip in ``errors.read_entries``, and the
mode check in ``evalhub._scored``."""

import ast
from pathlib import Path

import bibclass

SOURCES = sorted(Path(bibclass.__file__).parent.glob("*.py"))


def calls(source: Path):
    """``(enclosing function name, call node)`` for every call in ``source``."""
    tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    yield func.name, node


def callee(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "corpus.py", "errors.py", "textpipe.py"}


def test_comment_skip_is_written_only_in_errors():
    where = {
        source.name
        for source in SOURCES
        for _, node in calls(source)
        if callee(node) == "startswith"
        and any(isinstance(a, ast.Constant) and a.value == "#" for a in node.args)
    }
    assert where == {"errors.py"}


def test_read_lines_is_called_only_by_the_entry_records_and_model_readers():
    callers = {
        name for source in SOURCES for name, node in calls(source) if callee(node) == "read_lines"
    }
    assert callers == {"read_entries", "load_records", "load_model"}


def test_evalhub_compares_mode_only_in_its_check_and_score_step():
    source = Path(bibclass.__file__).parent / "evalhub.py"
    tree = ast.parse(source.read_text(encoding="utf-8"), str(source))

    def mode_comparisons(root):
        return {
            node
            for node in ast.walk(root)
            if isinstance(node, ast.Compare)
            and any(isinstance(n, ast.Name) and n.id == "mode" for n in ast.walk(node))
        }

    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    (scored,) = [f for f in functions if f.name == "_scored"]
    assert mode_comparisons(scored)
    assert mode_comparisons(tree) == mode_comparisons(scored)
