"""Each rule has one home: the entry skip in ``errors.read_entries``, the
mode rule in ``evalhub.classifiers_of``, the value rules in
``values.Value``, the softmax in ``bayes.score_columns``, the grid count
in ``evalhub._grid_reports``, and each decision value's range in its
config, which ``evalhub.SweepGrids`` asks instead of comparing."""

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


def callers(name: str) -> list[str]:
    """The enclosing function of every call of ``name`` in the package, sorted."""
    return sorted(f for source in SOURCES for f, node in calls(source) if callee(node) == name)


def test_evaluate_and_sweep_count_through_one_grid_reports_call_each():
    assert callers("_grid_reports") == ["evaluate", "sweep"]
    assert callers("_pairs") == ["_grid_reports", "_grid_reports"]
    (evalhub,) = [s for s in SOURCES if s.name == "evalhub.py"]
    in_pairs = {callee(node) for f, node in calls(evalhub) if f == "_pairs"}
    assert in_pairs and not in_pairs & {"sorted", "set"}  # SweepGrids sorts its grids


def reads_mode(node: ast.AST) -> bool:
    """Whether ``node`` is the name ``mode``, an attribute ``.mode`` or a ``["mode"]`` lookup."""
    if isinstance(node, ast.Subscript):
        node = node.slice
        return isinstance(node, ast.Constant) and node.value == "mode"
    return (isinstance(node, ast.Name) and node.id == "mode") or (
        isinstance(node, ast.Attribute) and node.attr == "mode"
    )


def is_modes_membership(node: ast.Compare) -> bool:
    """Whether ``node`` is an ``in`` or ``not in`` test against ``MODES``."""
    return any(
        isinstance(op, (ast.In, ast.NotIn))
        and (
            (isinstance(right, ast.Name) and right.id == "MODES")
            or (isinstance(right, ast.Attribute) and right.attr == "MODES")
        )
        for op, right in zip(node.ops, node.comparators)
    )


def mode_comparisons(root: ast.AST) -> set[ast.Compare]:
    """Every comparison under ``root`` that reads a mode or tests membership of ``MODES``."""
    return {
        node
        for node in ast.walk(root)
        if isinstance(node, ast.Compare)
        and (any(map(reads_mode, ast.walk(node))) or is_modes_membership(node))
    }


def test_mode_is_compared_only_in_evalhub_classifiers_of():
    trees = {s.name: ast.parse(s.read_text(encoding="utf-8"), str(s)) for s in SOURCES}
    (home,) = [
        f
        for f in ast.walk(trees["evalhub.py"])
        if isinstance(f, ast.FunctionDef) and f.name == "classifiers_of"
    ]
    assert mode_comparisons(home)
    found = {name: mode_comparisons(tree) for name, tree in trees.items()}
    assert {name: nodes for name, nodes in found.items() if nodes} == {
        "evalhub.py": mode_comparisons(home)
    }


def test_sweep_grids_compares_no_value_itself():
    # Each grid value is checked by the config that owns it, not by a second copy of its range.
    (evalhub,) = [s for s in SOURCES if s.name == "evalhub.py"]
    tree = ast.parse(evalhub.read_text(encoding="utf-8"), str(evalhub))
    (cls,) = [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "SweepGrids"]
    (init,) = [f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
    assert not [node for node in ast.walk(init) if isinstance(node, ast.Compare)]


def assigned_names(cls: ast.ClassDef) -> set[str]:
    """The names a class body assigns, chained and annotated assignments included."""
    names = set()
    for node in cls.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_value_types_stand_on_the_one_frozen_base():
    trees = {s.name: ast.parse(s.read_text(encoding="utf-8"), str(s)) for s in SOURCES}
    classes = {
        name: [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
        for name, tree in trees.items()
    }
    assert [c.name for c in classes["values.py"]] == ["Value"]
    writers = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    }
    assert writers == {"values.py"}
    slotted = {
        (name, c.name): [ast.unparse(base) for base in c.bases]
        for name, found in classes.items()
        if name != "values.py"
        for c in found
        if {"__slots__", "_fields"} <= assigned_names(c)
    }
    assert len(slotted) == 7  # the configs, SweepGrids, CategoryModel, CitationGraph, Corpus
    assert {key: ["Value"] for key in slotted} == slotted


def exp_reads(root: ast.AST) -> list[ast.AST]:
    """Every name, attribute or import of ``exp`` under ``root``."""
    return [
        node
        for node in ast.walk(root)
        if (isinstance(node, ast.Name) and node.id == "exp")
        or (isinstance(node, ast.Attribute) and node.attr == "exp")
        or (isinstance(node, ast.alias) and node.name == "exp")
    ]


def test_the_one_softmax_is_bayes_score_columns():
    trees = {s.name: ast.parse(s.read_text(encoding="utf-8"), str(s)) for s in SOURCES}
    (home,) = [
        f
        for f in ast.walk(trees["bayes.py"])
        if isinstance(f, ast.FunctionDef) and f.name == "score_columns"
    ]
    assert exp_reads(home)
    found = {name: exp_reads(tree) for name, tree in trees.items()}
    assert {name: nodes for name, nodes in found.items() if nodes} == {"bayes.py": exp_reads(home)}
