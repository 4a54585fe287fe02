"""The README's CLI and Library examples run as written on the benchmark corpus,
its decision-parameter table gives the flags' defaults, and every range that
table or a flag's help states is the range its flag accepts."""

import math
import re
import shlex
import shutil
from itertools import product
from pathlib import Path

import pytest

import synth
from bibclass import cli
from bibclass.errors import UsageError

README = Path(__file__).resolve().parent.parent / "README.md"

# The benchmark's files under the names the examples read.
EXAMPLE_NAMES = {
    "train": "train.jsonl",
    "test": "test.jsonl",
    "citations": "edges.tsv",
    "memberships": "members.tsv",
}


def _example_dir(bench, tmp_path, monkeypatch):
    for key, name in EXAMPLE_NAMES.items():
        shutil.copy(bench["paths"][key], tmp_path / name)
    monkeypatch.chdir(tmp_path)


def test_cli_example_runs_and_writes_its_outputs(bench, tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.M | re.S).group(1)
    commands = [
        shlex.split(line)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("bibclass ")
    ]
    assert [argv[1] for argv in commands] == ["build-model", "classify", "evaluate", "sweep"]
    _example_dir(bench, tmp_path, monkeypatch)
    monkeypatch.delenv("BIBCLASS_CONFIG", raising=False)
    for argv in commands:
        assert cli.run(argv[1:]) == 0, argv
    records = (tmp_path / "test.jsonl").read_text(encoding="utf-8").splitlines()
    rows = (tmp_path / "assignments.tsv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == len(records)
    header, *points = (tmp_path / "grid.csv").read_text(encoding="utf-8").splitlines()
    assert header == "mode,db,N_t,S_t,N_c,R_c,tp,fp,fn,precision,recall"
    assert len(points) == 9


def test_library_example_runs_and_writes_its_grid(bench, tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    _example_dir(bench, tmp_path, monkeypatch)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    # evaluate's loop prints one line per database.
    assert len(capsys.readouterr().out.splitlines()) == len(synth.DATABASES)
    header, *rows = (tmp_path / "grid.csv").read_text(encoding="utf-8").splitlines()
    assert header == "mode,db,N_t,S_t,N_c,R_c,tp,fp,fn,precision,recall"
    points = [tuple(row.split(",")[:6]) for row in rows]
    assert points == [
        ("combined", "astronomy", str(nt), f"{st:.6f}", "4", "0.500000")
        for nt, st in product((3, 5, 7), (0.1, 0.25, 0.5))
    ]


def decision_table() -> list[tuple[str, str, str]]:
    """README's decision-parameter table as ``(name, meaning, default)`` rows."""
    text = README.read_text(encoding="utf-8")
    table = text.split("\nDecision parameters", 1)[1].split("\n\n")[1]
    return re.findall(r"^\| `--([a-z]+)` \|([^|]*)\|([^|]*)\|$", table, re.M)


def test_decision_parameter_defaults_are_the_flag_defaults():
    rows = [(name, default) for name, _, default in decision_table()]
    names = ["nt", "st", "nc", "rc", "alpha", "boost"]
    assert [(name, cell.strip()) for name, cell in rows] == [
        (name, cli._FLAGS[name].default) for name in names
    ]


# A range written in prose: "in [0, 1]" or "in (0, 1]" (a bracket includes
# its end, a parenthesis excludes it), or "must be >= 1", unbounded above.
_STATED_RANGE = re.compile(r"in ([\[(])([\d.]+), ([\d.]+)([\])])|must be >= ([\d.]+)")


def stated_ranges() -> list[tuple[str, str, tuple]]:
    """``(flag name, where, (low, low included, high, high included))`` for each stated range.

    ``where`` is ``help`` or ``README``, and ``high`` is None for no upper end.
    """
    texts = [(name, "help", flag.help) for name, flag in cli._FLAGS.items()]
    texts += [(name, "README", meaning) for name, meaning, _ in decision_table()]
    found = []
    for name, where, text in texts:
        for m in _STATED_RANGE.finditer(text):
            if m[5]:
                found.append((name, where, (float(m[5]), True, None, False)))
            else:
                found.append((name, where, (float(m[2]), m[1] == "[", float(m[3]), m[4] == "]")))
    return found


def test_ranges_are_stated_for_st_rc_and_workers_only():
    assert sorted((name, where) for name, where, _ in stated_ranges()) == [
        ("rc", "README"),
        ("rc", "help"),
        ("st", "README"),
        ("st", "help"),
        ("workers", "help"),
    ]


@pytest.mark.parametrize(
    "name, where, interval", [pytest.param(*r, id=f"{r[0]}-{r[1]}") for r in stated_ranges()]
)
def test_stated_range_is_the_flag_rule_at_its_edges(name, where, interval):
    low, low_included, high, high_included = interval
    flag, option = cli._FLAGS[name], cli._option(name)
    kind = type(flag.parse(flag.default, option))

    def accepts(value) -> bool:
        try:
            parsed = flag.parse(repr(kind(value)), option)
        except UsageError:
            return False
        assert parsed == value
        return True

    def step(value, toward):
        # The next value of the flag's kind from ``value`` toward ``toward``.
        if kind is int:
            return int(value) + (1 if toward > value else -1)
        return math.nextafter(value, toward)

    assert accepts(low) is low_included
    assert accepts(step(low, math.inf))
    assert not accepts(step(low, -math.inf))
    if high is None:
        assert accepts(kind(10**6))
    else:
        assert accepts(high) is high_included
        assert accepts(step(high, -math.inf))
        assert not accepts(step(high, math.inf))
