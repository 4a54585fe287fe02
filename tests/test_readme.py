"""The README's CLI and Library examples run as written on the benchmark corpus,
and its decision-parameter table gives the flags' defaults."""

import re
import shlex
import shutil
from itertools import product
from pathlib import Path

import synth
from bibclass import cli

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


def test_decision_parameter_defaults_are_the_flag_defaults():
    text = README.read_text(encoding="utf-8")
    table = text.split("\nDecision parameters", 1)[1].split("\n\n")[1]
    rows = re.findall(r"^\| `--([a-z]+)` \|[^|]*\|([^|]*)\|$", table, re.M)
    names = ["nt", "st", "nc", "rc", "alpha", "boost"]
    assert [(name, cell.strip()) for name, cell in rows] == [
        (name, cli._FLAGS[name].default) for name in names
    ]
