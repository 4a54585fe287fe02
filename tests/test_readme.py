"""The README's Library example runs as written on the benchmark corpus."""

import re
import shutil
from itertools import product
from pathlib import Path

import synth

README = Path(__file__).resolve().parent.parent / "README.md"

# The benchmark's files under the names the example reads.
EXAMPLE_NAMES = {
    "train": "train.jsonl",
    "test": "test.jsonl",
    "citations": "edges.tsv",
    "memberships": "members.tsv",
}


def test_library_example_runs_and_writes_its_grid(bench, tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    for key, name in EXAMPLE_NAMES.items():
        shutil.copy(bench["paths"][key], tmp_path / name)
    monkeypatch.chdir(tmp_path)
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
