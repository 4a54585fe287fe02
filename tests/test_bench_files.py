"""The checked-in benchmark trajectory: one ``BENCH_<number>.json`` per measured change.

Each file holds, for every workload and end-to-end metric that
``BENCHMARK.json`` lists, the median and quartiles of the parent's and the
change's runs, with the run count, seed, CPU count and both commits.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_exists():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_names_every_workload_and_end_to_end_metric(path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert bench["pairs"] >= 1
    assert isinstance(bench["seed"], int)
    assert bench["nproc"] >= 1
    assert bench["parent"]["commit"] and bench["change"]["commit"]
    for workload in benchmark["workloads"]:
        results = bench["workloads"][workload["name"]]
        for side in ("parent", "change"):
            for metric in benchmark["end_to_end"]:
                summary = results[side][metric["name"]]
                assert summary["q1"] <= summary["median"] <= summary["q3"], (side, metric)
                assert summary["unit"] == metric["unit"]
