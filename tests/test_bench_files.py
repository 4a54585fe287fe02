"""The checked-in benchmark trajectory: one ``BENCH_<number>.json`` per measured change.

Each file holds, for every workload and end-to-end metric that
``BENCHMARK.json`` lists, the median and quartiles of the parent's and the
change's runs, with the run count, seed, CPU count and both commits.  A
file that claims a gain names one workload and end-to-end metric; its
median gap and parent IQR are those of the recorded numbers, and it is met
when the change won at least nine pairs in ten and the gap exceeds the IQR.
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


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_a_claim_agrees_with_the_numbers_recorded(path):
    """A claim's gap, IQR and verdict follow from the medians and quartiles recorded."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bench = json.loads(path.read_text(encoding="utf-8"))
    claim = bench.get("claim")
    if claim is None:
        return
    assert claim["workload"] in {w["name"] for w in benchmark["workloads"]}
    metric = {m["name"]: m for m in benchmark["end_to_end"]}[claim["metric"]]
    results = bench["workloads"][claim["workload"]]
    parent = results["parent"][metric["name"]]
    change = results["change"][metric["name"]]
    gap = parent["median"] - change["median"]
    if metric["better"] == "higher":
        gap = -gap
    iqr = parent["q3"] - parent["q1"]
    assert claim["median_gap"] == pytest.approx(gap, abs=1e-6)
    assert claim["parent_iqr"] == pytest.approx(iqr, abs=1e-6)
    won = claim["change_better_in_pairs"]
    assert won == results["change_better_in_pairs"][metric["name"]]
    assert claim["met"] == (won >= 0.9 * results["pairs"] and gap > iqr)
