"""Tests of the benchmark itself: generator, correctness gate and spans.

Run from the root of the repository with ``python -m pytest perfbench``.
"""

import json
import sys
import time
import types
from pathlib import Path

import pytest

import inputs
import reference
import run
import workloads
from replay import LAYER_UNITS, replay
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A grouping span's children must account for all but this share of it.
COVER_TOLERANCE = 0.10


@pytest.fixture(scope="module")
def synth():
    return inputs.load_synth(ROOT / "tests")


@pytest.fixture(scope="module")
def bc():
    from bibclass import bayes, citegraph, cli, corpus, evalhub, textpipe

    return types.SimpleNamespace(
        bayes=bayes, citegraph=citegraph, cli=cli, corpus=corpus, evalhub=evalhub,
        textpipe=textpipe,
    )


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def test_replicas_are_deterministic_with_unique_ids(synth, tmp_path):
    inputs.build_replicas(synth, 5, 3, tmp_path / "a")
    inputs.build_replicas(synth, 5, 3, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert synth.SEED == 9731

    test = reference.read_records(tmp_path / "a" / "test.jsonl")
    train = reference.read_records(tmp_path / "a" / "train.jsonl")
    assert len(test) == 3 * 4033 and len(train) == 3 * 400
    for recs in (test, train):
        assert len({r["id"] for r in recs}) == len(recs)
    members = (tmp_path / "a" / "memberships.tsv").read_text().splitlines()
    citers = [line.split("\t")[0] for line in members]
    assert len(set(citers)) == len(citers)
    test_ids = {r["id"] for r in test}
    for line in (tmp_path / "a" / "citations.tsv").read_text().splitlines()[1:]:
        citing, cited = line.split("\t")
        assert citing in set(citers) and cited in test_ids
        assert citing.split("-")[0] == cited.split("-")[0] or "-" not in cited


def test_replica_zero_at_default_seed_is_the_frozen_corpus(synth, tmp_path):
    paths = inputs.build_replicas(synth, synth.SEED, 1, tmp_path / "rep")
    frozen = synth.build_benchmark(tmp_path / "frozen")["paths"]
    for name in ("train", "test", "citations", "memberships"):
        assert paths[name].read_bytes() == frozen[name].read_bytes()


def test_other_seeds_give_other_text(synth, tmp_path):
    a = reference.read_records(inputs.build_replicas(synth, 1, 1, tmp_path / "a")["test"])
    b = reference.read_records(inputs.build_replicas(synth, 2, 1, tmp_path / "b")["test"])
    assert [r["title"] for r in a] != [r["title"] for r in b]


def test_prose_filler_filters_away_to_the_clean_tokens(synth, bc, tmp_path):
    paths = inputs.build_replicas(synth, 3, 1, tmp_path)
    data = SRC / "bibclass" / "data"
    words = inputs.read_term_list(data / "stopwords.txt")
    phrases = inputs.read_term_list(data / "stopphrases.txt")
    prose = inputs.write_prose(
        paths["train"], tmp_path / "prose.jsonl", 3, inputs.filler_units(words, phrases)
    )
    again = inputs.write_prose(
        paths["train"], tmp_path / "again.jsonl", 3, inputs.filler_units(words, phrases)
    )
    assert prose.read_bytes() == again.read_bytes()
    stop = reference.StopFilter(words, phrases)
    tok = bc.textpipe.default_tokenizer_config()
    raw = kept = 0
    clean_records = reference.read_records(paths["train"])
    for clean, noisy in zip(clean_records, reference.read_records(prose)):
        want = stop(reference.tokenize(reference.record_text(clean)))
        noisy_tokens = reference.tokenize(reference.record_text(noisy))
        assert stop(noisy_tokens) == want
        assert bc.textpipe.filter_tokens(bc.textpipe.tokenize(reference.record_text(noisy)), tok) == want
        raw += len(noisy_tokens)
        kept += len(want)
    assert 0.4 < kept / raw < 0.6


def test_reference_reproduces_the_frozen_goldens(synth, tmp_path):
    prep = workloads.prepare_sweep(synth, SRC, synth.SEED, tmp_path)
    assert b"\ncombined,astronomy,5,0.250000,4,0.500000,173,22,27," in prep.expected
    stop = workloads._stop_filter(SRC)
    records = reference.read_records(prep.paths["test"])
    model = reference.train(reference.read_records(prep.paths["train0"]), stop)
    scored = reference.score_corpus(
        records, model, stop, prep.paths["citations"], prep.paths["memberships"]
    )
    counts = reference.golden_counts(reference.assignments_bytes(scored), records)
    assert counts == reference.GOLDEN_COMBINED


def _writer(payload: bytes, name: str, status: int = 0) -> list[str]:
    code = f"open({name!r}, 'wb').write({payload!r}); raise SystemExit({status})"
    return [sys.executable, "-c", code]


def test_gate_counts_a_corrupted_output_as_failed(synth, tmp_path):
    prep = workloads.prepare_sweep(synth, SRC, synth.SEED, tmp_path / "inputs")
    env, out = {}, prep.output
    good = run.attempt(_writer(prep.expected, out), env, tmp_path, 30, prep)
    assert good["failure"] is None
    assert good["output_sha256"] is not None

    corrupted = prep.expected.replace(b",173,22,27,", b",172,22,28,")
    bad = run.attempt(_writer(corrupted, out), env, tmp_path, 30, prep)
    assert bad["failure"] == "output differs from the reference"
    assert run.attempt(_writer(prep.expected, out, 3), env, tmp_path, 30, prep)["failure"]
    missing = run.attempt([sys.executable, "-c", "pass"], env, tmp_path, 30, prep)
    assert missing["failure"] == "no output file"

    # The golden check stands on its own: a reference that drifted is caught too.
    prep.expected = corrupted
    assert "default-point row" in prep.gate(corrupted)


def test_tracer_self_time_and_cover():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        step = tracer.wrap("step", time.sleep)
        for _ in range(3):
            step(0.01)
    selfs = tracer.self_times()
    outer = tracer.spans[0]
    assert [s.name for s in tracer.spans] == ["outer", "inner", "step"]
    assert tracer.spans[2].calls == 3 and tracer.spans[2].parent == outer.id
    for span in tracer.spans:
        assert 0.0 <= selfs[span.id] <= span.duration
    assert selfs[outer.id] <= COVER_TOLERANCE * outer.duration


def _check_spans(tracer: Tracer) -> None:
    selfs = tracer.self_times()
    for span in tracer.spans:
        assert -1e-9 <= selfs[span.id] <= span.duration
        if span.name.startswith("replay."):
            assert selfs[span.id] <= COVER_TOLERANCE * span.duration, span.name


def test_classify_replay_is_correct_and_its_spans_nest(synth, bc, tmp_path):
    prep = workloads.prepare_classify(synth, SRC, synth.SEED, tmp_path / "inputs", replicas=1)
    tracer, metrics, out = replay(prep, bc, tmp_path)
    assert prep.gate(out.read_bytes()) is None
    _check_spans(tracer)
    assert metrics["bayes.records_scored"] == 4033
    assert metrics["textpipe.tokens_in"] == prep.sizes["textpipe.tokens_in"]
    assert metrics["evalhub.text_score_table_s"] > 0
    assert metrics["evalhub.assign_self_s"] <= metrics["evalhub.classify_corpus_s"]
    assert metrics["evalhub.assignments_built"] == 4033


def test_train_replay_counts_filtered_tokens(synth, bc, tmp_path):
    prep = workloads.prepare_train_prose(synth, SRC, 4, tmp_path / "inputs", replicas=1)
    tracer, metrics, out = replay(prep, bc, tmp_path)
    assert prep.gate(out.read_bytes()) is None
    _check_spans(tracer)
    assert metrics["textpipe.tokens_in"] == prep.sizes["textpipe.tokens_in"]
    assert 0.4 < metrics["textpipe.kept_ratio"] < 0.6


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    timed = dict(run.UNITS, pass_ratio="ratio")
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == timed
    assert {w["name"] for w in spec["workloads"]} == set(workloads.PREPARE)
