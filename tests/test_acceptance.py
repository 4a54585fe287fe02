"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.  Golden values in GOLDEN were computed once by the brute-force
oracle pipeline in make_goldens.py (smallest text-score margin to the
decision threshold: 4.2e-3, so integer counts cannot flip from float
drift between computation routes) and are compared exactly.
"""

import math
import os
import random
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import bibclass
import make_goldens
import oracles
import synth
from bibclass.bayes import TextClassifierConfig, build_model, score_text
from bibclass.citegraph import CitationClassifierConfig, CitationGraph
from bibclass.corpus import BibRecord, load_citations, load_model, save_model
from bibclass.evalhub import SweepGrids, classify_corpus, evaluate, sweep
from bibclass.textpipe import TokenizerConfig, default_tokenizer_config

PLAIN = TokenizerConfig()

# §4-analog operating point: the library defaults.
N_T, S_T = 5, 0.25
N_C, R_C = 4, 0.5

# (tp, fp, fn) per (mode, database) on the benchmark corpus at the settings
# above, frozen from the oracle pipeline.
GOLDEN = {
    ("text", "astronomy"): (150, 15, 50),
    ("text", "general"): (2700, 10, 0),
    ("text", "physics"): (637, 0, 3),
    ("citation", "astronomy"): (140, 7, 60),
    ("citation", "general"): (80, 0, 2620),
    ("citation", "physics"): (190, 0, 450),
    ("combined", "astronomy"): (173, 22, 27),
    ("combined", "general"): (2700, 10, 0),
    ("combined", "physics"): (637, 0, 3),
}


@contextmanager
def criterion(number):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[ACCEPTANCE] criterion {number}: {'PASS' if ok else 'FAIL'}")


def toy_records(train):
    return [
        BibRecord(id=f"d{i}", title=" ".join(tokens), year=1997, gold_labels=frozenset(labels))
        for i, (tokens, labels) in enumerate(train)
    ]


def test_criterion_1_text_scores_match_brute_force():
    with criterion(1):
        rng = random.Random(20101)
        start = time.perf_counter()
        for _ in range(120):
            train, databases, vocab = synth.toy_training(rng)
            alpha = rng.choice([0.25, 0.5, 1.0, 2.0])
            model = build_model(toy_records(train), databases, PLAIN, alpha=alpha)
            stats = oracles.nb_stats(train, databases)
            for _ in range(5):
                query = synth.toy_query(rng, vocab)
                got = score_text(model, TextClassifierConfig(), query)
                want = oracles.nb_scores_from(stats, query, alpha)
                for db in databases:
                    assert math.isclose(got[db], want[db], rel_tol=1e-9, abs_tol=0.0)
        assert time.perf_counter() - start < 10.0


def test_criterion_2_citation_classifier_matches_raw_recount(tmp_path):
    with criterion(2):
        rng = random.Random(20202)
        start = time.perf_counter()
        for trial in range(120):
            edges, memberships, known, databases, cited_ids = synth.toy_graph_data(rng)
            path = tmp_path / f"edges{trial}.tsv"
            with open(path, "w", encoding="utf-8") as fh:
                for citing, cited in edges:
                    fh.write(f"{citing}\t{cited}\n")
            graph, _ = load_citations(path, known, memberships, tuple(databases))
            config = CitationClassifierConfig(
                min_citations=rng.randint(1, 6),
                ratio_threshold=rng.choice([0.2, 0.25, 0.5, 0.75, 1.0]),
            )
            records = [BibRecord(id=rid, title="t", year=1997) for rid in cited_ids]
            got = classify_corpus(records, mode="citation", graph=graph, cite_config=config)
            assert [a.record_id for a in got] == cited_ids
            for a in got:
                want = oracles.citation_assignments(
                    edges,
                    memberships,
                    known,
                    databases,
                    a.record_id,
                    config.min_citations,
                    config.ratio_threshold,
                )
                assert a.via_citation == want
        assert time.perf_counter() - start < 5.0


def _toy_evaluation_setup(rng):
    """A small labeled corpus with both text and citation evidence."""
    train, databases, vocab = synth.toy_training(rng)
    model = build_model(toy_records(train), databases, PLAIN)
    records = []
    citers = {}
    memberships = {}
    serial = 0
    for i in range(30):
        labels = frozenset(db for db in databases if rng.random() < 0.4)
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 15)))
        records.append(
            BibRecord(id=f"q{i}", title=text or "stub", year=1997, gold_labels=labels)
        )
        if rng.random() < 0.6:
            group = []
            for _ in range(rng.randint(1, 8)):
                serial += 1
                cid = f"c{serial}"
                memberships[cid] = frozenset(db for db in databases if rng.random() < 0.5)
                group.append(cid)
            citers[f"q{i}"] = frozenset(group)
    graph = CitationGraph(citers=citers, memberships=memberships, databases=tuple(databases))
    return records, databases, model, graph


def test_criterion_3_recall_monotonicity_and_union():
    with criterion(3):
        rng = random.Random(20303)
        base_text = TextClassifierConfig(min_words=2, score_threshold=0.25)
        base_cite = CitationClassifierConfig(min_citations=2, ratio_threshold=0.5)
        grids = {
            "min_words": SweepGrids((0, 2, 4, 6, 8), (0.25,), (2,), (0.5,)),
            "score_thresholds": SweepGrids((2,), (0.1, 0.3, 0.5, 0.7, 0.9), (2,), (0.5,)),
            "min_citations": SweepGrids((2,), (0.25,), (1, 3, 5, 7, 9), (0.5,)),
            "ratio_thresholds": SweepGrids((2,), (0.25,), (2,), (0.2, 0.4, 0.6, 0.8, 1.0)),
        }
        for _ in range(50):
            records, databases, model, graph = _toy_evaluation_setup(rng)
            common = dict(
                model=model,
                text_config=base_text,
                tokenizer_config=PLAIN,
                graph=graph,
                cite_config=base_cite,
            )
            db = rng.choice(databases)
            for grid in grids.values():
                reports = sweep(records, grid, mode="combined", db=db, **common).reports
                recalls = [r.recall for r in reports]
                assert recalls == sorted(recalls, reverse=True)
            text_only = classify_corpus(records, mode="text", **common)
            cite_only = classify_corpus(records, mode="citation", **common)
            combined = classify_corpus(records, mode="combined", **common)
            for t, c, both in zip(text_only, cite_only, combined):
                assert both.databases == t.via_text | c.via_citation
                assert both.via_text == t.via_text
                assert both.via_citation == c.via_citation


def test_criterion_4_benchmark_reproduces_golden_values(bench, bench_test, bench_model, bench_graph):
    with criterion(4):
        start = time.perf_counter()
        assert bench["n_train"] == 400
        assert bench["n_train_astro"] == 39
        assert bench["n_test"] == 4033
        assert bench["n_cited"] == 434
        test_ids = set(bench_test.ids())
        assert bench["cited_ids"] < test_ids  # strict subset

        text_config = TextClassifierConfig(min_words=N_T, score_threshold=S_T)
        cite_config = CitationClassifierConfig(min_citations=N_C, ratio_threshold=R_C)
        gold = {r.id: r.gold_labels for r in bench_test.records}
        recalls = {}
        for mode in ("text", "citation", "combined"):
            inputs = dict(
                mode=mode,
                model=bench_model,
                text_config=text_config,
                tokenizer_config=default_tokenizer_config(),
                graph=bench_graph,
                cite_config=cite_config,
            )
            reports = evaluate(bench_test.records, **inputs)
            assignments = classify_corpus(bench_test.records, **inputs)
            assigned = {a.record_id: a.databases for a in assignments}
            assert [r.db for r in reports] == list(synth.DATABASES)
            for report in reports:
                db = report.db
                assert (report.tp, report.fp, report.fn) == GOLDEN[(mode, db)], (
                    mode,
                    db,
                    report,
                )
                counted = oracles.precision_recall_counts(assigned, gold, db)
                assert counted == (report.tp, report.fp, report.fn, report.precision, report.recall)
                recalls[(mode, db)] = report.recall
        for db in synth.DATABASES:
            assert recalls[("combined", db)] >= recalls[("text", db)]
            assert recalls[("combined", db)] >= recalls[("citation", db)]
        assert time.perf_counter() - start < 30.0


def test_criterion_5_normalization_and_duplication_invariance(bench_model):
    with criterion(5):
        rng = random.Random(20505)
        pools = (
            synth.ASTRO_WORDS,
            synth.PHYSICS_WORDS,
            synth.GENERAL_WORDS,
            synth.FILLER_WORDS,
            ["unseen1", "unseen2", "unseen3"],
        )
        config = TextClassifierConfig()
        for _ in range(1000):
            tokens = [
                rng.choice(rng.choice(pools)) for _ in range(rng.randint(1, 60))
            ]
            score = score_text(bench_model, config, tokens)
            assert math.isclose(sum(score.values()), 1.0, abs_tol=1e-9)
            doubled = score_text(bench_model, config, tokens + tokens)
            top = max(bench_model.databases, key=lambda db: score[db])
            top_doubled = max(
                bench_model.databases, key=lambda db: doubled[db]
            )
            assert top == top_doubled


def _run_cli(args, cwd, hash_seed=None):
    env = {k: v for k, v in os.environ.items() if k != "BIBCLASS_CONFIG"}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    # The child runs in ``cwd``, where a relative PYTHONPATH entry would not
    # resolve, so it imports the package from the same absolute location.
    package_parent = str(Path(bibclass.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_parent, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "bibclass.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_6_round_trip_and_cli_determinism(bench, bench_model, tmp_path):
    with criterion(6):
        # Model persistence is field-exact, default and non-default alpha alike.
        for alpha_dir, model in (
            ("one", bench_model),
            ("other", build_model(toy_records([(["w1", "w2"], ["db0"]), (["w2"], ["db1"])]), ("db0", "db1"), PLAIN, alpha=0.7)),
        ):
            path = tmp_path / f"model-{alpha_dir}.txt"
            save_model(model, path)
            loaded = load_model(path)
            assert loaded.databases == model.databases
            assert loaded.term_counts == model.term_counts
            assert loaded.total_tokens == model.total_tokens
            assert loaded.doc_counts == model.doc_counts
            assert loaded.smoothing_alpha == model.smoothing_alpha

        # Identical CLI invocations are byte-identical across fresh processes
        # with different string hash seeds, so no set or dict order can leak.
        paths = bench["paths"]
        for seed in (0, 1):
            _run_cli(
                ["build-model", "--records", str(paths["train"]), "--model", f"model-{seed}.txt"],
                tmp_path,
                seed,
            )
        model_bytes = (tmp_path / "model-0.txt").read_bytes()
        assert model_bytes == (tmp_path / "model-1.txt").read_bytes()
        base = [
            "--records",
            str(paths["test"]),
            "--model",
            "model-0.txt",
            "--citations",
            str(paths["citations"]),
            "--memberships",
            str(paths["memberships"]),
        ]
        sweep_args = ["--db", "astronomy", "--nt", "3,5", "--st", "0.25,0.5"]
        outputs = []
        for seed in (0, 1):
            _run_cli(["classify", *base, "--out", f"{seed}.tsv"], tmp_path, seed)
            _run_cli(["sweep", *base, *sweep_args, "--grid-out", f"{seed}.csv"], tmp_path, seed)
            evaluated = _run_cli(["evaluate", *base], tmp_path, seed).stdout
            written = [(tmp_path / f"{seed}{ext}").read_bytes() for ext in (".tsv", ".csv")]
            outputs.append((*written, evaluated))
        assert outputs[0] == outputs[1]


def test_make_goldens_prints_exactly_the_frozen_golden_counts(capsys):
    # GOLDEN's claimed source, rerun: the same operating point, the nine
    # triples, and a text-score margin wide enough for float drift.
    point = (make_goldens.N_T, make_goldens.S_T, make_goldens.N_C, make_goldens.R_C)
    assert point == (N_T, S_T, N_C, R_C)
    make_goldens.main()
    out = capsys.readouterr().out
    rows = re.findall(r'^\("(\w+)", "(\w+)"\): \((\d+), (\d+), (\d+)\),', out, flags=re.M)
    assert len(rows) == len(GOLDEN)
    assert {(mode, db): tuple(map(int, counts)) for mode, db, *counts in rows} == GOLDEN
    (margin,) = re.findall(r"^min \|text score - threshold\| margin: (\S+)$", out, flags=re.M)
    assert float(margin) > 1e-3
