"""Traced replay: the CLI's call sequence through the package's public functions.

Spans are taken around each call from here; the calls the package makes
internally (the score tables inside ``classify_corpus`` and ``sweep``,
``precision_recall`` per grid point, tokenizing inside ``build_model``)
are seen by swapping the module attribute they are looked up through for
a timed wrapper for the length of the replay.  ``text_score_table`` scores
in worker processes, which a wrapper cannot see into, so the text path is
replayed once more record by record (tokenize, filter_tokens, score_text,
apply_triggers), traced and then untraced; the ratio of the two is the
tracing overhead.  For ``build-model`` the overhead is that of the traced
``build_model`` over an untraced one.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path

from reference import DEFAULT_POINT
from spans import Tracer, patched
from workloads import SWEEP_DB, SWEEP_GRIDS, WORKERS, Prepared

# Every per-layer metric, with the unit it is reported in.
LAYER_UNITS = {
    "textpipe.tokenize_s": "s",
    "textpipe.filter_tokens_s": "s",
    "textpipe.tokens_in": "count",
    "textpipe.tokens_kept": "count",
    "textpipe.kept_ratio": "ratio",
    "bayes.score_text_s": "s",
    "bayes.apply_triggers_s": "s",
    "bayes.records_scored": "count",
    "bayes.classifiable_ratio": "ratio",
    "bayes.build_model_s": "s",
    "corpus.save_model_s": "s",
    "corpus.load_records_s": "s",
    "corpus.load_model_s": "s",
    "corpus.load_memberships_s": "s",
    "corpus.load_citations_s": "s",
    "corpus.edges_kept": "count",
    "corpus.edges_dropped": "count",
    "corpus.records_skipped": "count",
    "evalhub.text_score_table_s": "s",
    "evalhub.citation_score_table_s": "s",
    "evalhub.classify_corpus_s": "s",
    "evalhub.assign_self_s": "s",
    "evalhub.sweep_s": "s",
    "evalhub.sweep_point_ms": "ms",
    "evalhub.grid_points": "count",
    "evalhub.assignments_built": "count",
    "evalhub.precision_recall_s": "s",
    "evalhub.emit_grid_csv_s": "s",
    "cli.emit_assignments_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _count(counters: Counter, key: str):
    def on_result(args, result):
        counters[key] += len(result)

    return on_result


def _per_record(records, tok, model, text_config, bc, tracer=None, counters=None) -> float:
    """Score every record on the text path in-process; returns the elapsed seconds."""
    tokenize, filter_tokens = bc.textpipe.tokenize, bc.textpipe.filter_tokens
    score_text, apply_triggers = bc.bayes.score_text, bc.bayes.apply_triggers
    if tracer is not None:
        tokenize = tracer.wrap("textpipe.tokenize", tokenize, _count(counters, "tokens_in"))
        filter_tokens = tracer.wrap(
            "textpipe.filter_tokens", filter_tokens, _count(counters, "tokens_kept")
        )
        score_text = tracer.wrap("bayes.score_text", score_text)
        apply_triggers = tracer.wrap("bayes.apply_triggers", apply_triggers)
    start = time.perf_counter()
    classifiable = 0
    for record in records:
        kept = filter_tokens(tokenize(bc.bayes.record_text(record)), tok)
        apply_triggers(score_text(model, text_config, kept), kept, text_config)
        classifiable += len(kept) >= text_config.min_words
    if counters is not None:
        counters["classifiable"] += classifiable
    return time.perf_counter() - start


def _internal_wrappers(tracer: Tracer, counters: Counter, bc) -> list:
    candidates = [
        (bc.evalhub, "text_score_table", "evalhub.text_score_table", None),
        (bc.evalhub, "citation_score_table", "evalhub.citation_score_table", None),
        (bc.evalhub, "precision_recall", "evalhub.precision_recall", None),
        (bc.bayes, "tokenize", "textpipe.tokenize", _count(counters, "tokens_in")),
        (bc.bayes, "filter_tokens", "textpipe.filter_tokens", _count(counters, "tokens_kept")),
    ]
    # An internal that a later refactor removes reads 0 instead of breaking the replay.
    wrappers = [
        (module, attr, tracer.wrap(name, getattr(module, attr), on_result))
        for module, attr, name, on_result in candidates
        if hasattr(module, attr)
    ]
    if hasattr(bc.evalhub, "Assignment"):
        wrappers.append((bc.evalhub, "Assignment", _counted(bc.evalhub.Assignment, counters)))
    return wrappers


def _counted(cls, counters: Counter):
    """``cls`` with every instance counted; no span, since sweeps build millions."""

    def make(*args, **kwargs):
        counters["assignments"] += 1
        return cls(*args, **kwargs)

    return make


def replay(prep: Prepared, bc, out_dir: Path):
    """Run the workload's call sequence traced; returns (tracer, metrics, output path).

    ``bc`` is a namespace holding the imported package modules
    (``bayes``, ``citegraph``, ``cli``, ``corpus``, ``evalhub``, ``textpipe``).
    """
    tracer = Tracer()
    counters: Counter = Counter()
    out = out_dir / prep.output
    paths = prep.paths
    scoring = prep.name != "train-prose-10x"
    with patched(_internal_wrappers(tracer, counters, bc)), tracer.span("replay.cli"):
        with tracer.span("textpipe.default_tokenizer_config"):
            tok = bc.textpipe.default_tokenizer_config()
        with tracer.span("corpus.load_records"):
            corpus = bc.corpus.load_records(paths["test"] if scoring else paths["prose"])
        counters["records_skipped"] = corpus.skipped
        if scoring:
            with tracer.span("corpus.load_model"):
                model = bc.corpus.load_model(paths["model"])
            with tracer.span("corpus.load_memberships"):
                members = bc.corpus.load_memberships(paths["memberships"])
            with tracer.span("corpus.load_citations"):
                known = set(members) | corpus.ids()
                graph, stats = bc.corpus.load_citations(
                    paths["citations"], known, members, model.databases
                )
            counters["edges_kept"] = stats.edges_kept
            counters["edges_dropped"] = (
                stats.duplicates + stats.self_citations + stats.unknown_citers
            )
            if prep.name == "sweep-1x":
                nt, st, nc, rc = (values[0] for values in SWEEP_GRIDS)
            else:
                nt, st, nc, rc = DEFAULT_POINT
            text_config = bc.bayes.TextClassifierConfig(min_words=nt, score_threshold=st)
            cite_config = bc.citegraph.CitationClassifierConfig(
                min_citations=nc, ratio_threshold=rc
            )
            tables = dict(
                model=model,
                text_config=text_config,
                tokenizer_config=tok,
                graph=graph,
                cite_config=cite_config,
                workers=WORKERS,
            )
            if prep.name == "classify-10x":
                with tracer.span("evalhub.classify_corpus"):
                    assignments = bc.evalhub.classify_corpus(
                        corpus.records, mode="combined", **tables
                    )
                with tracer.span("cli.emit_assignments"):
                    bc.cli.emit_assignments(assignments, model.databases, out)
            else:
                grids = bc.evalhub.SweepGrids(*SWEEP_GRIDS)
                with tracer.span("evalhub.sweep"):
                    grid = bc.evalhub.sweep(
                        corpus.records, grids, mode="combined", db=SWEEP_DB, **tables
                    )
                counters["grid_points"] = len(grid.reports)
                with tracer.span("evalhub.emit_grid_csv"):
                    bc.evalhub.emit_grid_csv(grid, out)
        else:
            databases = tuple(sorted({db for r in corpus.records for db in r.gold_labels}))
            with tracer.span("bayes.build_model"):
                model = bc.bayes.build_model(corpus.records, databases, tok, alpha=1.0)
            with tracer.span("corpus.save_model"):
                bc.corpus.save_model(model, out)

    if scoring:
        with tracer.span("replay.per_record") as traced:
            _per_record(corpus.records, tok, model, text_config, bc, tracer, counters)
        counters["records_scored"] = len(corpus.records)
        untraced = _per_record(corpus.records, tok, model, text_config, bc)
    else:
        traced = next(s for s in tracer.spans if s.name == "bayes.build_model")
        start = time.perf_counter()
        bc.bayes.build_model(corpus.records, databases, tok, alpha=1.0)
        untraced = time.perf_counter() - start
    return tracer, _metrics(tracer, counters, traced.duration / untraced), out


def _metrics(tracer: Tracer, counters: Counter, overhead: float) -> dict:
    total = tracer.total
    tables = total("evalhub.text_score_table") + total("evalhub.citation_score_table")
    points = counters["grid_points"]
    sweep_tables = tables if points else 0.0
    scored = counters["records_scored"]
    return {
        "textpipe.tokenize_s": total("textpipe.tokenize"),
        "textpipe.filter_tokens_s": total("textpipe.filter_tokens"),
        "textpipe.tokens_in": counters["tokens_in"],
        "textpipe.tokens_kept": counters["tokens_kept"],
        "textpipe.kept_ratio": (
            counters["tokens_kept"] / counters["tokens_in"] if counters["tokens_in"] else 0.0
        ),
        "bayes.score_text_s": total("bayes.score_text"),
        "bayes.apply_triggers_s": total("bayes.apply_triggers"),
        "bayes.records_scored": scored,
        "bayes.classifiable_ratio": counters["classifiable"] / scored if scored else 0.0,
        "bayes.build_model_s": total("bayes.build_model"),
        "corpus.save_model_s": total("corpus.save_model"),
        "corpus.load_records_s": total("corpus.load_records"),
        "corpus.load_model_s": total("corpus.load_model"),
        "corpus.load_memberships_s": total("corpus.load_memberships"),
        "corpus.load_citations_s": total("corpus.load_citations"),
        "corpus.edges_kept": counters["edges_kept"],
        "corpus.edges_dropped": counters["edges_dropped"],
        "corpus.records_skipped": counters["records_skipped"],
        "evalhub.text_score_table_s": total("evalhub.text_score_table"),
        "evalhub.citation_score_table_s": total("evalhub.citation_score_table"),
        "evalhub.classify_corpus_s": total("evalhub.classify_corpus"),
        "evalhub.assign_self_s": tracer.self_total("evalhub.classify_corpus"),
        "evalhub.sweep_s": total("evalhub.sweep"),
        "evalhub.sweep_point_ms": (
            (total("evalhub.sweep") - sweep_tables) / points * 1000 if points else 0.0
        ),
        "evalhub.grid_points": points,
        "evalhub.assignments_built": counters["assignments"],
        "evalhub.precision_recall_s": total("evalhub.precision_recall"),
        "evalhub.emit_grid_csv_s": total("evalhub.emit_grid_csv"),
        "cli.emit_assignments_s": total("cli.emit_assignments"),
        "trace.overhead_ratio": overhead,
    }
