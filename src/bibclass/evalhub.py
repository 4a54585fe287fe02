"""Combine the two classifiers, score against gold labels, sweep parameters.

The combined assignment for a record is the union of what the text and
citation classifiers produce; either one can rescue records the other
cannot classify.  Sweeps precompute per-record score tables once, so each
parameter combination only re-applies thresholds.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from bibclass.bayes import (
    CategoryModel,
    TextClassifierConfig,
    apply_triggers,
    classify_text,
    record_text,
    score_text,
)
from bibclass.citegraph import CitationClassifierConfig, CitationGraph, classify_citations
from bibclass.corpus import BibRecord
from bibclass.errors import DataError, UsageError
from bibclass.textpipe import TokenizerConfig, filter_tokens, tokenize

log = logging.getLogger(__name__)

MODES = ("text", "citation", "combined")

# Below this corpus size forking workers costs more than it saves.
_PARALLEL_THRESHOLD = 512


class ParamPoint(NamedTuple):
    """One point of the (min_words, score_threshold, min_citations, ratio_threshold) grid."""

    min_words: int
    score_threshold: float
    min_citations: int
    ratio_threshold: float


@dataclass(frozen=True)
class Assignment:
    """Final database assignment for one record, split by classifier."""

    record_id: str
    via_text: frozenset[str]
    via_citation: frozenset[str]
    databases: frozenset[str] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "databases", self.via_text | self.via_citation)


@dataclass(frozen=True)
class EvalReport:
    """Precision/recall of one database's assignments at one parameter point."""

    db: str
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    params: ParamPoint | None = None


@dataclass(frozen=True)
class SweepGrids:
    """Value lists for the four decision parameters."""

    min_words: tuple[int, ...]
    score_thresholds: tuple[float, ...]
    min_citations: tuple[int, ...]
    ratio_thresholds: tuple[float, ...]

    def __post_init__(self):
        for name in ("min_words", "score_thresholds", "min_citations", "ratio_thresholds"):
            if not getattr(self, name):
                raise UsageError(f"empty sweep grid for {name}")


@dataclass(frozen=True)
class SweepGrid:
    """Sweep output: one report per parameter combination, in grid order."""

    mode: str
    db: str
    reports: tuple[EvalReport, ...]


def classify_combined(
    model: CategoryModel,
    text_config: TextClassifierConfig,
    tokenizer_config: TokenizerConfig,
    graph: CitationGraph,
    cite_config: CitationClassifierConfig,
    record: BibRecord,
) -> Assignment:
    """Run both classifiers on one record and union their assignments."""
    return Assignment(
        record_id=record.id,
        via_text=frozenset(classify_text(model, text_config, tokenizer_config, record)),
        via_citation=frozenset(classify_citations(graph, cite_config, record.id)),
    )


def precision_recall(
    assignments: Iterable[Assignment],
    gold: Mapping[str, set[str]],
    db: str,
    params: ParamPoint | None = None,
) -> EvalReport:
    """Count TP/FP/FN for one database over a full set of assignments.

    With no assignments at all for the database, precision is 1 by
    convention (nothing was claimed, so nothing was claimed wrongly);
    recall is 1 only when there are no gold positives either.
    """
    tp = fp = fn = 0
    for a in assignments:
        if a.record_id not in gold:
            raise DataError(f"assignment for '{a.record_id}' has no gold label entry")
        assigned = db in a.databases
        positive = db in gold[a.record_id]
        if assigned and positive:
            tp += 1
        elif assigned:
            fp += 1
        elif positive:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return EvalReport(db=db, tp=tp, fp=fp, fn=fn, precision=precision, recall=recall, params=params)


# ---------------------------------------------------------------------------
# Per-record score tables: computed once, thresholded many times.
# ---------------------------------------------------------------------------


def _score_text_chunk(args) -> list[tuple[str, int, dict[str, float]]]:
    records, model, text_config, tokenizer_config = args
    rows = []
    for record in records:
        tokens = filter_tokens(tokenize(record_text(record)), tokenizer_config)
        score = apply_triggers(score_text(model, text_config, tokens), tokens, text_config)
        rows.append((record.id, len(tokens), score.per_db_score))
    return rows


def text_score_table(
    records: Sequence[BibRecord],
    model: CategoryModel,
    text_config: TextClassifierConfig,
    tokenizer_config: TokenizerConfig,
    workers: int = 1,
) -> dict[str, tuple[int, dict[str, float]]]:
    """Token count and boosted per-database score for every record.

    The table depends only on the model and trigger configuration, not on
    the threshold parameters, so one table serves a whole sweep.  With
    ``workers`` > 1 records are scored in parallel chunks, one per worker,
    and at most one worker per processor; the merged result is independent
    of the worker count.
    """
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and len(records) >= _PARALLEL_THRESHOLD:
        chunk = (len(records) + workers - 1) // workers
        jobs = [
            (records[i : i + chunk], model, text_config, tokenizer_config)
            for i in range(0, len(records), chunk)
        ]
        try:
            with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
                chunks = list(pool.map(_score_text_chunk, jobs))
        except (OSError, PermissionError) as exc:
            log.warning("parallel scoring unavailable (%s); falling back to serial", exc)
            chunks = [_score_text_chunk(job) for job in jobs]
        rows = [row for part in chunks for row in part]
    else:
        rows = _score_text_chunk((records, model, text_config, tokenizer_config))
    return {rid: (n, scores) for rid, n, scores in rows}


def citation_score_table(
    records: Sequence[BibRecord], graph: CitationGraph
) -> dict[str, tuple[int, dict[str, float]]]:
    """Citation total and per-database citation ratio for every record."""
    table = {}
    for record in records:
        citing = graph.citers.get(record.id, frozenset())
        total = len(citing)
        hits = {db: 0 for db in graph.databases}
        for c in citing:
            for db in graph.memberships.get(c, frozenset()):
                if db in hits:
                    hits[db] += 1
        ratios = {db: (hits[db] / total if total else 0.0) for db in graph.databases}
        table[record.id] = (total, ratios)
    return table


def _assign_from_tables(
    record_id: str,
    mode: str,
    point: ParamPoint,
    databases: tuple[str, ...],
    text_row: tuple[int, dict[str, float]] | None,
    cite_row: tuple[int, dict[str, float]] | None,
) -> Assignment:
    via_text: frozenset[str] = frozenset()
    via_citation: frozenset[str] = frozenset()
    if mode in ("text", "combined") and text_row is not None:
        n, scores = text_row
        if n >= point.min_words:
            via_text = frozenset(
                db for db in databases if scores[db] >= point.score_threshold
            )
    if mode in ("citation", "combined") and cite_row is not None:
        total, ratios = cite_row
        if total >= point.min_citations:
            via_citation = frozenset(
                db for db in databases if ratios[db] >= point.ratio_threshold
            )
    return Assignment(record_id=record_id, via_text=via_text, via_citation=via_citation)


def classify_corpus(
    records: Sequence[BibRecord],
    *,
    mode: str = "combined",
    model: CategoryModel | None = None,
    text_config: TextClassifierConfig | None = None,
    tokenizer_config: TokenizerConfig | None = None,
    graph: CitationGraph | None = None,
    cite_config: CitationClassifierConfig | None = None,
    workers: int = 1,
) -> list[Assignment]:
    """Assign every record in input order, using the classifiers ``mode`` names."""
    if mode not in MODES:
        raise ValueError(f"unknown mode '{mode}'")
    text_table = cite_table = None
    databases: tuple[str, ...] = ()
    if mode in ("text", "combined"):
        if model is None or text_config is None or tokenizer_config is None:
            raise ValueError(f"mode '{mode}' needs a model, text config and tokenizer config")
        text_table = text_score_table(records, model, text_config, tokenizer_config, workers)
        databases = model.databases
    if mode in ("citation", "combined"):
        if graph is None or cite_config is None:
            raise ValueError(f"mode '{mode}' needs a citation graph and config")
        cite_table = citation_score_table(records, graph)
        databases = databases or graph.databases
    point = ParamPoint(
        min_words=text_config.min_words if text_config else 0,
        score_threshold=text_config.score_threshold if text_config else 0.0,
        min_citations=cite_config.min_citations if cite_config else 1,
        ratio_threshold=cite_config.ratio_threshold if cite_config else 1.0,
    )
    return [
        _assign_from_tables(
            r.id,
            mode,
            point,
            databases,
            text_table[r.id] if text_table else None,
            cite_table[r.id] if cite_table else None,
        )
        for r in records
    ]


def sweep(
    records: Sequence[BibRecord],
    grids: SweepGrids,
    *,
    mode: str,
    db: str,
    model: CategoryModel | None = None,
    text_config: TextClassifierConfig | None = None,
    tokenizer_config: TokenizerConfig | None = None,
    graph: CitationGraph | None = None,
    cite_config: CitationClassifierConfig | None = None,
    workers: int = 1,
) -> SweepGrid:
    """Evaluate one database over every parameter combination.

    Grids irrelevant to the mode are pinned to the base config values, so
    a text sweep emits one row per (min_words, score_threshold) pair.  Rows
    come out in ascending lexicographic order of the parameter tuple.
    """
    if mode not in MODES:
        raise UsageError(f"unknown mode '{mode}'")
    gold = {r.id: set(r.gold_labels) for r in records}
    text_table = cite_table = None
    databases: tuple[str, ...] = ()
    if mode in ("text", "combined"):
        if model is None or text_config is None or tokenizer_config is None:
            raise UsageError(f"mode '{mode}' needs a model, text config and tokenizer config")
        text_table = text_score_table(records, model, text_config, tokenizer_config, workers)
        databases = model.databases
    if mode in ("citation", "combined"):
        if graph is None or cite_config is None:
            raise UsageError(f"mode '{mode}' needs a citation graph and config")
        cite_table = citation_score_table(records, graph)
        databases = databases or graph.databases
    if db not in databases:
        raise DataError(f"database '{db}' is not in the configured set {list(databases)}")

    nts = sorted(set(grids.min_words))
    sts = sorted(set(grids.score_thresholds))
    ncs = sorted(set(grids.min_citations))
    rcs = sorted(set(grids.ratio_thresholds))
    if mode == "text":
        ncs = [cite_config.min_citations if cite_config else 1]
        rcs = [cite_config.ratio_threshold if cite_config else 1.0]
    elif mode == "citation":
        nts = [text_config.min_words if text_config else 0]
        sts = [text_config.score_threshold if text_config else 0.0]

    reports = []
    for nt in nts:
        for st in sts:
            for nc in ncs:
                for rc in rcs:
                    point = ParamPoint(nt, st, nc, rc)
                    assignments = (
                        _assign_from_tables(
                            r.id,
                            mode,
                            point,
                            databases,
                            text_table[r.id] if text_table else None,
                            cite_table[r.id] if cite_table else None,
                        )
                        for r in records
                    )
                    reports.append(precision_recall(assignments, gold, db, params=point))
    return SweepGrid(mode=mode, db=db, reports=tuple(reports))


def emit_grid_csv(grid: SweepGrid, path: str | Path) -> None:
    """Write the sweep grid as deterministic plot-ready CSV.

    Real-valued columns are fixed to six decimal places so reruns on
    identical inputs are byte-identical.
    """
    if not grid.reports:
        raise UsageError("cannot emit an empty sweep grid")
    lines = ["mode,db,N_t,S_t,N_c,R_c,tp,fp,fn,precision,recall"]
    for rep in grid.reports:
        p = rep.params
        if p is None:
            raise ValueError("sweep report is missing its parameter point")
        lines.append(
            f"{grid.mode},{grid.db},{p.min_words},{p.score_threshold:.6f},"
            f"{p.min_citations},{p.ratio_threshold:.6f},"
            f"{rep.tp},{rep.fp},{rep.fn},{rep.precision:.6f},{rep.recall:.6f}"
        )
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise DataError(f"cannot write grid CSV {path}: {exc}") from exc
