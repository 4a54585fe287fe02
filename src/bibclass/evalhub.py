"""Combine the two classifiers, score against gold labels, sweep parameters.

The combined assignment for a record is the union of what the text and
citation classifiers produce; either one can rescue records the other
cannot classify.  Sweeps precompute per-record score tables once, then
turn every threshold pair into a bitmask over the records (one Python int,
bit ``i`` for ``records[i]``): O(pairs * n) to build the masks, after which
each grid point costs a few big-int operations instead of a pass over the
corpus.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product
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
from bibclass.corpus import BibRecord, write_text_atomic
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
    return _report(db, tp, fp, fn, params)


def _report(db: str, tp: int, fp: int, fn: int, params: ParamPoint | None) -> EvalReport:
    """Report for raw counts; a zero denominator reads 1 (nothing claimed, nothing missed)."""
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


def _score_tables(
    records: Sequence[BibRecord],
    mode: str,
    model: CategoryModel | None,
    text_config: TextClassifierConfig | None,
    tokenizer_config: TokenizerConfig | None,
    graph: CitationGraph | None,
    cite_config: CitationClassifierConfig | None,
    workers: int,
) -> tuple[tuple[str, ...], dict | None, dict | None]:
    """Check ``mode`` and its inputs, then build the score tables it uses.

    Returns ``(databases, text_table, cite_table)``; a table the mode does
    not use is None.  Combined mode needs the model and the graph to name
    the same databases, since each record is scored against both.
    """
    if mode not in MODES:
        raise UsageError(f"unknown mode '{mode}'")
    uses_text = mode in ("text", "combined")
    uses_citations = mode in ("citation", "combined")
    if uses_text and (model is None or text_config is None or tokenizer_config is None):
        raise UsageError(f"mode '{mode}' needs a model, text config and tokenizer config")
    if uses_citations and (graph is None or cite_config is None):
        raise UsageError(f"mode '{mode}' needs a citation graph and config")
    if uses_text and uses_citations and set(model.databases) != set(graph.databases):
        raise UsageError(
            f"model databases {list(model.databases)} differ from "
            f"citation graph databases {list(graph.databases)}"
        )
    text_table = (
        text_score_table(records, model, text_config, tokenizer_config, workers)
        if uses_text
        else None
    )
    cite_table = citation_score_table(records, graph) if uses_citations else None
    databases = model.databases if uses_text else graph.databases
    return databases, text_table, cite_table


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
    databases, text_table, cite_table = _score_tables(
        records, mode, model, text_config, tokenizer_config, graph, cite_config, workers
    )
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


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _mask(flags: Iterable[bool]) -> int:
    """One int with bit ``i`` set iff ``flags[i]``, built in linear time."""
    return int(b"0" + bytes(flags)[::-1].translate(_BIT_DIGITS), 2)


def _pair_masks(
    rows: list[tuple[int, dict[str, float]]] | None,
    db: str,
    gates: list[int],
    thresholds: list[float],
) -> list[int]:
    """One mask per (gate, threshold) pair, gate-major.

    Bit ``i`` is set iff ``rows[i]`` has a count of at least the gate and a
    ``db`` value of at least the threshold.  With no rows (the mode does not
    use this classifier) every mask is empty.
    """
    if rows is None:
        return [0] * (len(gates) * len(thresholds))
    by_gate = [_mask([count >= gate for count, _ in rows]) for gate in gates]
    by_threshold = [_mask([values[db] >= t for _, values in rows]) for t in thresholds]
    return [g & t for g in by_gate for t in by_threshold]


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

    Each (min_words, score_threshold) pair becomes a mask of the records the
    text classifier assigns to ``db`` there, each (min_citations,
    ratio_threshold) pair one for the citation classifier, and an unused
    classifier's masks are empty.  A grid point is then ``u = T | C``, with
    TP the bits ``u`` shares with the gold mask.  Building the masks costs
    one comparison pass over the records per grid value and one AND per
    pair, O(pairs * n) at most; the points then cost O(points) big-int
    operations.
    """
    databases, text_table, cite_table = _score_tables(
        records, mode, model, text_config, tokenizer_config, graph, cite_config, workers
    )
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

    gold_mask = _mask([db in r.gold_labels for r in records])
    positives = gold_mask.bit_count()
    text_rows = [text_table[r.id] for r in records] if text_table is not None else None
    cite_rows = [cite_table[r.id] for r in records] if cite_table is not None else None
    text_pairs = zip(product(nts, sts), _pair_masks(text_rows, db, nts, sts))
    cite_pairs = list(zip(product(ncs, rcs), _pair_masks(cite_rows, db, ncs, rcs)))

    reports = []
    for (nt, st), text_mask in text_pairs:
        for (nc, rc), cite_mask in cite_pairs:
            union = text_mask | cite_mask
            tp = (union & gold_mask).bit_count()
            reports.append(
                _report(db, tp, union.bit_count() - tp, positives - tp, ParamPoint(nt, st, nc, rc))
            )
    return SweepGrid(mode=mode, db=db, reports=tuple(reports))


def emit_grid_csv(grid: SweepGrid, path: str | Path) -> None:
    """Write the sweep grid as deterministic plot-ready CSV.

    Real-valued columns are fixed to six decimal places so reruns on
    identical inputs are byte-identical.  The file is replaced whole, so a
    failed write leaves any earlier file as it was.
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
    write_text_atomic(path, "\n".join(lines) + "\n", "grid CSV")
