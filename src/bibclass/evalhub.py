"""One decision path for classify, evaluate and sweep: score, threshold, count.

One step (:func:`_scored`) checks the inputs of the classifiers the mode
uses (:func:`classifiers_of`, the one home of the mode rule; a config not
given means its type's defaults), then scores every record once per
classifier into columns in record order: filtered token counts and text
scores (:func:`text_score_table`), or citer counts and citation ratios
(:func:`citation_score_table`), one value list per database.  The text
table chains the tokenizer and filter over the records and hands the
token lists to :func:`~bibclass.bayes.score_columns`, which keeps per
record only its token count and per-database log sums and then scores,
and boosts triggered databases, in whole-column passes.  One C-level
rule, count at least the gate and value at least the threshold
(:func:`_at_least`), thresholds both.  :func:`classify_corpus` zips each
record's flags into its databases at the configs' point.  :func:`sweep`
counts the product of its :class:`SweepGrids`, and :func:`evaluate` a
one-point grid of the configs' point, on one path: each classifier gets
a list of (gate, threshold) pairs, each with a bitmask over the records
(bit ``i`` for ``records[i]``; every mask of an unused classifier is
empty), and each point counts the union of a text and a citation mask,
so either can rescue records the other cannot classify, against a gold mask.
Everything runs in the calling process; ``workers`` is accepted and ignored.
"""

from __future__ import annotations

from itertools import compress, product, repeat
from operator import ge
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from bibclass.bayes import (
    CategoryModel,
    TextClassifierConfig,
    record_text,
    score_columns,
)
from bibclass.citegraph import CitationClassifierConfig, CitationGraph
from bibclass.corpus import BibRecord, write_text_atomic
from bibclass.errors import DataError, UsageError
from bibclass.textpipe import TokenizerConfig, filter_tokens, tokenize
from bibclass.values import Value

MODES = ("text", "citation", "combined")


def classifiers_of(mode: str) -> tuple[bool, bool]:
    """Whether ``mode`` runs the text classifier and the citation classifier.

    The one home of the mode rule; an unknown mode is a :class:`UsageError`.
    """
    if mode not in MODES:
        raise UsageError(f"unknown mode '{mode}'; expected one of {', '.join(MODES)}")
    return mode != "citation", mode != "text"


class ParamPoint(NamedTuple):
    """One point of the (min_words, score_threshold, min_citations, ratio_threshold) grid."""

    min_words: int
    score_threshold: float
    min_citations: int
    ratio_threshold: float


class Assignment(NamedTuple):
    """Final database assignment for one record, split by classifier."""

    record_id: str
    via_text: frozenset[str]
    via_citation: frozenset[str]

    @property
    def databases(self) -> frozenset[str]:
        """Every database the record is assigned to, by either classifier."""
        return self.via_text | self.via_citation


class EvalReport(NamedTuple):
    """Precision/recall of one database's assignments at one parameter point."""

    db: str
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    params: ParamPoint


class SweepGrids(Value):
    """The four decision grids, each a nonempty sorted tuple of values its config accepts."""

    __slots__ = _fields = ("min_words", "score_thresholds", "min_citations", "ratio_thresholds")

    def __init__(
        self,
        min_words: Iterable[int],
        score_thresholds: Iterable[float],
        min_citations: Iterable[int],
        ratio_thresholds: Iterable[float],
    ):
        grids = map(tuple, (min_words, score_thresholds, min_citations, ratio_thresholds))
        owners = (TextClassifierConfig,) * 2 + (CitationClassifierConfig,) * 2
        for name, grid, owner, field in zip(self._fields, grids, owners, ParamPoint._fields):
            if not grid:
                raise UsageError(f"empty sweep grid for {name}")
            for value in grid:
                try:
                    owner(**{field: value})
                except ValueError as exc:
                    raise UsageError(f"value {value!r} in sweep grid for {name}: {exc}") from None
            setattr(self, name, tuple(sorted(set(grid))))


class SweepGrid(NamedTuple):
    """Sweep output: one report per parameter combination, in grid order."""

    mode: str
    db: str
    reports: tuple[EvalReport, ...]


# ---------------------------------------------------------------------------
# Score tables: computed once, thresholded many times.
# ---------------------------------------------------------------------------

ScoreTable = tuple[list[int], dict[str, list[float]]]


def text_score_table(
    records: Sequence[BibRecord],
    model: CategoryModel,
    text_config: TextClassifierConfig,
    tokenizer_config: TokenizerConfig,
) -> ScoreTable:
    """Token counts and boosted per-database scores, one list each, in record order.

    Returns ``(counts, {db: scores})`` over ``model.databases``.  The table
    depends only on the model and trigger configuration, not on the
    threshold parameters, so one table serves a whole sweep.  The records'
    filtered tokens are scored by :func:`~bibclass.bayes.score_columns`
    with ``text_config``'s trigger boosts, column by column rather than
    record by record; a trigger database the model lacks is ignored.
    """
    token_lists = map(
        filter_tokens, map(tokenize, map(record_text, records)), repeat(tokenizer_config)
    )
    counts, columns = score_columns(model, token_lists, text_config)
    return counts, dict(zip(model.databases, columns))


def citation_score_table(records: Sequence[BibRecord], graph: CitationGraph) -> ScoreTable:
    """Citer counts and per-database citation ratios, one list each, in record order.

    Returns ``(counts, {db: ratios})`` over ``graph.databases``.  A ratio
    is the share of the record's citers that are members of the database,
    each citer counted once.  A citer with no database membership counts
    in the total but never in a ratio's numerator; a citer in several
    databases counts toward each of them, so more than one database can
    reach the threshold.  An uncited record has count 0 and every ratio 0.0.
    """
    citing = [graph.citers.get(record.id, ()) for record in records]
    columns = {}
    for db in graph.databases:
        members = {c for c, dbs in graph.memberships.items() if db in dbs}
        column = columns[db] = [0.0] * len(records)
        for i, group in enumerate(citing):
            if group:
                column[i] = len(members.intersection(group)) / len(group)
    return list(map(len, citing)), columns


def _scored(
    records: Sequence[BibRecord],
    mode: str,
    model: CategoryModel | None,
    text_config: TextClassifierConfig | None,
    tokenizer_config: TokenizerConfig | None,
    graph: CitationGraph | None,
    cite_config: CitationClassifierConfig | None,
    db: str | None = None,
) -> tuple[tuple[str, ...], ScoreTable | None, ScoreTable | None, ParamPoint]:
    """Check ``mode``, its inputs and ``db``, then score the records.

    Returns ``(databases, text_table, cite_table, point)``: the databases
    the mode's classifiers assign, a table for each classifier it uses
    (None for the other), and the configs' decision point, a missing
    config meaning its type's defaults.  Combined mode needs the model and
    the graph to name the same databases, since each record is scored
    against both.  A trigger database the model lacks, and a ``db``
    outside the databases, are refused before any record is scored.
    """
    uses_text, uses_citations = classifiers_of(mode)
    text_config = TextClassifierConfig() if text_config is None else text_config
    cite_config = CitationClassifierConfig() if cite_config is None else cite_config
    if uses_text and (model is None or tokenizer_config is None):
        raise UsageError(f"mode '{mode}' needs a model and tokenizer config")
    if uses_citations and graph is None:
        raise UsageError(f"mode '{mode}' needs a citation graph")
    if uses_text and uses_citations and set(model.databases) != set(graph.databases):
        raise UsageError(
            f"model databases {list(model.databases)} differ from "
            f"citation graph databases {list(graph.databases)}"
        )
    databases = model.databases if uses_text else graph.databases
    for trigger_db in text_config.triggers if uses_text else ():
        if trigger_db not in databases:
            raise UsageError(f"trigger database '{trigger_db}' is not one of {list(databases)}")
    if db is not None and db not in databases:
        raise DataError(f"database '{db}' is not in the configured set {list(databases)}")
    return (
        databases,
        text_score_table(records, model, text_config, tokenizer_config) if uses_text else None,
        citation_score_table(records, graph) if uses_citations else None,
        ParamPoint(
            text_config.min_words,
            text_config.score_threshold,
            cite_config.min_citations,
            cite_config.ratio_threshold,
        ),
    )


def _at_least(column: list, bound: float) -> Iterator[bool]:
    """Whether each entry reaches ``bound``: the one rule for every gate and threshold."""
    return map(ge, column, repeat(bound))


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _mask(flags: Iterable[bool]) -> int:
    """One int with bit ``i`` set iff ``flags[i]``, built in linear time."""
    return int(b"0" + bytes(flags)[::-1].translate(_BIT_DIGITS), 2)


def _pairs(
    table: ScoreTable | None, db: str, gates: Iterable[int], thresholds: Iterable[float]
) -> list[tuple[tuple[int, float], int]]:
    """Each (gate, threshold) pair in the order of the product, with its mask.

    Bit ``i`` of a pair's mask is set iff record ``i`` of ``table`` passes
    :func:`_at_least` for the gate and for its ``db`` value.
    """
    # No table (the mode does not use this classifier) reads as no records:
    # every pair is there, with an empty mask.
    counts, values = table or ([], {db: []})
    by_gate = [(g, _mask(_at_least(counts, g))) for g in gates]
    by_threshold = [(t, _mask(_at_least(values[db], t))) for t in thresholds]
    return [((g, t), gm & tm) for (g, gm), (t, tm) in product(by_gate, by_threshold)]


def _assigned_sets(
    table: ScoreTable | None, databases: tuple[str, ...], gate: int, threshold: float, n: int
) -> list[frozenset[str]]:
    """Each of ``n`` records' databases at one (gate, threshold) pair, by :func:`_at_least`.

    A record's pattern is its gate flag followed by one threshold flag per
    database.  Records share few distinct patterns, so each pattern's set
    is built once.  With no table every set is empty.
    """
    if table is None:
        return [frozenset()] * n
    counts, values = table
    flags = [_at_least(values[db], threshold) for db in databases]
    patterns = list(zip(_at_least(counts, gate), *flags))
    sets = {p: frozenset(compress(databases, p[1:]) if p[0] else ()) for p in set(patterns)}
    return [sets[p] for p in patterns]


def _grid_reports(
    records: Sequence[BibRecord],
    db: str,
    text_table: ScoreTable | None,
    cite_table: ScoreTable | None,
    grids: SweepGrids,
) -> list[EvalReport]:
    """Count ``db`` at every point of ``grids``' product, in ascending order.

    Each text pair's mask holds the records the text classifier assigns to
    ``db`` there, each citation pair's one for the citation classifier.  A
    point is ``u = T | C``, with TP the bits ``u`` shares with the gold mask
    of the records labeled ``db``.  A zero denominator reads 1: precision
    with nothing assigned, recall with no gold positives.
    """
    text_pairs = _pairs(text_table, db, grids.min_words, grids.score_thresholds)
    cite_pairs = _pairs(cite_table, db, grids.min_citations, grids.ratio_thresholds)
    gold = _mask([db in r.gold_labels for r in records])
    positives = gold.bit_count()
    reports = []
    for (text_pair, text_mask), (cite_pair, cite_mask) in product(text_pairs, cite_pairs):
        union = text_mask | cite_mask
        tp = (union & gold).bit_count()
        fp = union.bit_count() - tp
        fn = positives - tp
        reports.append(
            EvalReport(
                db=db,
                tp=tp,
                fp=fp,
                fn=fn,
                precision=tp / (tp + fp) if tp + fp else 1.0,
                recall=tp / (tp + fn) if tp + fn else 1.0,
                params=ParamPoint(*text_pair, *cite_pair),
            )
        )
    return reports


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
    """Assign every record in input order, by ``mode``'s classifiers at the configs' point."""
    databases, text_table, cite_table, (nt, st, nc, rc) = _scored(
        records, mode, model, text_config, tokenizer_config, graph, cite_config
    )
    n = len(records)
    via_text = _assigned_sets(text_table, databases, nt, st, n)
    via_citation = _assigned_sets(cite_table, databases, nc, rc, n)
    return list(map(Assignment, [r.id for r in records], via_text, via_citation))


def evaluate(
    records: Sequence[BibRecord],
    *,
    mode: str = "combined",
    model: CategoryModel | None = None,
    text_config: TextClassifierConfig | None = None,
    tokenizer_config: TokenizerConfig | None = None,
    graph: CitationGraph | None = None,
    cite_config: CitationClassifierConfig | None = None,
    workers: int = 1,
) -> list[EvalReport]:
    """Precision and recall of every database at the configs' point, in database order.

    Each report's ``params`` is that point.  Records count against their own
    labels, and each report is counted on :func:`sweep`'s path, over a one-point grid.
    """
    databases, text_table, cite_table, point = _scored(
        records, mode, model, text_config, tokenizer_config, graph, cite_config
    )
    grids = SweepGrids(*zip(point))
    reports = []
    for db in databases:
        reports += _grid_reports(records, db, text_table, cite_table, grids)
    return reports


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

    The rows are the product of the four grids, each sorted and without
    repeats, in ascending lexicographic order of the parameter tuple, in
    every mode.  A classifier the mode does not use assigns nothing at any
    of its points, so its grids only repeat the other's counts.  The
    configs' decision values are not read.

    The records are scored once.  Building the masks then costs one
    comparison pass over the records per grid value and one AND per pair,
    O(pairs * n) at most; the points cost O(points) big-int operations.
    """
    _, text_table, cite_table, _ = _scored(
        records, mode, model, text_config, tokenizer_config, graph, cite_config, db
    )
    return SweepGrid(mode, db, tuple(_grid_reports(records, db, text_table, cite_table, grids)))


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
        lines.append(
            f"{grid.mode},{grid.db},{p.min_words},{p.score_threshold:.6f},"
            f"{p.min_citations},{p.ratio_threshold:.6f},"
            f"{rep.tp},{rep.fp},{rep.fn},{rep.precision:.6f},{rep.recall:.6f}"
        )
    write_text_atomic(path, "\n".join(lines) + "\n", "grid CSV")
