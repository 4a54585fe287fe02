"""Ingest bibliographic records, citation edges and memberships; persist models.

File formats:

* records: one JSON object per line with keys ``id`` (no tab or line
  boundary, no whitespace at either end), ``title``, ``year``, ``labels``
  (a list of database names) and optional ``abstract`` and ``journal``.
* citations: ``citing_id<TAB>cited_id`` edge list.
* memberships: ``record_id<TAB>db1,db2,...`` naming the databases a citing
  paper already belongs to.
* model: versioned text format, header line ``bibclass-model v1``.

A database name must pass :func:`_is_label`.  The citations and memberships
readers strip every cell and skip blank and ``#`` lines (``read_entries``).

Every file is read through :func:`~bibclass.errors.read_lines`: UTF-8
with an optional byte-order mark, lines ending only at ``\n``, ``\r\n``
or ``\r``.  Loaded corpora, graphs and models are immutable afterwards.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple

from bibclass.bayes import CategoryModel
from bibclass.citegraph import CitationGraph
from bibclass.errors import DataError, read_entries, read_lines, warn
from bibclass.textpipe import is_token
from bibclass.values import Value

MODEL_FORMAT_VERSION = "v1"
_MODEL_HEADER_PREFIX = "bibclass-model "
_DECODER = json.JSONDecoder()


class BibRecord(NamedTuple):
    """One bibliographic item with its human-assigned database labels."""

    id: str
    title: str
    year: int
    abstract: str | None = None
    journal: str | None = None
    gold_labels: frozenset[str] = frozenset()


class Corpus(Value):
    """Validated records in input order plus ingest bookkeeping."""

    __slots__ = _fields = ("records", "skipped")

    def __init__(self, records: list[BibRecord], skipped: int = 0):
        self.records = records
        self.skipped = skipped

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[BibRecord]:
        return iter(self.records)

    def ids(self) -> set[str]:
        return {r.id for r in self.records}


class CitationLoadStats(NamedTuple):
    """What the citation loader kept and why it dropped the rest."""

    edges_kept: int = 0
    duplicates: int = 0
    self_citations: int = 0
    unknown_citers: int = 0


def load_records(path: str | Path) -> Corpus:
    """Read a line-delimited records file.

    Malformed lines are skipped with a warning and counted on the returned
    corpus, so len(corpus) + corpus.skipped equals the number of input
    lines.  A duplicate record id aborts the load.
    """
    records: list[BibRecord] = []
    seen: set[str] = set()
    skipped = 0
    label_sets: dict[tuple, frozenset[str] | None] = {}
    for lineno, line in read_lines(path, "records file"):
        record = _parse_record_line(line, label_sets)
        if record is None:
            skipped += 1
            warn(__name__, "%s:%d: skipping malformed record line", path, lineno)
            continue
        if record.id in seen:
            raise DataError(f"duplicate record id '{record.id}' at {path}:{lineno}")
        seen.add(record.id)
        records.append(record)
    if skipped:
        warn(__name__, "%s: skipped %d malformed line(s)", path, skipped)
    return Corpus(records=records, skipped=skipped)


def _parse_record_line(
    line: str, label_sets: dict[tuple, frozenset[str] | None]
) -> BibRecord | None:
    """The record a line holds, or None for a malformed line.

    ``label_sets`` maps each label list already seen, as a tuple, to its
    frozen set, or to None where the list is malformed; records share
    those sets, and each distinct list is checked once.
    """
    line = line.strip()
    if not line:
        return None
    # raw_decode on the stripped line accepts exactly what json.loads does:
    # no JSON whitespace is left at either end, and a leading byte-order
    # mark fails both.  Hostile text raises RecursionError (deep nesting) or
    # ValueError (an integer over the interpreter's digit limit).
    try:
        obj, end = _DECODER.raw_decode(line)
    except (ValueError, RecursionError):
        return None
    if end != len(line) or not isinstance(obj, dict):
        return None
    rid = obj.get("id")
    title = obj.get("title")
    year = obj.get("year")
    if not _is_cell(rid):
        return None  # a tab or line boundary would split the id's row in assignments.tsv
    if rid != rid.strip():
        return None  # the citations and memberships readers strip ids, so none could name it
    if not isinstance(title, str) or not title.strip():
        return None
    if not isinstance(year, int) or isinstance(year, bool):
        return None
    abstract = obj.get("abstract")
    journal = obj.get("journal")
    labels = obj.get("labels")
    if abstract is not None and not isinstance(abstract, str):
        return None
    if journal is not None and not isinstance(journal, str):
        return None
    if not isinstance(labels, list):
        return None
    key = tuple(labels)
    try:
        gold = label_sets[key]
    except KeyError:
        gold = label_sets[key] = _label_set(labels)
    except TypeError:
        return None  # an unhashable item is a list or object, not a label
    if gold is None or not _encodable("".join((rid, title, abstract or "", journal or ""))):
        return None
    return BibRecord(rid, title, year, abstract, journal, gold)


def _label_set(labels: list) -> frozenset[str] | None:
    """A record's label list as a set, or None if an item is not an encodable label."""
    if all(map(_is_label, labels)) and _encodable("".join(labels)):
        return frozenset(labels)
    return None


def _encodable(text: str) -> bool:
    """False for text with a lone surrogate from a JSON escape: no output file could hold it."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _is_cell(value: object) -> bool:
    """True for a nonempty string that holds no tab and no line boundary."""
    return isinstance(value, str) and "\t" not in value and value.splitlines() == [value]


def _is_label(value: object) -> bool:
    """True for a database name: a cell with no comma and no whitespace at either end.

    A name is a cell of the model and assignments files, and an item of a
    memberships column, whose reader splits at commas and strips each item.
    """
    return _is_cell(value) and "," not in value and value == value.strip()


def load_memberships(path: str | Path) -> dict[str, frozenset[str]]:
    """Read the ``record_id<TAB>db1,db2,...`` membership file.

    An id listed on several lines gets the union of its memberships; an
    empty database column is allowed and records an empty membership, but
    a database name that is not a label makes the line malformed.
    """
    memberships: dict[str, frozenset[str]] = {}
    columns: dict[str, frozenset[str] | None] = {}
    for lineno, line in read_entries(path, "membership file"):
        rid, tab, column = line.partition("\t")
        rid = rid.strip()
        dbs = columns.get(column)
        if dbs is None:
            dbs = columns[column] = _database_column(column)
        if not tab or not rid or dbs is None:
            raise DataError(f"malformed membership line at {path}:{lineno}")
        earlier = memberships.get(rid)
        memberships[rid] = dbs if earlier is None else earlier | dbs
    return memberships


def _database_column(column: str) -> frozenset[str] | None:
    """The databases a memberships column names, or None if it is malformed.

    The column is split at commas and each item stripped; empty items are
    dropped, and every other item must be a label.  A tab makes the line a
    row of more than two cells.
    """
    if "\t" in column:
        return None
    dbs = {d.strip() for d in column.split(",")}
    dbs.discard("")
    return frozenset(dbs) if all(map(_is_label, dbs)) else None


def load_citations(
    path: str | Path,
    known_ids: set[str],
    memberships: Mapping[str, frozenset[str]] | None = None,
    databases: tuple[str, ...] = (),
) -> tuple[CitationGraph, CitationLoadStats]:
    """Read the citation edge list into a graph keyed by cited id.

    Each citing paper counts once per cited record: duplicate edges are
    dropped, as are self-citations and edges whose citing id is neither a
    corpus record nor a membership-file entry.  Drop counts are returned
    alongside the graph.
    """
    citers: defaultdict[str, set[str]] = defaultdict(set)
    kept = duplicates = self_citations = unknown = 0
    for lineno, line in read_entries(path, "citations file"):
        # An entry's stripped line starts and ends with a non-blank
        # character, so with one tab between them neither cell is empty.
        citing, tab, cited = line.strip().partition("\t")
        if not tab or "\t" in cited:
            raise DataError(f"malformed citation edge at {path}:{lineno}")
        citing, cited = citing.strip(), cited.strip()
        if citing == cited:
            self_citations += 1
            warn(__name__, "%s:%d: dropping self-citation '%s'", path, lineno, citing)
            continue
        if citing not in known_ids:
            unknown += 1
            continue
        cited_by = citers[cited]
        if citing in cited_by:
            duplicates += 1
            continue
        cited_by.add(citing)
        kept += 1
    graph = CitationGraph(citers=citers, memberships=memberships or {}, databases=databases)
    stats = CitationLoadStats(
        edges_kept=kept,
        duplicates=duplicates,
        self_citations=self_citations,
        unknown_citers=unknown,
    )
    return graph, stats


def write_text_atomic(path: str | Path, text: str, what: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over ``path``.

    The temporary file's name is as long for every target, so a name as long
    as the file system allows can be written; the process id and a hash of
    the target's name keep it unique.  A failed write removes the temporary
    file, if it was made, and leaves ``path`` as it was; the failure is a
    :class:`DataError` naming ``what`` was written.  So is a path that
    names no file, one whose last part is empty or ``.`` (``""``, ``/``,
    ``x/``, ``x/.``), and nothing is written for it: :class:`~pathlib.Path`
    would read ``x/`` as the file ``x``.
    """
    given = os.fspath(path)
    if os.path.basename(given) in ("", "."):
        raise DataError(f"cannot write {what} {given or '.'}: the path names no file")
    path = Path(path)
    tmp = path.with_name(f".bibclass.{os.getpid()}.{hash(path.name) % 2**64:016x}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {what} {path}: {exc}") from exc
    finally:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass  # tmp was never made: its directory is missing or not a directory


def save_model(model: CategoryModel, path: str | Path) -> None:
    """Write a model in the versioned text format.

    Terms are sorted within each database block so identical models always
    produce identical bytes.  The file is replaced whole, so a failed write
    leaves any earlier model as it was.
    """
    lines = [_MODEL_HEADER_PREFIX + MODEL_FORMAT_VERSION]
    lines.append(f"alpha\t{model.smoothing_alpha!r}")
    for db in model.databases:
        lines.append(f"db\t{db}\t{model.doc_counts[db]}\t{model.total_tokens[db]}")
        for term in sorted(model.term_counts[db]):
            lines.append(f"t\t{term}\t{model.term_counts[db][term]}")
    write_text_atomic(path, "\n".join(lines) + "\n", "model file")


def load_model(path: str | Path) -> CategoryModel:
    """Read a model written by :func:`save_model`; round-trips are exact.

    A line that :func:`save_model` could not have written is corrupt and
    named: a second ``alpha`` line or one with padding, ``_`` or non-ASCII
    text, a second block for one database or a term repeated within one, a
    count that is not plain decimal digits (:func:`_model_count`) and a
    zero term count.  Then, block by block, a ``tokens`` column that is not
    the sum of the block's term counts makes the model corrupt as a whole;
    so does whatever :class:`~bibclass.bayes.CategoryModel` refuses, such
    as a non-finite alpha or a model without training documents or terms.
    """
    lines = read_lines(path, "model file")
    _, header = next(lines, (1, ""))
    if not header.startswith(_MODEL_HEADER_PREFIX):
        raise DataError(f"corrupt model file at {path}:1: missing header")
    version = header[len(_MODEL_HEADER_PREFIX) :].strip()
    if version != MODEL_FORMAT_VERSION:
        raise DataError(
            f"model format version mismatch in {path}: "
            f"file has '{version}', this build reads '{MODEL_FORMAT_VERSION}'"
        )
    alpha: float | None = None
    databases: list[str] = []
    term_counts: dict[str, dict[str, int]] = {}
    total_tokens: dict[str, int] = {}
    doc_counts: dict[str, int] = {}
    current: str | None = None
    for lineno, line in lines:
        parts = line.split("\t")
        tag = parts[0]
        try:
            if tag == "alpha" and len(parts) == 2:
                if alpha is not None:
                    raise ValueError("second alpha line")
                text = parts[1]
                if not text.isascii() or "_" in text or text != text.strip():
                    raise ValueError(f"alpha {text!r} is not a plain real")
                alpha = float(text)
            elif tag == "db" and len(parts) == 4:
                current = parts[1]
                if not _is_label(current):
                    raise ValueError(f"bad database name {current!r}")
                if current in term_counts:
                    raise ValueError("duplicate database block")
                databases.append(current)
                term_counts[current] = {}
                totals = f"totals for database '{current}'"
                doc_counts[current] = _model_count(parts[2], totals)
                total_tokens[current] = _model_count(parts[3], totals)
                term_count = f"term count in database '{current}'"
            elif tag == "t" and len(parts) == 3:
                if current is None:
                    raise ValueError("term line before any database block")
                term, counts = parts[1], term_counts[current]
                if not is_token(term):
                    raise ValueError(f"term {term!r} is not a token")
                if term in counts:
                    raise ValueError(f"term {term!r} repeated in database '{current}'")
                count = _model_count(parts[2], term_count)
                if not count:
                    raise ValueError(f"term {term!r} has a zero count")
                counts[term] = count
            else:
                raise ValueError(f"unrecognized line tag '{tag}'")
        except ValueError as exc:
            raise DataError(f"corrupt model file at {path}:{lineno}: {exc}") from exc
    if alpha is None:
        raise DataError(f"corrupt model file at {path}: missing alpha line")
    try:
        for db in databases:
            if sum(term_counts[db].values()) != total_tokens[db]:
                raise ValueError(f"total_tokens['{db}'] does not match its term counts")
        return CategoryModel(
            databases=tuple(databases),
            term_counts=term_counts,
            doc_counts=doc_counts,
            smoothing_alpha=alpha,
        )
    except (ValueError, OverflowError) as exc:
        raise DataError(f"corrupt model file {path}: {exc}") from exc


def _model_count(text: str, what: str) -> int:
    """A model count written as :func:`save_model` writes one: ASCII digits, no leading zero.

    A sign, padding, ``_`` or a leading zero is refused; ``what`` names the
    count in the message for a negative one.
    """
    if text.isascii() and text.isdigit() and (text == "0" or text[0] != "0"):
        return int(text)
    if text[:1] == "-" and text[1:].isascii() and text[1:].isdigit():
        raise ValueError(f"negative {what}")
    raise ValueError(f"count {text!r} is not plain decimal digits")
