"""Independent reference implementations the suite checks the library against.

Nothing here imports from bibclass, and the computational routes differ on
purpose: probabilities are multiplied directly instead of summing logs,
citation counts are re-derived from the raw edge list, and precision and
recall come from plain counting loops, and stop phrases are matched by
trying every phrase at every position rather than through an index.  The
exact text-score reference sums logs like the library, so that its floats
can be compared with ``==``, but recomputes every token's smoothed
frequency from the model's raw counts instead of reading precomputed rows.
Sweeps assign every record afresh at every grid point instead of
combining per-threshold bitmasks, from one ``(count, {db: value})`` row
per record, into which :func:`table_rows` turns the library's columns.  The tokenizer reference folds every
text through NFKD and matches compounds and plain words by alternation.
The file-reader references apply the README's line rules one line at a
time, with no memo of label lists or membership columns, and find line
boundaries and lone surrogates by listing their code points.  The model
reference matches each line against the README's format with regular
expressions.
"""

import json
import math
import re
from collections import Counter
from itertools import product
from unicodedata import normalize

_WORD_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)+|[a-z0-9]+")


def tokenize_reference(text):
    """Split text into lowercase ASCII tokens, preserving order.

    Hyphenated compounds contribute the joined form followed by the parts,
    so "X-ray" yields ["xray", "x", "ray"].
    """
    folded = normalize("NFKD", text).encode("ascii", "ignore").decode("ascii").lower()
    tokens = []
    for match in _WORD_RE.finditer(folded):
        word = match.group()
        if "-" in word:
            tokens.append(word.replace("-", ""))
            tokens.extend(word.split("-"))
        else:
            tokens.append(word)
    return tokens


def drop_phrases_linear(tokens, stop_phrases):
    """Remove stop phrases by trying every phrase at every position.

    Phrases are tried longest first, then lexicographically, so the longest
    phrase wins where several match; passes repeat until one removes nothing.
    """
    phrases = sorted(
        (tuple(p.split()) for p in stop_phrases if p.split()), key=lambda p: (-len(p), p)
    )
    tokens = list(tokens)
    if not phrases:
        return tokens
    changed = True
    while changed:
        changed = False
        out = []
        i = 0
        while i < len(tokens):
            for phrase in phrases:
                if tuple(tokens[i : i + len(phrase)]) == phrase:
                    i += len(phrase)
                    changed = True
                    break
            else:
                out.append(tokens[i])
                i += 1
        tokens = out
    return tokens


def filter_tokens_reference(tokens, stop_words, stop_phrases):
    """Phrase pass, per-token filters (digits, stop words), phrase pass."""
    kept = [
        t
        for t in drop_phrases_linear(tokens, stop_phrases)
        if not t.isdigit() and t not in stop_words
    ]
    return drop_phrases_linear(kept, stop_phrases)


def text_scores_reference(model, tokens):
    """Naive Bayes scores of a filtered token stream, from the model's raw counts.

    Each token's smoothed frequency in each database is computed afresh and
    its log summed in token order; the vocabulary and each database's token
    total are re-derived from the counts.
    """
    databases = model.databases
    total_docs = sum(model.doc_counts[db] for db in databases)
    vocab = {t for db in databases for t, c in model.term_counts[db].items() if c}
    n = len(tokens)
    alpha = model.smoothing_alpha
    log_likes = []
    for db in databases:
        prior = model.doc_counts[db] / total_docs
        if prior == 0.0:
            log_likes.append(float("-inf"))
            continue
        ll = math.log(prior)
        if n:
            counts = model.term_counts[db]
            denominator = sum(counts.values()) + alpha * len(vocab)
            ll += sum(math.log((counts.get(t, 0) + alpha) / denominator) for t in tokens) / n
        log_likes.append(ll)
    top = max(log_likes)
    exps = [math.exp(v - top) for v in log_likes]
    total = sum(exps)
    return {db: e / total for db, e in zip(databases, exps)}


def boost_reference(scores, tokens, triggers, boost):
    """A boosted copy of ``scores``.

    Each database whose trigger terms meet ``tokens`` gains ``boost``,
    capped at 1; a trigger database ``scores`` lacks is ignored.
    """
    boosted = dict(scores)
    for db, terms in triggers.items():
        if db in boosted and set(terms) & set(tokens):
            boosted[db] = min(1.0, boosted[db] + boost)
    return boosted


def text_table_reference(records, model, triggers, boost, stop_words, stop_phrases):
    """Token count and boosted scores per record, in record order, through the references only.

    Tokens come from :func:`tokenize_reference` and
    :func:`filter_tokens_reference`, scores from :func:`text_scores_reference`
    and boosts from :func:`boost_reference`.
    """
    table = []
    for r in records:
        text = r.title + " " + (r.abstract or "")
        tokens = filter_tokens_reference(tokenize_reference(text), stop_words, stop_phrases)
        scores = boost_reference(text_scores_reference(model, tokens), tokens, triggers, boost)
        table.append((len(tokens), scores))
    return table


def nb_stats(train, databases):
    """Re-count a (token_list, label_collection) training list from scratch."""
    counts = {db: Counter() for db in databases}
    docs = {db: 0 for db in databases}
    for tokens, labels in train:
        for db in labels:
            counts[db].update(tokens)
            docs[db] += 1
    vocab = set()
    for db in databases:
        vocab.update(counts[db])
    return {
        "databases": tuple(databases),
        "counts": counts,
        "docs": docs,
        "totals": {db: sum(counts[db].values()) for db in databases},
        "v": len(vocab),
        "total_docs": sum(docs[db] for db in databases),
    }


def nb_scores_from(stats, query_tokens, alpha=1.0):
    """Brute-force Naive Bayes over precomputed stats, via direct products.

    The likelihood of a document is the geometric mean of its per-token
    smoothed frequencies; scores are normalized to sum to 1.
    """
    n = len(query_tokens)
    raw = {}
    for db in stats["databases"]:
        prior = stats["docs"][db] / stats["total_docs"]
        denominator = stats["totals"][db] + alpha * stats["v"]
        product = 1.0
        for t in query_tokens:
            product *= (stats["counts"][db][t] + alpha) / denominator
        raw[db] = prior * product ** (1.0 / n) if n else prior
    norm = sum(raw[db] for db in stats["databases"])
    return {db: raw[db] / norm for db in stats["databases"]}


def nb_scores(train, databases, query_tokens, alpha=1.0):
    """One-shot convenience wrapper around nb_stats + nb_scores_from."""
    return nb_scores_from(nb_stats(train, databases), query_tokens, alpha)


def citation_assignments(
    edges, memberships, known_citers, databases, record_id, min_citations, ratio_threshold
):
    """Classify one record by exhaustively recounting the raw edge list.

    ``edges`` is the full (citing, cited) pair list, duplicates and
    self-citations included; the set comprehension deduplicates, and
    citers outside ``known_citers`` are ignored just as loading does.
    """
    citing = {
        a for a, b in edges if b == record_id and a != b and a in known_citers
    }
    if len(citing) < min_citations:
        return set()
    assigned = set()
    for db in databases:
        hits = sum(1 for c in citing if db in memberships.get(c, ()))
        if hits / len(citing) >= ratio_threshold:
            assigned.add(db)
    return assigned


def precision_recall_counts(assigned, gold, db):
    """Direct TP/FP/FN counting for one database.

    ``assigned`` and ``gold`` both map record_id to a database collection
    over the same ids.  Returns (tp, fp, fn, precision, recall) with the
    zero-denominator conventions P=1 and R=1.
    """
    tp = fp = fn = 0
    for rid in assigned:
        got = db in assigned[rid]
        want = db in gold[rid]
        if got and want:
            tp += 1
        elif got:
            fp += 1
        elif want:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return tp, fp, fn, precision, recall


def table_rows(table):
    """A library score table, ``(counts, {db: values})``, as the rows the references read.

    Each row is ``(count, {db: value})``, in record order; every column
    must be as long as the counts.
    """
    counts, columns = table
    assert all(len(column) == len(counts) for column in columns.values())
    return [(n, {db: column[i] for db, column in columns.items()}) for i, n in enumerate(counts)]


def assign_reference(index, mode, databases, text_table, cite_table, point):
    """The ``(via_text, via_citation)`` database sets of record ``index`` at one point.

    ``point`` is ``(N_t, S_t, N_c, R_c)``; each classifier assigns a
    database when the record's count reaches the gate and its value for
    that database reaches the threshold.  A classifier ``mode`` does not use
    assigns nothing.
    """
    nt, st, nc, rc = point
    via_text, via_citation = set(), set()
    if mode in ("text", "combined"):
        n, scores = text_table[index]
        if n >= nt:
            via_text = {d for d in databases if scores[d] >= st}
    if mode in ("citation", "combined"):
        total, ratios = cite_table[index]
        if total >= nc:
            via_citation = {d for d in databases if ratios[d] >= rc}
    return via_text, via_citation


def sweep_reference(records, mode, db, databases, text_table, cite_table, grids):
    """Sweep one database by assigning every record at every grid point.

    ``text_table`` and ``cite_table`` hold one ``(count, {db: value})`` row
    per record, in record order (token count and text score; citer count
    and citation ratio).
    ``grids`` holds the four value lists (N_t, S_t, N_c, R_c), swept as
    their full product in every mode.  Returns ``(tp, fp, fn, precision,
    recall, point)`` per point in ascending point order.
    """
    nts, sts, ncs, rcs = (sorted(set(values)) for values in grids)
    gold = {i: set(r.gold_labels) for i, r in enumerate(records)}
    rows = []
    for point in product(nts, sts, ncs, rcs):
        assigned = {
            i: set().union(*assign_reference(i, mode, databases, text_table, cite_table, point))
            for i in range(len(records))
        }
        rows.append((*precision_recall_counts(assigned, gold, db), point))
    return rows


# ---------------------------------------------------------------------------
# Line rules of the records, memberships and citations files (README, "Input
# files").  Each reference takes the file's lines, numbered from 1.
# ---------------------------------------------------------------------------

# The characters str.splitlines splits at, listed.
LINE_BOUNDARIES = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _has_surrogate(text):
    return any(0xD800 <= ord(ch) <= 0xDFFF for ch in text)


def is_label_reference(name):
    """A database name: a nonempty string with no tab, comma or line boundary, unpadded."""
    return (
        isinstance(name, str)
        and name != ""
        and name == name.strip()
        and not any(ch in name for ch in "\t," + LINE_BOUNDARIES)
    )


def record_reference(line):
    """The ``(id, title, year, abstract, journal, labels)`` a records line holds, or None.

    The stripped line must be one JSON object.  The id is a nonempty
    unpadded string with no tab or line boundary, the title a string that
    is not blank, the year an integer and not a boolean, the abstract and
    journal absent, null or strings, the labels a list of labels; no string
    may hold a lone surrogate.
    """
    try:
        obj = json.loads(line.strip())
    except (ValueError, RecursionError):
        return None
    if not isinstance(obj, dict):
        return None
    rid, title, year = obj.get("id"), obj.get("title"), obj.get("year")
    abstract, journal, labels = obj.get("abstract"), obj.get("journal"), obj.get("labels")
    if not isinstance(rid, str) or rid == "" or rid != rid.strip():
        return None
    if any(ch in rid for ch in "\t" + LINE_BOUNDARIES):
        return None
    if not isinstance(title, str) or title.strip() == "":
        return None
    if type(year) is not int:
        return None
    if not all(v is None or isinstance(v, str) for v in (abstract, journal)):
        return None
    if not isinstance(labels, list) or not all(is_label_reference(x) for x in labels):
        return None
    if any(_has_surrogate(t) for t in [rid, title, abstract or "", journal or "", *labels]):
        return None
    return rid, title, year, abstract, journal, frozenset(labels)


def records_reference(lines):
    """Read a records file: ``(records, malformed line numbers, duplicate)``.

    A byte-order mark that opens the file is not part of line 1.
    ``duplicate`` is None, or ``(line number, id)`` of the first record
    whose id an earlier record holds, where reading stops.
    """
    if lines and lines[0].startswith("\ufeff"):
        lines = [lines[0][1:], *lines[1:]]
    records, malformed, ids = [], [], set()
    for lineno, line in enumerate(lines, start=1):
        record = record_reference(line)
        if record is None:
            malformed.append(lineno)
        elif record[0] in ids:
            return records, malformed, (lineno, record[0])
        else:
            ids.add(record[0])
            records.append(record)
    return records, malformed, None


def _entry_lines(lines):
    """The numbered lines of a hand-edited file that are neither blank nor ``#`` comments."""
    for lineno, line in enumerate(lines, start=1):
        if line.strip() and line.strip()[0] != "#":
            yield lineno, line


def memberships_reference(lines):
    """Read a memberships file: ``(id -> databases, line of the first malformed entry)``.

    An entry is exactly two tab-separated cells; the stripped id is not
    empty, and each comma-separated name of the second cell, stripped, is
    empty (and skipped) or a label.  Repeated ids union their names.  The
    line number is None for a well-formed file.
    """
    memberships = {}
    for lineno, line in _entry_lines(lines):
        cells = line.split("\t")
        if len(cells) != 2 or cells[0].strip() == "":
            return memberships, lineno
        names = [n.strip() for n in cells[1].split(",") if n.strip()]
        if not all(is_label_reference(n) for n in names):
            return memberships, lineno
        rid = cells[0].strip()
        memberships[rid] = memberships.get(rid, frozenset()).union(names)
    return memberships, None


def citations_reference(lines, known_ids, memberships):
    """Read a citations file against the ids a citer may have.

    Returns ``(citers, citer memberships, counts, self-citation lines,
    line of the first malformed entry)``.  An entry, stripped, is exactly
    two tab-separated cells, each nonempty once stripped.  In order, an
    edge is dropped as a self-citation, as one whose citer is not in
    ``known_ids``, or as a duplicate of a kept edge; the rest are kept.
    ``citers`` maps each cited id to its citers, and the citer memberships
    give every citer its memberships or an empty set.
    """
    citers = {}
    counts = dict(edges_kept=0, duplicates=0, self_citations=0, unknown_citers=0)
    self_lines = []
    for lineno, line in _entry_lines(lines):
        cells = [c.strip() for c in line.strip().split("\t")]
        if len(cells) != 2 or "" in cells:
            return None, None, None, self_lines, lineno
        citing, cited = cells
        if citing == cited:
            counts["self_citations"] += 1
            self_lines.append((lineno, citing))
        elif citing not in known_ids:
            counts["unknown_citers"] += 1
        elif citing in citers.get(cited, set()):
            counts["duplicates"] += 1
        else:
            citers.setdefault(cited, set()).add(citing)
            counts["edges_kept"] += 1
    citer_memberships = {
        c: frozenset(memberships.get(c, ())) for group in citers.values() for c in group
    }
    frozen = {cited: frozenset(group) for cited, group in citers.items()}
    return frozen, citer_memberships, counts, self_lines, None


_MODEL_COUNT_RE = re.compile(r"0|[1-9][0-9]*")
# A real as Python writes or reads one: decimal or exponent form, inf, infinity or nan.
_MODEL_REAL_RE = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf|infinity|nan)",
    re.ASCII | re.IGNORECASE,
)
_MODEL_TERM_RE = re.compile(r"[a-z0-9]*[a-z][a-z0-9]*")


def model_reference(lines):
    """Read a model file by the README's format: ``(counts, line of the first bad line)``.

    Line 1 is ``bibclass-model v1``.  Every later line is ``alpha<TAB>real``,
    exactly once in the file, the real in decimal or exponent form or one
    of inf, infinity and nan in any case, signed or not, and unpadded;
    ``db<TAB>name<TAB>documents<TAB>tokens``, which opens a database's
    block, each name a label and in one block only; or
    ``t<TAB>term<TAB>count`` inside a block, each term a token and once per
    block, its count not zero.  Every count is plain decimal
    digits without a leading zero.  ``counts`` is ``(alpha, databases,
    term counts, total tokens, document counts)`` for a file of such lines,
    and None for a file with a bad line or without an alpha line.
    """
    if not lines or lines[0] != "bibclass-model v1":
        return None, 1
    alpha, databases, terms, totals, docs = None, [], {}, {}, {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if cells[0] == "alpha" and len(cells) == 2 and alpha is None:
            if not _MODEL_REAL_RE.fullmatch(cells[1]):
                return None, lineno
            alpha = float(cells[1])
        elif (
            cells[0] == "db"
            and len(cells) == 4
            and is_label_reference(cells[1])
            and cells[1] not in terms
            and all(_MODEL_COUNT_RE.fullmatch(c) for c in cells[2:])
        ):
            databases.append(cells[1])
            terms[cells[1]] = {}
            docs[cells[1]], totals[cells[1]] = int(cells[2]), int(cells[3])
        elif (
            cells[0] == "t"
            and len(cells) == 3
            and databases
            and _MODEL_TERM_RE.fullmatch(cells[1])
            and cells[1] not in terms[databases[-1]]
            and _MODEL_COUNT_RE.fullmatch(cells[2])
            and cells[2] != "0"
        ):
            terms[databases[-1]][cells[1]] = int(cells[2])
        else:
            return None, lineno
    if alpha is None:
        return None, None
    return (alpha, tuple(databases), terms, totals, docs), None


def assignment_rows_reference(assignments, databases):
    """An assignments file, one row per record built by three joins in configured order."""
    rows = []
    for record_id, via_text, via_citation in assignments:
        union = set(via_text) | set(via_citation)
        cols = [
            ",".join(db for db in databases if db in chosen)
            for chosen in (union, via_text, via_citation)
        ]
        rows.append(record_id + "\t" + "\t".join(cols) + "\n")
    return "".join(rows)
