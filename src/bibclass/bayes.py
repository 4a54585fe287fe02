"""Multinomial naive Bayes classification over per-database word frequencies.

A trained :class:`CategoryModel` holds, for every database, how often each
term occurred in that database's training records plus a document count
used as the class prior.  Scoring averages per-token log likelihoods so a
document's score does not grow with its length, then maps the result to a
probability distribution over the databases: :func:`score_text` returns it
as a plain dict, database -> score.  Database-specific trigger keywords can
add a post-hoc boost to individual scores: :func:`apply_triggers` returns a
boosted copy of that dict.

The smoothed log probabilities are computed once, when a model is built or
loaded: :class:`CategoryModel` keeps one row per seen term, the log of the
term's additively smoothed frequency in every database,
``(count + alpha) / (total_tokens + alpha * vocabulary_size)``, plus one
row for unseen terms (count 0) and the log priors.  Scoring a document
looks each token up once and sums the rows' columns in token order.

The package has one softmax, in :func:`score_columns`, which scores many
token lists at once: per list it keeps only the length and the log sums,
then the priors, means, maxima, exponentials, totals and quotients are
each one C-level pass over a column per database, with no Python loop or
dict per list.  :func:`score_text` is its one-list case.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from itertools import repeat
from operator import add, sub, truediv
from typing import TYPE_CHECKING

from bibclass.errors import DataError, warn
from bibclass.textpipe import TokenizerConfig, filter_tokens, is_token, tokenize
from bibclass.values import Value

if TYPE_CHECKING:
    from bibclass.corpus import BibRecord


class CategoryModel(Value):
    """Per-database term and document counts backing the text classifier.

    ``term_counts`` maps database -> term -> occurrence count; only
    positive counts are stored.  ``total_tokens`` is derived: each
    database's sum of term counts.  So are ``vocabulary_size`` (the number
    of distinct terms seen in any database), ``term_rows`` (term -> the log
    of its smoothed frequency, as the module docstring gives it, in each
    database in ``databases`` order), ``unseen_row`` (the row of a term no
    database saw) and
    ``log_priors`` (the log of each database's share of the documents,
    ``-inf`` for a database without any); none takes part in equality or
    ``repr``.  A model without training documents or without terms cannot
    score a record, so it cannot be constructed either.  Instances are
    frozen, so the derived rows always match the counts they came from.
    """

    _fields = ("databases", "term_counts", "doc_counts", "smoothing_alpha")
    __slots__ = (
        *_fields, "total_tokens", "vocabulary_size", "term_rows", "unseen_row", "log_priors"
    )

    def __init__(
        self,
        databases: tuple[str, ...],
        term_counts: dict[str, dict[str, int]],
        doc_counts: dict[str, int],
        smoothing_alpha: float = 1.0,
    ):
        alpha = self.smoothing_alpha = smoothing_alpha
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"smoothing_alpha must be finite and positive, got {alpha!r}")
        self.databases = tuple(databases)
        if len(set(self.databases)) != len(self.databases):
            raise ValueError("database names must be unique")
        known = set(self.databases)
        for mapping in (term_counts, doc_counts):
            unknown = set(mapping) - known
            if unknown:
                raise ValueError(f"counts reference unknown databases: {sorted(unknown)}")
        # New dicts, one entry per database, so the caller's are left as given.
        self.term_counts = {
            db: {t: c for t, c in term_counts.get(db, {}).items() if c != 0}
            for db in self.databases
        }
        self.doc_counts = {db: doc_counts.get(db, 0) for db in self.databases}
        for db in self.databases:
            if any(c < 0 for c in self.term_counts[db].values()):
                raise ValueError(f"negative term count in database '{db}'")
            if self.doc_counts[db] < 0:
                raise ValueError(f"negative totals for database '{db}'")
        total_docs = self.total_docs
        if not total_docs:
            raise ValueError("no training documents")
        vocab: set[str] = set()
        for db in self.databases:
            vocab.update(self.term_counts[db])
        if not vocab:
            raise ValueError("empty vocabulary")
        priors = [self.doc_counts[db] / total_docs for db in self.databases]
        self.log_priors = tuple(math.log(p) if p else -math.inf for p in priors)
        self.total_tokens = {db: sum(c.values()) for db, c in self.term_counts.items()}
        self.vocabulary_size = len(vocab)
        terms = list(vocab)
        columns, unseen_logs = [], []
        for db in self.databases:
            denominator = self.total_tokens[db] + alpha * self.vocabulary_size
            unseen = alpha / denominator
            if unseen == 0.0:
                raise ValueError(
                    f"smoothing_alpha {alpha!r} underflows the probability of an unseen term"
                )
            unseen_logs.append(math.log(unseen))
            counts = self.term_counts[db]
            columns.append([math.log((counts.get(t, 0) + alpha) / denominator) for t in terms])
        self.unseen_row = tuple(unseen_logs)
        self.term_rows = dict(zip(terms, zip(*columns)))

    @property
    def total_docs(self) -> int:
        return sum(self.doc_counts[db] for db in self.databases)


class TextClassifierConfig(Value):
    """Decision parameters for the text classifier.

    ``min_words`` gates how many filtered tokens a record needs before it
    is considered classifiable at all; ``score_threshold`` is the minimum
    (boosted) score for membership in a database.  Each trigger term must
    be a token (:func:`~bibclass.textpipe.is_token`) to match filtered
    tokens; stop lists are the CLI's check, as this config has no tokenizer.
    The triggers are kept as a new ``{db: frozenset(terms)}``.
    """

    __slots__ = _fields = ("min_words", "score_threshold", "triggers", "trigger_boost")

    def __init__(
        self,
        min_words: int = 5,
        score_threshold: float = 0.25,
        triggers: dict[str, Iterable[str]] | None = None,
        trigger_boost: float = 0.25,
    ):
        triggers = {} if triggers is None else triggers
        if not abs(min_words) < math.inf:  # false for NaN too
            raise ValueError(f"min_words must be finite, got {min_words!r}")
        if min_words < 0:
            raise ValueError("min_words must be >= 0")
        if not 0.0 <= score_threshold <= 1.0:
            raise ValueError("score_threshold must be in [0, 1]")
        if not 0.0 <= trigger_boost <= 1.0:
            raise ValueError("trigger_boost must be in [0, 1]")
        frozen = {}
        for db, terms in triggers.items():
            if isinstance(terms, str) or not isinstance(terms, Iterable):
                raise ValueError(f"trigger terms for '{db}' must be a collection, not {terms!r}")
            terms = tuple(terms)  # an iterator is read once
            for term in terms:
                if not (isinstance(term, str) and is_token(term)):
                    raise ValueError(f"trigger term {term!r} for '{db}' is not a token")
            frozen[db] = frozenset(terms)
        self.min_words = min_words
        self.score_threshold = score_threshold
        self.triggers = frozen
        self.trigger_boost = trigger_boost


def record_text(record: BibRecord) -> str:
    return record.title + " " + (record.abstract or "")


def build_model(
    records: Iterable[BibRecord],
    databases: Iterable[str],
    tokenizer_config: TokenizerConfig,
    alpha: float = 1.0,
) -> CategoryModel:
    """Count title+abstract tokens of labeled records into each labeled database.

    Records without gold labels are ignored.  A record labeled with several
    databases contributes its full token counts to each of them, and a
    database named twice in one record's labels counts once.  A label
    outside the configured database set aborts the build, as does a corpus
    that yields no vocabulary at all.  Each record's filtered token list is
    counted straight into every labeled database's ``Counter``, a C loop
    over the list, with no per-record ``Counter`` to merge.
    """
    databases = tuple(databases)
    term_counts: dict[str, Counter[str]] = {db: Counter() for db in databases}
    doc_counts = {db: 0 for db in databases}
    known = set(databases)
    used = 0
    for record in records:
        labels = record.gold_labels
        if not labels:
            continue
        if not known.issuperset(labels):
            raise DataError(
                f"record '{record.id}' is labeled with unknown database(s) "
                f"{sorted(set(labels) - known)}"
            )
        tokens = filter_tokens(tokenize(record_text(record)), tokenizer_config)
        used += 1
        for db in databases:
            if db in labels:
                term_counts[db].update(tokens)
                doc_counts[db] += 1
    if not any(term_counts.values()):
        raise DataError(f"training produced an empty vocabulary ({used} labeled records)")
    for db in databases:
        if doc_counts[db] == 0:
            warn(__name__, "no training records labeled '%s'; it keeps only smoothed mass", db)
    return CategoryModel(
        databases=databases,
        term_counts=term_counts,
        doc_counts=doc_counts,
        smoothing_alpha=alpha,
    )


def score_text(
    model: CategoryModel, config: TextClassifierConfig, tokens: list[str]
) -> dict[str, float]:
    """Score a filtered token stream against every database.

    The one-record case of :func:`score_columns`, without trigger boosts:
    the scores sum to 1, do not depend on document length, and with no
    tokens reduce to the prior distribution.  They are keyed in
    ``model.databases`` order.  ``config`` is not read.
    """
    _, columns = score_columns(model, [tokens], None)
    return dict(zip(model.databases, [column[0] for column in columns]))


def score_columns(
    model: CategoryModel, token_lists: Iterable[list[str]], config: TextClassifierConfig | None
) -> tuple[list[int], list[list[float]]]:
    """Token counts and scores of many filtered token lists, one score list per database.

    Returns ``(counts, columns)``: ``counts[i]`` is the length of the
    ``i``-th list, and ``columns`` holds one list of scores per database,
    in ``model.databases`` order.  The loop over the lists keeps only each
    one's length and per-database log sums: each token is looked up once,
    for its row of per-database log probabilities, and each database's
    column of the rows is summed in token order with the built-in ``sum``.
    The softmax then runs as C-level passes over all lists, each new column
    replacing the one it is built from: log(prior) plus the mean per-token
    log likelihood (just the prior for an empty list), each list's maximum
    across the databases, ``exp(v - max)``, each list's total as the
    built-in ``sum`` of its exps in database order, and each exp over its
    total.  So a list's scores sum to 1 and do not depend on its length.

    With a ``config``, a list whose tokens meet a database's trigger terms
    has that database's score raised by the trigger boost, capped at 1, as
    :func:`apply_triggers` raises it; a trigger database the model lacks is
    ignored.  With ``None`` no score is boosted.
    """
    databases = model.databases
    k = len(databases)
    triggers = [
        (databases.index(db), terms)
        for db, terms in (config.triggers.items() if config is not None else ())
        if db in databases
    ]
    hits: list[list[int]] = [[] for _ in databases]
    rows_of, unseen = model.term_rows.get, repeat(model.unseen_row)
    zeros = (0.0,) * k
    counts: list[int] = []
    sums: list[float] = []  # every list's k sums, back to back
    for tokens in token_lists:
        for j, terms in triggers:
            if not terms.isdisjoint(tokens):
                hits[j].append(len(counts))
        counts.append(len(tokens))
        sums += map(sum, zip(*map(rows_of, tokens, unseen))) if tokens else zeros
    divisors = [n or 1 for n in counts]
    columns = [
        list(map(add, repeat(prior), map(truediv, sums[j::k], divisors)))
        for j, prior in enumerate(model.log_priors)
    ]
    del sums, divisors
    tops = list(map(max, zip(*columns)))
    for j, column in enumerate(columns):
        columns[j] = list(map(math.exp, map(sub, column, tops)))
    del tops
    totals = list(map(sum, zip(*columns)))
    for j, column in enumerate(columns):
        columns[j] = list(map(truediv, column, totals))
    for column, boosted in zip(columns, hits):
        for i in boosted:
            column[i] = min(1.0, column[i] + config.trigger_boost)
    return counts, columns


def apply_triggers(
    scores: dict[str, float], tokens: list[str], config: TextClassifierConfig
) -> dict[str, float]:
    """Boost the score of any database whose trigger terms appear in ``tokens``.

    Without triggers ``scores`` itself is returned; otherwise a copy with
    the trigger boost added, capped at 1.  ``scores`` is never changed.
    """
    if not config.triggers:
        return scores
    present = set(tokens)
    boosted = dict(scores)
    for db, terms in config.triggers.items():
        if db in boosted and terms & present:
            boosted[db] = min(1.0, boosted[db] + config.trigger_boost)
    return boosted
