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
loaded: :class:`CategoryModel` keeps one row per seen term, the term's
``log(term_probability)`` in every database, plus one row for unseen terms
and the log priors.  Scoring a document looks each token up once and sums
the rows' columns in token order.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Sequence

from bibclass.errors import DataError, warn
from bibclass.textpipe import TokenizerConfig, filter_tokens, is_token, tokenize
from bibclass.values import FrozenValue, Value

if TYPE_CHECKING:
    from bibclass.corpus import BibRecord


class CategoryModel(Value):
    """Per-database term and document counts backing the text classifier.

    ``term_counts`` maps database -> term -> occurrence count; only
    positive counts are stored.  ``total_tokens`` is derived: each
    database's sum of term counts.  So are ``vocabulary_size`` (the number
    of distinct terms seen in any database), ``term_rows`` (term -> the log
    of its :func:`term_probability` in each database, in ``databases``
    order), ``unseen_row`` (that row for a term no database saw) and
    ``log_priors`` (the log of each database's share of the documents,
    ``-inf`` for a database without any); none takes part in equality or
    ``repr``.  A model without training documents or without terms cannot
    score a record, so it cannot be constructed either.  Instances are
    treated as immutable once built.
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
            # The same expression term_probability evaluates, so the logs match it exactly.
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


class TextClassifierConfig(FrozenValue):
    """Decision parameters for the text classifier.

    ``min_words`` gates how many filtered tokens a record needs before it
    is considered classifiable at all; ``score_threshold`` is the minimum
    (boosted) score for membership in a database.  Each trigger term must
    be a token (:func:`~bibclass.textpipe.is_token`) to match filtered
    tokens; stop lists are the CLI's check, as this config has no tokenizer.
    """

    __slots__ = _fields = ("min_words", "score_threshold", "triggers", "trigger_boost")

    def __init__(
        self,
        min_words: int = 5,
        score_threshold: float = 0.25,
        triggers: dict[str, frozenset[str]] | None = None,
        trigger_boost: float = 0.25,
    ):
        triggers = {} if triggers is None else triggers
        if min_words < 0:
            raise ValueError("min_words must be >= 0")
        if not 0.0 <= score_threshold <= 1.0:
            raise ValueError("score_threshold must be in [0, 1]")
        if not 0.0 <= trigger_boost <= 1.0:
            raise ValueError("trigger_boost must be in [0, 1]")
        for db, terms in triggers.items():
            for term in terms:
                if not is_token(term):
                    raise ValueError(f"trigger term '{term}' for '{db}' is not a token")
        object.__setattr__(self, "min_words", min_words)
        object.__setattr__(self, "score_threshold", score_threshold)
        object.__setattr__(self, "triggers", triggers)
        object.__setattr__(self, "trigger_boost", trigger_boost)


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


def term_probability(model: CategoryModel, term: str, db: str) -> float:
    """Additively smoothed relative frequency of ``term`` in ``db``."""
    if db not in model.doc_counts:
        raise ValueError(f"unknown database '{db}'")
    alpha = model.smoothing_alpha
    return (model.term_counts[db].get(term, 0) + alpha) / (
        model.total_tokens[db] + alpha * model.vocabulary_size
    )


def score_text(
    model: CategoryModel, config: TextClassifierConfig, tokens: list[str]
) -> dict[str, float]:
    """Score a filtered token stream against every database.

    Each database gets log(prior) plus the mean per-token log likelihood;
    the averaged values are mapped through a softmax so scores sum to 1 and
    do not depend on document length.  With no tokens the scores reduce to
    the prior distribution.  The scores are keyed in ``model.databases``
    order.  Each token is looked up once, for its row of per-database log
    probabilities; each database's column is summed in token order.
    ``config`` is not read.
    """
    log_likes = model.log_priors
    n = len(tokens)
    if n:
        rows = map(model.term_rows.get, tokens, repeat(model.unseen_row))
        log_likes = [prior + total / n for prior, total in zip(log_likes, map(sum, zip(*rows)))]
    return dict(zip(model.databases, _softmax(log_likes)))


def _softmax(values: Sequence[float]) -> list[float]:
    top = max(values)
    exps = [math.exp(v - top) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


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
