"""Independent reference pipeline: what the CLI's outputs must be, byte for byte.

Nothing here imports ``bibclass``.  The reference follows the documented
behaviour (README, docstrings) by its own route: stop phrases are looked
up through a first-token index, per-term log probabilities are computed
once per term, citation ratios are re-derived from the raw edge list and a
sweep counts TP/FP/FN with bitmasks.  Floating-point expressions are
evaluated in the order the package documents (mean per-token log
likelihood plus log prior, then softmax), so scores are bit-identical and
decisions at the inclusive thresholds agree exactly.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from unicodedata import normalize

_WORD_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)+|[a-z0-9]+")

# Combined-mode (tp, fp, fn) per database on the frozen corpus at the
# default decision parameters; the package's acceptance suite freezes the
# same counts.
GOLDEN_COMBINED = {
    "astronomy": (173, 22, 27),
    "general": (2700, 10, 0),
    "physics": (637, 0, 3),
}
DEFAULT_POINT = (5, 0.25, 4, 0.5)


def tokenize(text: str) -> list[str]:
    if not text.isascii():
        text = normalize("NFKD", text).encode("ascii", "ignore").decode("ascii")
    folded = text.lower()
    tokens = []
    for word in _WORD_RE.findall(folded):
        if "-" in word:
            parts = word.split("-")
            tokens.append("".join(parts))
            tokens.extend(parts)
        else:
            tokens.append(word)
    return tokens


class StopFilter:
    """The default token filter: stop phrases, then stop words and digits, then phrases."""

    def __init__(self, stop_words: list[str], stop_phrases: list[str]):
        self.words = frozenset(stop_words)
        index: dict[str, list[tuple[str, ...]]] = {}
        for phrase in sorted({tuple(p.split()) for p in stop_phrases if p.split()}):
            index.setdefault(phrase[0], []).append(phrase)
        # Longest first, ties in tuple order: the first match at a position wins.
        self.index = {k: sorted(v, key=lambda p: (-len(p), p)) for k, v in index.items()}

    def _drop_phrases(self, tokens: list[str]) -> list[str]:
        if self.index.keys().isdisjoint(tokens):
            return tokens
        while True:
            out, i, changed = [], 0, False
            while i < len(tokens):
                for phrase in self.index.get(tokens[i], ()):
                    if tuple(tokens[i : i + len(phrase)]) == phrase:
                        i += len(phrase)
                        changed = True
                        break
                else:
                    out.append(tokens[i])
                    i += 1
            tokens = out
            if not changed:
                return tokens

    def __call__(self, tokens: list[str]) -> list[str]:
        kept = self._drop_phrases(tokens)
        kept = [t for t in kept if not t.isdigit() and t not in self.words]
        return self._drop_phrases(kept)


def read_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def record_text(rec: dict) -> str:
    return rec["title"] + " " + (rec.get("abstract") or "")


@dataclass
class Model:
    databases: tuple[str, ...]
    counts: dict[str, Counter]
    totals: dict[str, int]
    docs: dict[str, int]
    alpha: float = 1.0

    def to_bytes(self) -> bytes:
        """The versioned text format ``build-model`` writes."""
        lines = ["bibclass-model v1", f"alpha\t{self.alpha!r}"]
        for db in self.databases:
            lines.append(f"db\t{db}\t{self.docs[db]}\t{self.totals[db]}")
            lines.extend(f"t\t{t}\t{self.counts[db][t]}" for t in sorted(self.counts[db]))
        return ("\n".join(lines) + "\n").encode("utf-8")


def train(records: list[dict], stop: StopFilter, alpha: float = 1.0) -> Model:
    databases = tuple(sorted({db for r in records for db in r["labels"]}))
    counts = {db: Counter() for db in databases}
    totals = dict.fromkeys(databases, 0)
    docs = dict.fromkeys(databases, 0)
    for rec in records:
        if not rec["labels"]:
            continue
        tokens = stop(tokenize(record_text(rec)))
        for db in rec["labels"]:
            counts[db].update(tokens)
            totals[db] += len(tokens)
            docs[db] += 1
    return Model(databases, counts, totals, docs, alpha)


class Scorer:
    """Softmax of log prior plus mean per-token log likelihood, per database."""

    def __init__(self, model: Model):
        self.model = model
        vocab = set().union(*(model.counts[db] for db in model.databases))
        self.denoms = [model.totals[db] + model.alpha * len(vocab) for db in model.databases]
        all_docs = sum(model.docs.values())
        self.log_priors = [
            math.log(model.docs[db] / all_docs) if model.docs[db] else -math.inf
            for db in model.databases
        ]
        self.cache: dict[str, tuple[float, ...]] = {}

    def _term_logs(self, term: str) -> tuple[float, ...]:
        logs = self.cache.get(term)
        if logs is None:
            m = self.model
            logs = tuple(
                math.log((m.counts[db].get(term, 0) + m.alpha) / denom)
                for db, denom in zip(m.databases, self.denoms)
            )
            self.cache[term] = logs
        return logs

    def scores(self, tokens: list[str]) -> list[float]:
        rows = [self._term_logs(t) for t in tokens]
        n = len(tokens)
        values = []
        for i, prior in enumerate(self.log_priors):
            if prior == -math.inf:
                values.append(prior)
                continue
            ll = prior
            if n:
                ll += sum([row[i] for row in rows]) / n
            values.append(ll)
        top = max(values)
        exps = [math.exp(v - top) for v in values]
        total = sum(exps)
        return [e / total for e in exps]


def citation_table(
    records: list[dict], citations: Path, memberships: Path, databases: tuple[str, ...]
) -> list[tuple[int, list[float]]]:
    """Per record: distinct known citers and the share of them in each database."""
    members: dict[str, set[str]] = {}
    for line in memberships.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        rid, dbs = line.split("\t")
        members.setdefault(rid.strip(), set()).update(d.strip() for d in dbs.split(",") if d.strip())
    known = set(members) | {r["id"] for r in records}
    citers: dict[str, set[str]] = {}
    for line in citations.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        citing, cited = line.strip().split("\t")
        if citing != cited and citing in known:
            citers.setdefault(cited, set()).add(citing)
    table = []
    for rec in records:
        citing = citers.get(rec["id"], set())
        total = len(citing)
        hits = [sum(1 for c in citing if db in members.get(c, ())) for db in databases]
        table.append((total, [h / total if total else 0.0 for h in hits]))
    return table


@dataclass
class Scored:
    """Everything a decision needs, per record, in input order."""

    records: list[dict]
    databases: tuple[str, ...]
    text: list[tuple[int, list[float]]]
    cite: list[tuple[int, list[float]]]
    tokens_in: int


def score_corpus(
    records: list[dict], model: Model, stop: StopFilter, citations: Path, memberships: Path
) -> Scored:
    scorer = Scorer(model)
    text = []
    tokens_in = 0
    for rec in records:
        raw = tokenize(record_text(rec))
        tokens_in += len(raw)
        kept = stop(raw)
        text.append((len(kept), scorer.scores(kept)))
    cite = citation_table(records, citations, memberships, model.databases)
    return Scored(records, model.databases, text, cite, tokens_in)


def assignments_bytes(scored: Scored, point=DEFAULT_POINT) -> bytes:
    """The ``classify --mode combined`` assignments file at one parameter point."""
    nt, st, nc, rc = point
    dbs = scored.databases
    lines = []
    for rec, (n, scores), (total, ratios) in zip(scored.records, scored.text, scored.cite):
        via_text = [db for db, s in zip(dbs, scores) if n >= nt and s >= st]
        via_cite = [db for db, r in zip(dbs, ratios) if total >= nc and r >= rc]
        assigned = [db for db in dbs if db in via_text or db in via_cite]
        cols = (",".join(assigned), ",".join(via_text), ",".join(via_cite))
        lines.append(f"{rec['id']}\t" + "\t".join(cols) + "\n")
    return "".join(lines).encode("utf-8")


def sweep_csv_bytes(scored: Scored, db: str, grids) -> bytes:
    """The ``sweep --mode combined`` grid CSV, counted with one bitmask per pair."""
    nts, sts, ncs, rcs = (sorted(set(g)) for g in grids)
    col = scored.databases.index(db)
    gold = _mask(db in rec["labels"] for rec in scored.records)
    text_masks = {
        (nt, st): _mask(n >= nt and s[col] >= st for n, s in scored.text)
        for nt in nts
        for st in sts
    }
    cite_masks = {
        (nc, rc): _mask(total >= nc and r[col] >= rc for total, r in scored.cite)
        for nc in ncs
        for rc in rcs
    }
    positives = gold.bit_count()
    lines = ["mode,db,N_t,S_t,N_c,R_c,tp,fp,fn,precision,recall"]
    for nt in nts:
        for st in sts:
            for nc in ncs:
                for rc in rcs:
                    hit = text_masks[nt, st] | cite_masks[nc, rc]
                    tp = (hit & gold).bit_count()
                    fp = hit.bit_count() - tp
                    fn = positives - tp
                    precision = tp / (tp + fp) if tp + fp else 1.0
                    recall = tp / (tp + fn) if tp + fn else 1.0
                    lines.append(
                        f"combined,{db},{nt},{st:.6f},{nc},{rc:.6f},"
                        f"{tp},{fp},{fn},{precision:.6f},{recall:.6f}"
                    )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _mask(flags) -> int:
    bits = "".join("1" if f else "0" for f in flags)
    return int(bits[::-1], 2) if bits else 0


def golden_counts(assignments: bytes, records: list[dict]) -> dict[str, tuple[int, int, int]]:
    """Combined-mode (tp, fp, fn) per golden database over the rows of ``records``."""
    gold = {r["id"]: set(r["labels"]) for r in records}
    counts = {db: [0, 0, 0] for db in GOLDEN_COMBINED}
    for line in assignments.decode("utf-8").splitlines():
        rid, assigned = line.split("\t")[:2]
        if rid not in gold:
            continue
        got = set(assigned.split(",")) if assigned else set()
        for db, c in counts.items():
            if db in got and db in gold[rid]:
                c[0] += 1
            elif db in got:
                c[1] += 1
            elif db in gold[rid]:
                c[2] += 1
    return {db: tuple(c) for db, c in counts.items()}
