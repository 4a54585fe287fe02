"""Development script: compute the benchmark golden values via the oracles.

Run with ``python3 tests/make_goldens.py``.  It classifies the benchmark
corpus through the brute-force oracle pipeline (never through the library
classifiers), prints TP/FP/FN per mode and database for freezing into the
acceptance suite, and reports the smallest text-score margin to the
decision threshold so frozen integers are known to be safe against
floating-point drift between computation routes.  ``test_acceptance``
reruns :func:`main` and checks what it prints against ``GOLDEN``.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import oracles
import synth
from bibclass.bayes import record_text
from bibclass.corpus import load_records
from bibclass.textpipe import default_tokenizer_config, filter_tokens, tokenize

N_T, S_T = 5, 0.25
N_C, R_C = 4, 0.5


def main():
    with tempfile.TemporaryDirectory() as tmp:
        info = synth.build_benchmark(tmp)
        train = load_records(info["paths"]["train"])
        test = load_records(info["paths"]["test"])

    tokenizer = default_tokenizer_config()
    pairs = [
        (filter_tokens(tokenize(record_text(r)), tokenizer), sorted(r.gold_labels))
        for r in train.records
    ]
    stats = oracles.nb_stats(pairs, synth.DATABASES)
    known = set(info["memberships"]) | {r.id for r in test.records}

    text_assigned = {}
    cite_assigned = {}
    min_margin = float("inf")
    for r in test.records:
        tokens = filter_tokens(tokenize(record_text(r)), tokenizer)
        if len(tokens) >= N_T:
            scores = oracles.nb_scores_from(stats, tokens)
            text_assigned[r.id] = {db for db in synth.DATABASES if scores[db] >= S_T}
            min_margin = min(min_margin, *(abs(scores[db] - S_T) for db in synth.DATABASES))
        else:
            text_assigned[r.id] = set()
        cite_assigned[r.id] = oracles.citation_assignments(
            info["edges"], info["memberships"], known, synth.DATABASES, r.id, N_C, R_C
        )

    gold = {r.id: set(r.gold_labels) for r in test.records}
    combined = {rid: text_assigned[rid] | cite_assigned[rid] for rid in text_assigned}

    print(f"train records: {len(train.records)}  astronomy: {info['n_train_astro']}")
    print(f"test records: {len(test.records)}  with citation data: {info['n_cited']}")
    print(f"min |text score - threshold| margin: {min_margin:.3e}")
    print()
    for mode, assigned in (("text", text_assigned), ("citation", cite_assigned), ("combined", combined)):
        for db in synth.DATABASES:
            tp, fp, fn, p, r = oracles.precision_recall_counts(assigned, gold, db)
            print(f'("{mode}", "{db}"): ({tp}, {fp}, {fn}),  # P={p:.4f} R={r:.4f}')


if __name__ == "__main__":
    main()
