"""Seeded input generation for the benchmark workloads.

Replica ``k`` of a workload seed ``s`` is ``tests/synth.py``'s
``build_benchmark`` run with its module seed set to ``s + k``; at the
default seed (synth's own) replica 0 is the frozen 4033-record corpus,
byte for byte.  Replicas after the first get an id prefix ``k<k>-`` on
every record and citer id, so concatenated replicas never share an id.

The prose variant of a training set interleaves filler drawn from the
bundled stop lists (single stop words, whole stop phrases) and digit-only
tokens between the words of every title and abstract.  Every filler unit
sits between two real words, which appear in no stop list, so filtering
removes exactly the filler and the filtered token stream equals that of
the clean record.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import re
import shutil
from pathlib import Path

# Share of word gaps that get a filler unit; with the unit mix below about
# half of the prose tokens are filler.
PROSE_GAP_SHARE = 0.8
_PLAIN_WORD = re.compile(r"[a-z]+")


def load_synth(tests_dir: Path):
    """Import ``tests/synth.py`` as a private module object."""
    spec = importlib.util.spec_from_file_location("perfbench_synth", tests_dir / "synth.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_term_list(path: Path) -> list[str]:
    """Terms of a bundled stop list, parsed as the package parses it."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return sorted({ln.strip().lower() for ln in lines if ln.strip() and not ln.startswith("#")})


def _prefixed_jsonl(src: Path, prefix: str) -> str:
    # synth writes each record with ``json.dumps``, id first.
    lead = '{"id": "'
    text = src.read_text(encoding="utf-8")
    if not text.startswith(lead) or text.count(lead) != text.count("\n"):
        raise ValueError(f"{src}: records do not start with their id")
    return text.replace(lead, lead + prefix)


def _prefixed_tsv(src: Path, prefix: str, both_columns: bool) -> str:
    out = []
    for line in src.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        left, right = line.split("\t")
        right = prefix + right if both_columns else right
        out.append(f"{prefix}{left}\t{right}\n")
    return "".join(out)


def build_replicas(synth, seed: int, count: int, out_dir: Path) -> dict[str, Path]:
    """Write ``count`` concatenated replicas; returns the four file paths.

    The files are ``train.jsonl``, ``test.jsonl``, ``citations.tsv`` and
    ``memberships.tsv``.  ``train0.jsonl`` holds replica 0's training set
    alone, the set the workloads' scoring model is trained on.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    raw_root = out_dir / "raw"
    parts: dict[str, list[str]] = {
        "train.jsonl": [],
        "test.jsonl": [],
        "citations.tsv": ["# citing\tcited\n"],
        "memberships.tsv": [],
    }
    saved_seed = synth.SEED
    try:
        for k in range(count):
            synth.SEED = seed + k
            raw = raw_root / f"r{k}"
            synth.build_benchmark(raw)
            prefix = f"k{k}-" if k else ""
            for name in ("train.jsonl", "test.jsonl"):
                parts[name].append(_prefixed_jsonl(raw / name, prefix))
            parts["citations.tsv"].append(_prefixed_tsv(raw / "citations.tsv", prefix, True))
            parts["memberships.tsv"].append(
                _prefixed_tsv(raw / "memberships.tsv", prefix, False)
            )
            if k == 0:
                shutil.copyfile(raw / "train.jsonl", out_dir / "train0.jsonl")
    finally:
        synth.SEED = saved_seed
        shutil.rmtree(raw_root, ignore_errors=True)
    paths = {}
    for name, chunks in parts.items():
        path = out_dir / name
        path.write_text("".join(chunks), encoding="utf-8", newline="")
        paths[name.split(".")[0]] = path
    paths["train0"] = out_dir / "train0.jsonl"
    return paths


def filler_units(stop_words: list[str], stop_phrases: list[str]) -> list[list[str]]:
    """Stop words and phrases that tokenize to exactly their own words."""
    units = [[w] for w in stop_words if _PLAIN_WORD.fullmatch(w)]
    for phrase in stop_phrases:
        words = phrase.split()
        if words and all(_PLAIN_WORD.fullmatch(w) for w in words):
            units.append(words)
    return units


def _with_filler(rng: random.Random, text: str, units: list[list[str]]) -> str:
    words = text.split(" ")
    out = [words[0]]
    for word in words[1:]:
        if rng.random() < PROSE_GAP_SHARE:
            if rng.random() < 0.2:
                out.append(str(rng.randrange(10000)))
            else:
                out.extend(rng.choice(units))
        out.append(word)
    return " ".join(out)


def write_prose(train_path: Path, out_path: Path, seed: int, units: list[list[str]]) -> Path:
    """Copy a training set with filler interleaved into every title and abstract."""
    rng = random.Random(f"prose:{seed}")
    lines = []
    for line in train_path.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        for key in ("title", "abstract"):
            if obj.get(key):
                obj[key] = _with_filler(rng, obj[key], units)
        lines.append(json.dumps(obj) + "\n")
    out_path.write_text("".join(lines), encoding="utf-8", newline="")
    return out_path


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
