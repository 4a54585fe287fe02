"""The three workloads: their inputs, CLI invocation and expected output.

Each is a closed loop of one CLI process at a time.

* ``classify-10x``: ``classify --mode combined`` at the default parameters
  over ten replicas (40,330 records), model trained on replica 0's 400
  training records.  The text layer does most of the work; the decision
  step evaluates a single parameter point.
* ``sweep-1x``: ``sweep --mode combined --db astronomy`` over a 600-point
  grid on replica 0 alone (the frozen corpus at the default seed).
  Per-point thresholding and assignment do most of the work; text scoring
  is a small share, so a text-layer change should barely move it.
* ``train-prose-10x``: ``build-model`` on the ten replicas' training sets
  (4,000 records) with stop-list filler interleaved, so about half of the
  tokens are filtered away.  Synthetic text has no stop words, so this is
  the workload on which a filter change that only pays when nothing
  matches would show, as would work moved into model construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import inputs
import reference

WORKERS = 2
SWEEP_DB = "astronomy"
SWEEP_GRIDS = (
    (3, 4, 5, 6, 7),
    (0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6),
    (2, 3, 4, 5, 6),
    (0.25, 0.5, 0.75),
)
# The replica-0 rows a classify run must reproduce at the default seed.
FROZEN_RECORDS = 4033
# A timed run takes at least this many CLI samples.  Host load moves single
# samples by 10-30% and a slow spell can last half a minute, so the median
# needs several samples spanning most of a minute.  A classify-10x sample
# takes about 12 s, so that workload takes one sample more than the others.
MIN_SAMPLES = 3
CLASSIFY_MIN_SAMPLES = 4


@dataclass
class Prepared:
    """One workload's generated inputs and what its output must be."""

    name: str
    seed: int
    argv: list[str]
    output: str
    expected: bytes
    records: int
    probe_args: list[str]
    paths: dict[str, Path]
    sizes: dict[str, float]
    grid_points: int = 0
    min_samples: int = MIN_SAMPLES
    golden_records: list[dict] = field(default_factory=list)
    check_default_row: bool = False

    def gate(self, produced: bytes | None) -> str | None:
        """Why an output is wrong, or None when it is correct."""
        if produced is None:
            return "no output file"
        if produced != self.expected:
            return "output differs from the reference"
        if self.golden_records:
            got = reference.golden_counts(produced, self.golden_records)
            if got != reference.GOLDEN_COMBINED:
                return f"replica 0 counts {got} differ from the goldens"
        if self.check_default_row:
            row = "combined,astronomy,5,0.250000,4,0.500000,173,22,27,"
            if row not in produced.decode("utf-8"):
                return "default-point row is not 173,22,27"
        return None


def _stop_filter(src: Path) -> reference.StopFilter:
    data = src / "bibclass" / "data"
    return reference.StopFilter(
        inputs.read_term_list(data / "stopwords.txt"),
        inputs.read_term_list(data / "stopphrases.txt"),
    )


def _sizes(paths: list[Path], records: list[dict], scored_cite, tokens_in: int) -> dict:
    texts = {reference.record_text(r) for r in records}
    sizes = {
        "records": len(records),
        "input_bytes": sum(p.stat().st_size for p in paths),
        "textpipe.tokens_in": tokens_in,
        "distinct_text_ratio": len(texts) / len(records),
    }
    if scored_cite is not None:
        sizes["cited_records"] = sum(1 for total, _ in scored_cite if total)
    return sizes


def _edge_count(path: Path) -> int:
    lines = path.read_text(encoding="utf-8").splitlines()
    return sum(1 for ln in lines if ln.strip() and not ln.startswith("#"))


def _scoring_inputs(synth, src: Path, seed: int, replicas: int, out: Path):
    paths = inputs.build_replicas(synth, seed, replicas, out)
    stop = _stop_filter(src)
    model = reference.train(reference.read_records(paths["train0"]), stop)
    paths["model"] = out / "model.txt"
    paths["model"].write_bytes(model.to_bytes())
    records = reference.read_records(paths["test"])
    scored = reference.score_corpus(
        records, model, stop, paths["citations"], paths["memberships"]
    )
    files = [paths[k] for k in ("test", "model", "citations", "memberships")]
    sizes = _sizes(files, records, scored.cite, scored.tokens_in)
    sizes["edges"] = _edge_count(paths["citations"])
    input_argv = [
        "--records", str(paths["test"]),
        "--model", str(paths["model"]),
        "--citations", str(paths["citations"]),
        "--memberships", str(paths["memberships"]),
    ]
    probe = [str(paths[k]) for k in ("test", "model", "memberships", "citations")]
    return paths, records, scored, sizes, input_argv, probe


def prepare_classify(synth, src: Path, seed: int, out: Path, replicas: int = 10) -> Prepared:
    paths, records, scored, sizes, input_argv, probe = _scoring_inputs(
        synth, src, seed, replicas, out
    )
    argv = ["classify", "--mode", "combined", *input_argv, "--out", "assignments.tsv"]
    return Prepared(
        name="classify-10x",
        seed=seed,
        argv=argv + ["--workers", str(WORKERS)],
        output="assignments.tsv",
        expected=reference.assignments_bytes(scored),
        records=len(records),
        probe_args=probe,
        paths=paths,
        sizes=sizes,
        grid_points=1,
        min_samples=CLASSIFY_MIN_SAMPLES,
        golden_records=records[:FROZEN_RECORDS] if seed == synth.SEED else [],
    )


def prepare_sweep(synth, src: Path, seed: int, out: Path) -> Prepared:
    paths, records, scored, sizes, input_argv, probe = _scoring_inputs(synth, src, seed, 1, out)
    grid_flags = []
    for flag, values in zip(("--nt", "--st", "--nc", "--rc"), SWEEP_GRIDS):
        grid_flags += [flag, ",".join(str(v) for v in values)]
    argv = ["sweep", "--mode", "combined", "--db", SWEEP_DB, *input_argv, *grid_flags]
    points = 1
    for values in SWEEP_GRIDS:
        points *= len(set(values))
    return Prepared(
        name="sweep-1x",
        seed=seed,
        argv=argv + ["--grid-out", "grid.csv", "--workers", str(WORKERS)],
        output="grid.csv",
        expected=reference.sweep_csv_bytes(scored, SWEEP_DB, SWEEP_GRIDS),
        records=len(records),
        probe_args=probe,
        paths=paths,
        sizes=sizes,
        grid_points=points,
        check_default_row=seed == synth.SEED,
    )


def prepare_train_prose(synth, src: Path, seed: int, out: Path, replicas: int = 10) -> Prepared:
    paths = inputs.build_replicas(synth, seed, replicas, out)
    data = src / "bibclass" / "data"
    units = inputs.filler_units(
        inputs.read_term_list(data / "stopwords.txt"),
        inputs.read_term_list(data / "stopphrases.txt"),
    )
    paths["prose"] = inputs.write_prose(paths["train"], out / "train_prose.jsonl", seed, units)
    stop = _stop_filter(src)
    model = reference.train(reference.read_records(paths["train"]), stop)
    prose = reference.read_records(paths["prose"])
    tokens_in = sum(len(reference.tokenize(reference.record_text(r))) for r in prose)
    return Prepared(
        name="train-prose-10x",
        seed=seed,
        argv=["build-model", "--records", str(paths["prose"]), "--model", "model.txt"],
        output="model.txt",
        expected=model.to_bytes(),
        records=len(prose),
        probe_args=[str(paths["prose"])],
        paths=paths,
        sizes=_sizes([paths["prose"]], prose, None, tokens_in),
    )


PREPARE = {
    "classify-10x": prepare_classify,
    "sweep-1x": prepare_sweep,
    "train-prose-10x": prepare_train_prose,
}
