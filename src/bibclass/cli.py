"""Command-line front end for training, classification, evaluation and sweeps.

Exit statuses: 0 on success, 1 on a usage error (bad flags or parameter
values, reported with usage text on stderr), 2 on a data error (unreadable
or malformed input files).  Runs are pure functions of the argument vector
and the input files; machine-readable output goes only to files named by
flags, the human-readable summary to stdout.

The environment variable ``BIBCLASS_CONFIG`` may name a ``key=value`` file
supplying any flag (keys are flag names without the leading dashes).
Explicit flags win over the config file, which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

from bibclass import evalhub
from bibclass.bayes import CategoryModel, TextClassifierConfig, build_model
from bibclass.citegraph import CitationClassifierConfig, CitationGraph
from bibclass.corpus import (
    Corpus,
    load_citations,
    load_memberships,
    load_model,
    load_records,
    save_model,
    write_text_atomic,
)
from bibclass.errors import DataError, UsageError, read_lines
from bibclass.evalhub import MODES, SweepGrids
from bibclass.textpipe import (
    TokenizerConfig,
    default_tokenizer_config,
    filter_tokens,
    load_term_list,
    tokenize,
)

log = logging.getLogger(__name__)

CONFIG_ENV_VAR = "BIBCLASS_CONFIG"

# Built-in defaults, as the strings a config file would supply.  Path flags
# have no default; --alpha only affects build-model (smoothing is stored in
# the model and reused at scoring time).
DEFAULTS = {
    "mode": "combined",
    "nt": "5",
    "st": "0.25",
    "nc": "4",
    "rc": "0.5",
    "alpha": "1.0",
    "boost": "0.25",
    "out": "assignments.tsv",
    "grid_out": "grid.csv",
    "workers": "1",
}

_PATH_KEYS = (
    "records",
    "citations",
    "memberships",
    "model",
    "triggers",
    "stopwords",
    "stopphrases",
    "out",
    "grid_out",
)
_VALUE_KEYS = ("mode", "db", "nt", "st", "nc", "rc", "alpha", "boost", "workers")
_FLAG_KEYS = frozenset(_PATH_KEYS) | frozenset(_VALUE_KEYS)


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems with exit status 2; we need 1."""

    def error(self, message):
        raise UsageError(self.format_usage() + f"error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bibclass",
        description="Classify bibliographic records into subject databases "
        "by word frequencies and citation ratios.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    sub.required = True

    def add(p, *flags):
        spec = {
            "records": ("--records", "records file, one JSON object per line"),
            "citations": ("--citations", "citation edge file: citing<TAB>cited"),
            "memberships": (
                "--memberships",
                "database membership file: record_id<TAB>db1,db2,...",
            ),
            "model": ("--model", "model file path"),
            "triggers": ("--triggers", "trigger keyword file: database<TAB>term"),
            "stopwords": ("--stopwords", "stop word list, one per line (default: bundled list)"),
            "stopphrases": (
                "--stopphrases",
                "stop phrase list, one per line (default: bundled list)",
            ),
            "mode": ("--mode", "classifier mode: text, citation or combined (default: combined)"),
            "db": ("--db", "database to report on"),
            "nt": (
                "--nt",
                "minimum word count for text classification (default: 5; "
                "sweep accepts a comma-separated list)",
            ),
            "st": (
                "--st",
                "text score threshold in [0, 1] (default: 0.25; "
                "sweep accepts a comma-separated list)",
            ),
            "nc": (
                "--nc",
                "minimum citation count for citation classification (default: 4; "
                "sweep accepts a comma-separated list)",
            ),
            "rc": (
                "--rc",
                "citation ratio threshold in (0, 1] (default: 0.5; "
                "sweep accepts a comma-separated list)",
            ),
            "alpha": ("--alpha", "additive smoothing constant for training (default: 1.0)"),
            "boost": ("--boost", "score boost for trigger keywords (default: 0.25)"),
            "out": ("--out", "assignments output path (default: assignments.tsv)"),
            "grid_out": ("--grid-out", "sweep grid CSV path (default: grid.csv)"),
            "workers": (
                "--workers",
                "accepted and ignored: runs are single-process (must be >= 1; default: 1)",
            ),
        }
        for name in flags:
            flag, help_text = spec[name]
            p.add_argument(flag, dest=name, default=None, metavar="VALUE", help=help_text)

    p = sub.add_parser("build-model", help="train a model from labeled records")
    add(p, "records", "model", "stopwords", "stopphrases", "alpha")

    p = sub.add_parser("classify", help="assign records to databases")
    add(
        p,
        "records",
        "model",
        "citations",
        "memberships",
        "triggers",
        "stopwords",
        "stopphrases",
        "mode",
        "nt",
        "st",
        "nc",
        "rc",
        "boost",
        "out",
        "workers",
    )

    p = sub.add_parser("evaluate", help="score assignments against the records' labels")
    add(
        p,
        "records",
        "model",
        "citations",
        "memberships",
        "triggers",
        "stopwords",
        "stopphrases",
        "mode",
        "db",
        "nt",
        "st",
        "nc",
        "rc",
        "boost",
        "workers",
    )

    p = sub.add_parser("sweep", help="evaluate one database over a parameter grid")
    add(
        p,
        "records",
        "model",
        "citations",
        "memberships",
        "triggers",
        "stopwords",
        "stopphrases",
        "mode",
        "db",
        "nt",
        "st",
        "nc",
        "rc",
        "boost",
        "grid_out",
        "workers",
    )
    return parser


# ---------------------------------------------------------------------------
# Config file merge and value parsing.
# ---------------------------------------------------------------------------


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in read_lines(path, "config file"):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise UsageError(f"bad config line at {path}:{lineno}: expected key=value")
        key = key.strip().replace("-", "_")
        if key not in _FLAG_KEYS:
            raise UsageError(f"unknown config key '{key}' at {path}:{lineno}")
        values[key] = value.strip()
    return values


def _merge(args: argparse.Namespace) -> dict[str, str | None]:
    """Explicit flags win over the config file, which wins over defaults."""
    config: dict[str, str] = {}
    env = os.environ.get(CONFIG_ENV_VAR)
    if env:
        config = _load_config_file(env)
    merged: dict[str, str | None] = {}
    for key in _FLAG_KEYS:
        explicit = getattr(args, key, None)
        if explicit is not None:
            merged[key] = explicit
        elif key in config:
            merged[key] = config[key]
        else:
            merged[key] = DEFAULTS.get(key)
    return merged


def _int_value(value: str, flag: str, minimum: int) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise UsageError(f"invalid integer for {flag}: '{value}'") from None
    if out < minimum:
        raise UsageError(f"{flag} must be >= {minimum}, got {out}")
    return out


def _float_value(value: str, flag: str, low: float, high: float, low_open: bool = False) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise UsageError(f"invalid number for {flag}: '{value}'") from None
    if not math.isfinite(out):
        raise UsageError(f"{flag} must be a finite number, got '{value}'")
    if out < low or out > high or (low_open and out == low):
        bounds = f"({low}, {high}]" if low_open else f"[{low}, {high}]"
        raise UsageError(f"{flag} must be in {bounds}, got {out}")
    return out


def _int_list(value: str, flag: str, minimum: int) -> tuple[int, ...]:
    return tuple(_int_value(v.strip(), flag, minimum) for v in value.split(","))


def _float_list(
    value: str, flag: str, low: float, high: float, low_open: bool = False
) -> tuple[float, ...]:
    return tuple(_float_value(v.strip(), flag, low, high, low_open) for v in value.split(","))


def _require(merged: dict[str, str | None], key: str, command: str) -> str:
    value = merged.get(key)
    if not value:
        flag = "--" + key.replace("_", "-")
        raise UsageError(f"{command} requires {flag}")
    return value


# ---------------------------------------------------------------------------
# Shared input loading.
# ---------------------------------------------------------------------------


def _tokenizer_config(merged: dict[str, str | None]) -> TokenizerConfig:
    base = default_tokenizer_config()
    words = (
        frozenset(load_term_list(merged["stopwords"])) if merged["stopwords"] else base.stop_words
    )
    phrases = (
        frozenset(load_term_list(merged["stopphrases"]))
        if merged["stopphrases"]
        else base.stop_phrases
    )
    return TokenizerConfig(stop_words=words, stop_phrases=phrases)


def load_triggers(
    path: str | Path, databases: tuple[str, ...], tokenizer_config: TokenizerConfig
) -> dict[str, frozenset[str]]:
    """Read ``database<TAB>term`` trigger lines into per-database term sets.

    Terms are tokenized the same way documents are, so a hyphenated trigger
    matches the joined token it produces.  A term the filters would remove
    can never fire and is rejected outright.
    """
    triggers: dict[str, set[str]] = {}
    for lineno, line in read_lines(path, "triggers file"):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DataError(
                f"malformed trigger line at {path}:{lineno}: expected database<TAB>term"
            )
        db, term = parts[0].strip(), parts[1].strip().lower()
        if db not in databases:
            raise DataError(
                f"trigger database '{db}' at {path}:{lineno} is not one of {list(databases)}"
            )
        if " " in term:
            raise DataError(f"trigger term '{term}' at {path}:{lineno} must be a single word")
        tokens = filter_tokens(tokenize(term), tokenizer_config)
        if not tokens:
            raise DataError(
                f"trigger term '{term}' at {path}:{lineno} is removed by token filtering"
            )
        triggers.setdefault(db, set()).add(tokens[0])
    return {db: frozenset(terms) for db, terms in triggers.items()}


def _load_classification_inputs(merged: dict[str, str | None], command: str, grid: bool = False):
    """Load everything classify/evaluate/sweep share; returns a dict of parts.

    With ``grid`` the four decision parameters may be comma-separated value
    lists; otherwise each must be a single value.
    """
    mode = merged["mode"]
    if mode not in MODES:
        raise UsageError(f"--mode must be one of {', '.join(MODES)}; got '{mode}'")
    _int_value(merged["workers"], "--workers", minimum=1)  # validated, otherwise unused
    nt_values = _int_list(merged["nt"], "--nt", minimum=0)
    st_values = _float_list(merged["st"], "--st", 0.0, 1.0)
    nc_values = _int_list(merged["nc"], "--nc", minimum=1)
    rc_values = _float_list(merged["rc"], "--rc", 0.0, 1.0, low_open=True)
    if not grid:
        for flag, values in (
            ("--nt", nt_values),
            ("--st", st_values),
            ("--nc", nc_values),
            ("--rc", rc_values),
        ):
            if len(values) > 1:
                raise UsageError(f"{flag} accepts a single value for {command}")
    tokenizer_config = _tokenizer_config(merged)
    corpus = load_records(_require(merged, "records", command))

    model: CategoryModel | None = None
    text_config: TextClassifierConfig | None = None
    graph: CitationGraph | None = None
    cite_config: CitationClassifierConfig | None = None
    databases: tuple[str, ...] = ()

    if mode in ("text", "combined"):
        model = load_model(_require(merged, "model", command))
        databases = model.databases
    if mode in ("citation", "combined"):
        memberships = load_memberships(_require(merged, "memberships", command))
        if not databases:
            databases = tuple(sorted({db for dbs in memberships.values() for db in dbs}))
            if not databases:
                raise DataError("membership file names no databases")
        known = set(memberships) | set(corpus.ids())
        graph, stats = load_citations(
            _require(merged, "citations", command), known, memberships, databases
        )
        log.info(
            "citations: kept %d edge(s), dropped %d duplicate(s), %d self-citation(s), "
            "%d unknown citer(s)",
            stats.edges_kept,
            stats.duplicates,
            stats.self_citations,
            stats.unknown_citers,
        )
        cite_config = CitationClassifierConfig(
            min_citations=nc_values[0], ratio_threshold=rc_values[0]
        )
    if model is not None:
        triggers = (
            load_triggers(merged["triggers"], databases, tokenizer_config)
            if merged["triggers"]
            else {}
        )
        text_config = TextClassifierConfig(
            min_words=nt_values[0],
            score_threshold=st_values[0],
            triggers=triggers,
            trigger_boost=_float_value(merged["boost"], "--boost", 0.0, 1.0),
        )
    return {
        "corpus": corpus,
        "databases": databases,
        "grids": SweepGrids(nt_values, st_values, nc_values, rc_values) if grid else None,
        # The keyword arguments classify_corpus, evaluate and sweep share.
        "inputs": dict(
            mode=mode,
            model=model,
            text_config=text_config,
            tokenizer_config=tokenizer_config,
            graph=graph,
            cite_config=cite_config,
        ),
    }


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_build_model(merged: dict[str, str | None]) -> int:
    alpha = _float_value(merged["alpha"], "--alpha", 0.0, float("inf"), low_open=True)
    model_path = _require(merged, "model", "build-model")
    tokenizer_config = _tokenizer_config(merged)
    corpus = load_records(_require(merged, "records", "build-model"))
    databases = tuple(sorted({db for r in corpus.records for db in r.gold_labels}))
    if not databases:
        raise DataError("no labeled records to train on")
    try:
        model = build_model(corpus.records, databases, tokenizer_config, alpha=alpha)
    except ValueError as exc:
        raise UsageError(f"--alpha {alpha!r} cannot be used: {exc}") from None
    save_model(model, model_path)
    print(f"records: {len(corpus.records)} ({corpus.skipped} skipped)")
    print(f"databases: {', '.join(databases)}")
    print(f"vocabulary: {model.vocabulary_size} terms")
    print(f"wrote model: {model_path}")
    return 0


def emit_assignments(
    assignments: list[evalhub.Assignment], databases: tuple[str, ...], path: str | Path
) -> None:
    """Write one ``id<TAB>dbs<TAB>via_text<TAB>via_citation`` line per record.

    Database lists are comma-joined in configured order so output is
    byte-identical across runs.  The file is replaced whole, so a failed
    write leaves any earlier file as it was.
    """
    lines = []
    for a in assignments:
        cols = (
            ",".join(db for db in databases if db in a.databases),
            ",".join(db for db in databases if db in a.via_text),
            ",".join(db for db in databases if db in a.via_citation),
        )
        lines.append(f"{a.record_id}\t" + "\t".join(cols) + "\n")
    write_text_atomic(path, "".join(lines), "assignments file")


def _cmd_classify(merged: dict[str, str | None]) -> int:
    parts = _load_classification_inputs(merged, "classify")
    corpus: Corpus = parts["corpus"]
    assignments = evalhub.classify_corpus(corpus.records, **parts["inputs"])
    out = merged["out"]
    emit_assignments(assignments, parts["databases"], out)
    assigned = sum(1 for a in assignments if a.databases)
    print(f"mode: {parts['inputs']['mode']}")
    print(f"records: {len(assignments)} ({corpus.skipped} skipped)")
    print(f"assigned: {assigned} (unassigned: {len(assignments) - assigned})")
    for db in parts["databases"]:
        count = sum(1 for a in assignments if db in a.databases)
        print(f"assigned to {db}: {count}")
    print(f"wrote assignments: {out}")
    return 0


def _cmd_evaluate(merged: dict[str, str | None]) -> int:
    parts = _load_classification_inputs(merged, "evaluate")
    corpus: Corpus = parts["corpus"]
    db = merged["db"]
    if db and db not in parts["databases"]:
        raise DataError(f"database '{db}' is not in the configured set")
    reports = evalhub.evaluate(corpus.records, **parts["inputs"])
    print(f"mode: {parts['inputs']['mode']}")
    print(f"records: {len(corpus.records)} ({corpus.skipped} skipped)")
    for rep in reports:
        if not db or rep.db == db:
            print(
                f"db={rep.db} tp={rep.tp} fp={rep.fp} fn={rep.fn} "
                f"precision={rep.precision:.6f} recall={rep.recall:.6f}"
            )
    return 0


def _cmd_sweep(merged: dict[str, str | None]) -> int:
    db = _require(merged, "db", "sweep")
    parts = _load_classification_inputs(merged, "sweep", grid=True)
    corpus: Corpus = parts["corpus"]
    grid = evalhub.sweep(corpus.records, parts["grids"], db=db, **parts["inputs"])
    out = merged["grid_out"]
    evalhub.emit_grid_csv(grid, out)
    print(f"mode: {grid.mode}")
    print(f"db: {grid.db}")
    print(f"grid points: {len(grid.reports)}")
    print(f"wrote grid: {out}")
    return 0


_COMMANDS = {
    "build-model": _cmd_build_model,
    "classify": _cmd_classify,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
}


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute one subcommand; returns the exit status."""
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits directly for --help; errors raise UsageError.
            return int(exc.code or 0)
        merged = _merge(args)
        return _COMMANDS[args.command](merged)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
