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
import gc
import math
import os
import sys
from collections import Counter
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from bibclass import evalhub
from bibclass.bayes import TextClassifierConfig, build_model
from bibclass.citegraph import CitationClassifierConfig
from bibclass.corpus import (
    load_citations,
    load_memberships,
    load_model,
    load_records,
    save_model,
    write_text_atomic,
)
from bibclass.errors import DataError, UsageError, read_entries, warn_on_stderr
from bibclass.evalhub import SweepGrids
from bibclass.textpipe import (
    BUNDLED_STOPPHRASES,
    BUNDLED_STOPWORDS,
    TokenizerConfig,
    filter_tokens,
    is_token,
    load_term_list,
    tokenize,
)

CONFIG_ENV_VAR = "BIBCLASS_CONFIG"


def _integer(minimum: int) -> Callable[[str, str], int]:
    """The rule of an integer flag of at least ``minimum``."""

    def parse(value: str, flag: str) -> int:
        try:
            out = int(value)
        except ValueError:
            raise UsageError(f"invalid integer for {flag}: '{value}'") from None
        if out < minimum:
            raise UsageError(f"{flag} must be >= {minimum}, got {out}")
        return out

    return parse


def _real(low: float, high: float, low_open: bool = False) -> Callable[[str, str], float]:
    """The rule of a finite real flag in [low, high], or (low, high] with ``low_open``.

    A signed zero is read as 0.0, so ``-0`` and ``0`` name the same value.
    """

    def parse(value: str, flag: str) -> float:
        try:
            out = float(value)
        except ValueError:
            raise UsageError(f"invalid number for {flag}: '{value}'") from None
        if not math.isfinite(out):
            raise UsageError(f"{flag} must be a finite number, got '{value}'")
        if out < low or out > high or (low_open and out == low):
            bounds = f"({low}, {high}]" if low_open else f"[{low}, {high}]"
            raise UsageError(f"{flag} must be in {bounds}, got {out}")
        return out + 0.0  # -0.0 + 0.0 is 0.0

    return parse


def _mode_value(value: str, flag: str) -> str:
    try:
        evalhub.classifiers_of(value)
    except UsageError as exc:
        raise UsageError(f"{flag}: {exc}") from None
    return value


class _Flag(NamedTuple):
    """One flag's help text, default and value rule.

    ``default`` is the string a config file would supply.  A value flag has
    a ``parse`` rule taking the string and the flag; with ``listable`` the
    sweep command takes a comma-separated list of values, and every other
    command exactly one.
    """

    help: str
    default: str | None = None
    parse: Callable[[str, str], Any] | None = None
    listable: bool = False

    def help_text(self) -> str:
        """The help with the default and the sweep note joined into its parenthetical."""
        notes = [f"default: {self.default}"] if self.default else []
        if self.listable:
            notes.append("sweep accepts a comma-separated list")
        if not notes:
            return self.help
        if self.help.endswith(")"):
            return f"{self.help[:-1]}; {'; '.join(notes)})"
        return f"{self.help} ({'; '.join(notes)})"


# Every flag by name, in the order --help lists them; the flag is "--" plus
# the name with "_" turned into "-", and the name is also its config key.
# --alpha only affects build-model: smoothing is stored in the model and
# reused at scoring time.
_FLAGS = {
    "records": _Flag("records file, one JSON object per line"),
    "model": _Flag("model file path"),
    "citations": _Flag("citation edge file: citing<TAB>cited"),
    "memberships": _Flag("database membership file: record_id<TAB>db1,db2,..."),
    "triggers": _Flag("trigger keyword file: database<TAB>term"),
    "stopwords": _Flag("stop word list, one per line (default: bundled list)"),
    "stopphrases": _Flag("stop phrase list, one per line (default: bundled list)"),
    "mode": _Flag("classifier mode: text, citation or combined", "combined", _mode_value),
    "db": _Flag("database to report on"),
    "nt": _Flag("minimum word count for text classification", "5", _integer(0), listable=True),
    "st": _Flag("text score threshold in [0, 1]", "0.25", _real(0.0, 1.0), listable=True),
    "nc": _Flag(
        "minimum citation count for citation classification", "4", _integer(1), listable=True
    ),
    "rc": _Flag(
        "citation ratio threshold in (0, 1]", "0.5", _real(0.0, 1.0, low_open=True), listable=True
    ),
    "alpha": _Flag(
        "additive smoothing constant for training", "1.0", _real(0.0, math.inf, low_open=True)
    ),
    "boost": _Flag("score boost for trigger keywords", "0.25", _real(0.0, 1.0)),
    "out": _Flag("assignments output path", "assignments.tsv"),
    "grid_out": _Flag("sweep grid CSV path", "grid.csv"),
    "workers": _Flag(
        "accepted and ignored: runs are single-process (must be >= 1)", "1", _integer(1)
    ),
}


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems with exit status 2; we need 1."""

    def error(self, message):
        raise UsageError(self.format_usage() + f"error: {message}")

    def _print_message(self, message, file=None):
        # argparse's writer, except that a failed write raises for main() to report.
        file = file or sys.stderr  # as in argparse: help goes here without a stdout
        if message and file is not None:
            file.write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bibclass",
        description="Classify bibliographic records into subject databases "
        "by word frequencies and citation ratios.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    sub.required = True
    for command, (help_text, names, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        names = names.split()
        for name, flag in _FLAGS.items():
            if name in names:
                p.add_argument(
                    _option(name), dest=name, default=None, metavar="VALUE", help=flag.help_text()
                )
    return parser


# ---------------------------------------------------------------------------
# Config file merge and value parsing.
# ---------------------------------------------------------------------------


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in read_entries(path, "config file"):
        key, sep, value = line.strip().partition("=")
        if not sep:
            raise UsageError(f"bad config line at {path}:{lineno}: expected key=value")
        key = key.strip().replace("-", "_")
        if key not in _FLAGS:
            raise UsageError(f"unknown config key '{key}' at {path}:{lineno}")
        values[key] = value.strip()
    return values


def _settings(args: argparse.Namespace) -> dict[str, Any]:
    """The command's flags, every value flag parsed before any input file is read.

    Explicit flags win over the config file, which wins over defaults.  A
    listable flag's value is a tuple, that of any other value flag a scalar;
    a path flag's value is the string or None.
    """
    env = os.environ.get(CONFIG_ENV_VAR)
    config = _load_config_file(env) if env else {}
    names = _COMMANDS[args.command][1].split()
    settings: dict[str, Any] = {}
    for name, flag in _FLAGS.items():
        if name not in names:
            continue
        value = getattr(args, name)
        if isinstance(value, list):  # argparse reads "--flag=--" as no value at all
            raise UsageError(f"argument {_option(name)}: expected one argument")
        if value is None:
            value = config.get(name, flag.default)
        if flag.listable:
            value = tuple(flag.parse(v.strip(), _option(name)) for v in value.split(","))
            if len(value) > 1 and args.command != "sweep":
                raise UsageError(f"{_option(name)} accepts a single value for {args.command}")
        elif flag.parse:
            value = flag.parse(value, _option(name))
        settings[name] = value
    return settings


def _require(settings: dict[str, Any], key: str, command: str) -> str:
    value = settings.get(key)
    if not value:
        raise UsageError(f"{command} requires {_option(key)}")
    return value


# ---------------------------------------------------------------------------
# Shared input loading.
# ---------------------------------------------------------------------------


def _tokenizer_config(settings: dict[str, Any]) -> TokenizerConfig:
    """The stop lists the flags name, or the bundled list for a flag left unset."""
    return TokenizerConfig(
        stop_words=frozenset(load_term_list(settings["stopwords"] or BUNDLED_STOPWORDS)),
        stop_phrases=frozenset(load_term_list(settings["stopphrases"] or BUNDLED_STOPPHRASES)),
    )


def load_triggers(
    path: str | Path, databases: tuple[str, ...], tokenizer_config: TokenizerConfig
) -> dict[str, set[str]]:
    """Read ``database<TAB>term`` trigger lines into per-database term sets.

    Terms are tokenized the same way documents are, so a hyphenated trigger
    matches the joined token it produces.  A term must tokenize to one word,
    or to one compound (its joined form followed by exactly its parts), and
    the trigger is that word or joined form.  Anything else, and a trigger
    the token filters remove on its own, which could never fire, is
    rejected outright.
    """
    triggers: dict[str, set[str]] = {}
    for lineno, line in read_entries(path, "triggers file"):
        parts = line.strip().split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DataError(
                f"malformed trigger line at {path}:{lineno}: expected database<TAB>term"
            )
        db, term = parts[0].strip(), parts[1].strip().lower()
        if db not in databases:
            raise DataError(
                f"trigger database '{db}' at {path}:{lineno} is not one of {list(databases)}"
            )
        tokens = tokenize(term)
        words = tokenize(term.replace("-", " "))
        if len(words) > 1 and tokens != ["".join(words), *words]:
            raise DataError(
                f"trigger term '{term}' at {path}:{lineno} must be a single word "
                "or hyphenated compound"
            )
        trigger = tokens[0] if tokens else ""
        if not is_token(trigger) or not filter_tokens([trigger], tokenizer_config):
            raise DataError(
                f"trigger term '{term}' at {path}:{lineno} is removed by token filtering"
            )
        triggers.setdefault(db, set()).add(trigger)
    return triggers


def _load_classification_inputs(settings: dict[str, Any], command: str):
    """Load what classify/evaluate/sweep share, opening only the files the mode uses.

    Returns ``(corpus, databases, inputs)``, ``inputs`` being the keyword
    arguments ``classify_corpus``, ``evaluate`` and ``sweep`` share, each
    added as its file is read.  The read order fixes which error is
    reported first: stop lists (in modes that use text), records, model,
    memberships, citations, the ``db`` setting (it must name one of the
    run's databases), triggers.
    """
    uses_text, uses_citations = evalhub.classifiers_of(settings["mode"])
    inputs = dict(mode=settings["mode"])
    if uses_text:
        inputs["tokenizer_config"] = _tokenizer_config(settings)
    corpus = load_records(_require(settings, "records", command))
    databases: tuple[str, ...] = ()
    if uses_text:
        inputs["model"] = load_model(_require(settings, "model", command))
        databases = inputs["model"].databases
    if uses_citations:
        memberships = load_memberships(_require(settings, "memberships", command))
        if not databases:
            databases = tuple(sorted({db for dbs in memberships.values() for db in dbs}))
            if not databases:
                raise DataError("membership file names no databases")
        known = set(memberships) | corpus.ids()
        inputs["graph"], _ = load_citations(
            _require(settings, "citations", command), known, memberships, databases
        )
        inputs["cite_config"] = CitationClassifierConfig(
            min_citations=settings["nc"][0], ratio_threshold=settings["rc"][0]
        )
    db = settings.get("db")
    if db and db not in databases:
        raise DataError(f"database '{db}' is not in the configured set {list(databases)}")
    if uses_text:
        triggers = (
            load_triggers(settings["triggers"], databases, inputs["tokenizer_config"])
            if settings["triggers"]
            else {}
        )
        inputs["text_config"] = TextClassifierConfig(
            min_words=settings["nt"][0],
            score_threshold=settings["st"][0],
            triggers=triggers,
            trigger_boost=settings["boost"],
        )
    return corpus, databases, inputs


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_build_model(settings: dict[str, Any]) -> int:
    alpha = settings["alpha"]
    model_path = _require(settings, "model", "build-model")
    tokenizer_config = _tokenizer_config(settings)
    corpus = load_records(_require(settings, "records", "build-model"))
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


# An assignment's record id, and its (via_text, via_citation) pattern: records
# share few patterns, so each pattern's row suffix is formatted once.
_RECORD_ID = attrgetter("record_id")
_PATTERN = attrgetter("via_text", "via_citation")


def emit_assignments(
    assignments: list[evalhub.Assignment], databases: tuple[str, ...], path: str | Path
) -> None:
    """Write one ``id<TAB>dbs<TAB>via_text<TAB>via_citation`` line per record.

    Database lists are comma-joined in configured order so output is
    byte-identical across runs.  The file is replaced whole, so a failed
    write leaves any earlier file as it was.
    """
    patterns = list(map(_PATTERN, assignments))
    suffixes = {p: _row_suffix(*p, databases) for p in set(patterns)}
    rows = map(str.__add__, map(_RECORD_ID, assignments), map(suffixes.__getitem__, patterns))
    write_text_atomic(path, "".join(rows), "assignments file")


def _row_suffix(via_text: frozenset[str], via_citation: frozenset[str], databases) -> str:
    """The ``<TAB>dbs<TAB>via_text<TAB>via_citation`` end of an assignments row."""
    cols = (
        ",".join(db for db in databases if db in dbs)
        for dbs in (via_text | via_citation, via_text, via_citation)
    )
    return "\t" + "\t".join(cols) + "\n"


def _cmd_classify(settings: dict[str, Any]) -> int:
    corpus, databases, inputs = _load_classification_inputs(settings, "classify")
    assignments = evalhub.classify_corpus(corpus.records, **inputs)
    out = settings["out"]
    emit_assignments(assignments, databases, out)
    patterns = Counter(map(_PATTERN, assignments))
    unions = [(via_text | via_citation, n) for (via_text, via_citation), n in patterns.items()]
    assigned = sum(n for dbs, n in unions if dbs)
    print(f"mode: {settings['mode']}")
    print(f"records: {len(assignments)} ({corpus.skipped} skipped)")
    print(f"assigned: {assigned} (unassigned: {len(assignments) - assigned})")
    for db in databases:
        count = sum(n for dbs, n in unions if db in dbs)
        print(f"assigned to {db}: {count}")
    print(f"wrote assignments: {out}")
    return 0


def _cmd_evaluate(settings: dict[str, Any]) -> int:
    corpus, _, inputs = _load_classification_inputs(settings, "evaluate")
    db = settings["db"]
    reports = evalhub.evaluate(corpus.records, **inputs)
    print(f"mode: {settings['mode']}")
    print(f"records: {len(corpus.records)} ({corpus.skipped} skipped)")
    for rep in reports:
        if not db or rep.db == db:
            print(
                f"db={rep.db} tp={rep.tp} fp={rep.fp} fn={rep.fn} "
                f"precision={rep.precision:.6f} recall={rep.recall:.6f}"
            )
    return 0


def _cmd_sweep(settings: dict[str, Any]) -> int:
    db = _require(settings, "db", "sweep")
    corpus, _, inputs = _load_classification_inputs(settings, "sweep")
    grids = SweepGrids(settings["nt"], settings["st"], settings["nc"], settings["rc"])
    grid = evalhub.sweep(corpus.records, grids, db=db, **inputs)
    out = settings["grid_out"]
    evalhub.emit_grid_csv(grid, out)
    print(f"mode: {grid.mode}")
    print(f"db: {grid.db}")
    print(f"grid points: {len(grid.reports)}")
    print(f"wrote grid: {out}")
    return 0


# Each command's help text, flag names and handler.
_SCORING = (
    "records model citations memberships triggers stopwords stopphrases "
    "mode nt st nc rc boost workers"
)
_COMMANDS = {
    "build-model": (
        "train a model from labeled records",
        "records model stopwords stopphrases alpha",
        _cmd_build_model,
    ),
    "classify": ("assign records to databases", f"{_SCORING} out", _cmd_classify),
    "evaluate": ("score assignments against the records' labels", f"{_SCORING} db", _cmd_evaluate),
    "sweep": ("evaluate one database over a parameter grid", f"{_SCORING} db grid_out", _cmd_sweep),
}


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute one subcommand; returns the exit status."""
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits directly for --help; errors raise UsageError.
            return int(exc.code or 0)
        return _COMMANDS[args.command][2](_settings(args))
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    warn_on_stderr()
    # One run is one short-lived process whose records, tables and
    # assignments hold no reference cycles, so the cyclic collector only
    # rescans them.  On a 40,330-record classify it ran about 520/47/4
    # collections of generations 0/1/2 for 0.33-0.36 s, most of it in the
    # four full ones, and found nothing it could free but argparse's parser
    # (377 objects, at 4k records as at 40k).  Reference counting still
    # frees everything else; run() and the library leave the collector as
    # the caller set it.
    gc.disable()
    try:
        status = run(sys.argv[1:])
        if sys.stdout is not None:  # None when the process started without it
            sys.stdout.flush()
    except (OSError, UnicodeEncodeError) as exc:
        # run() reports every file it cannot read or write as a DataError and
        # writes only encodable text to files (record ids and labels are
        # checked, the model and memberships files are read as UTF-8), so
        # this is standard output failing (a closed pipe, a full device, a
        # name its encoding lacks letters for), reported the same way.
        # Standard output then points at os.devnull, so the flush at exit
        # finds nothing left to fail on.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        status = 2
    sys.exit(status)


if __name__ == "__main__":
    main()
