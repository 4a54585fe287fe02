"""Set-up probe: what the CLI does before it scores, in a fresh interpreter.

Usage: ``setup_probe.py RECORDS [MODEL MEMBERSHIPS CITATIONS]``.  It imports
the CLI module (and with it the whole package), builds the default
tokenizer configuration and runs the public loaders on the workload's
inputs.  The benchmark times it from spawn to exit.
"""

import sys

import bibclass.cli  # noqa: F401  (the import is part of what is timed)
from bibclass import corpus, textpipe


def main(argv: list[str]) -> None:
    textpipe.default_tokenizer_config()
    records = corpus.load_records(argv[0])
    if len(argv) == 4:
        model = corpus.load_model(argv[1])
        members = corpus.load_memberships(argv[2])
        known = set(members) | records.ids()
        corpus.load_citations(argv[3], known, members, model.databases)


if __name__ == "__main__":
    main(sys.argv[1:])
