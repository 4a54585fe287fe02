"""Exception hierarchy shared across the package, and the one input-file reader."""

from __future__ import annotations

import os
from typing import Iterator


class BibclassError(Exception):
    """Base class for all errors raised by bibclass."""


class DataError(BibclassError):
    """Input files or their contents are unusable (CLI exit status 2)."""


class UsageError(BibclassError):
    """The invocation itself is invalid (CLI exit status 1)."""


def read_lines(path: str | os.PathLike, what: str) -> Iterator[tuple[int, str]]:
    """Stream ``(lineno, line)`` pairs of a UTF-8 text file, numbered from 1.

    A leading byte-order mark is dropped, and a line ends only at ``\\n``,
    ``\\r\\n`` or ``\\r``, which the yielded line does not hold.  A file
    that cannot be opened or decoded is a :class:`DataError` naming
    ``what`` was read.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                yield lineno, line.rstrip("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def read_entries(path: str | os.PathLike, what: str) -> Iterator[tuple[int, str]]:
    """The :func:`read_lines` pairs of a hand-edited file's entries.

    Blank lines and lines whose first non-blank character is ``#`` are
    skipped.  An entry is yielded as read, not stripped.
    """
    for lineno, line in read_lines(path, what):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, line
