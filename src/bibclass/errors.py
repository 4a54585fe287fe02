"""Exception hierarchy shared across the package, the one input-file reader and warnings."""

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


# Set by the CLI: the first warning then sets up logging to print on stderr.
_to_stderr = False


def warn_on_stderr() -> None:
    """Have the first :func:`warn` set up logging to print on stderr, as ``LEVEL: message``.

    The setup waits for a warning, so a run that logs none never imports
    :mod:`logging`.  ``bibclass.cli.main`` calls this; the library alone
    leaves logging as the caller set it.
    """
    global _to_stderr
    _to_stderr = True


def warn(logger: str, message: str, *args: object) -> None:
    """Log ``message % args`` as a warning on the named logger, as made by the caller.

    :mod:`logging` is imported here, on the first warning, not when the
    package is.
    """
    global _to_stderr
    import logging

    if _to_stderr:
        logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
        _to_stderr = False
    logging.getLogger(logger).warning(message, *args, stacklevel=2)
