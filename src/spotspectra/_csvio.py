"""CSV input and output on a file path or an already open text stream.

Every CSV the package writes or reads, and every output directory it
creates, goes through this module, so the open/close handling and the error
mapping live in one place.  Rows are joined with ``str`` and parsed by
numpy's C reader, so no cell is quoted: every cell the package writes is a
float, an int or a plain identifier.  Writers stream one row at a time; a
table is never built as one string in memory.
"""

from __future__ import annotations

import csv
import itertools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO, Union

import numpy as np

from .errors import ConfigError

Target = Union[str, "os.PathLike[str]", TextIO]


@contextmanager
def _opened(target: Target, mode: str) -> Iterator[TextIO]:
    # Paths are opened and closed here; streams are used and left open.
    if not isinstance(target, (str, os.PathLike)):
        yield target
        return
    try:
        stream = open(target, mode, encoding="utf-8", newline="")
    except OSError as exc:
        action = "read" if mode == "r" else "write"
        raise ConfigError(f"cannot {action} {os.fspath(target)}: {exc.strerror or exc}") from exc
    with stream:
        yield stream


def make_dir(path: Union[str, "os.PathLike[str]"]) -> Path:
    """Create directory ``path`` and its parents unless it exists; return it.

    A directory that cannot be created (say, a parent is a regular file) is a
    :class:`ConfigError` naming the path.
    """
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create directory {os.fspath(path)}: {exc.strerror or exc}"
        ) from exc
    return Path(path)


def write_csv(target: Target, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write ``header`` and then ``rows``, one ``\\r\\n``-ended line per row.

    Each line is ``",".join(map(str, row))``, the bytes ``csv.writer`` gives
    for cells that need no quoting, so cells must not contain a comma, a
    quote or a line break.  ``str`` of a Python ``float`` is its ``repr``,
    which reads back exactly; pass numpy rows through ``.tolist()`` first.
    """
    with _opened(target, "w") as stream:
        lines = itertools.chain([header], rows)
        stream.writelines(",".join(map(str, row)) + "\r\n" for row in lines)


def read_float_csv(source: Target, what: str, lead: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """Read a CSV of floats whose header starts with the columns ``lead``.

    Returns the header and the rows as a 2-D array with one row per
    non-empty line.  Cells are unquoted numbers with no comments; empty lines
    are skipped.  Every defect of the content (an empty file, a header with
    no rows, a ragged row or a cell that is not a number) is a
    :class:`ConfigError` naming ``what`` (say, ``"path CSV"``); a byte that
    is not UTF-8 is one naming the file as well.
    """
    with _opened(source, "r") as stream:
        # The text layer decodes lazily, so any read below can hit a bad byte.
        try:
            header = next(csv.reader(stream), None)
            if header is None:
                raise ConfigError(f"{what} is empty")
            if header[: len(lead)] != list(lead):
                raise ConfigError(f"unrecognised {what} header: {header!r}")
            # loadtxt warns and returns no rows on a body without data: find
            # the first data line here instead.
            first = next((line for line in stream if line.strip("\r\n")), None)
            if first is None:
                raise ConfigError(f"{what} has a header but no rows")
            rows = np.loadtxt(
                itertools.chain([first], stream), delimiter=",", comments=None, ndmin=2
            )
        except UnicodeDecodeError as exc:
            name = getattr(stream, "name", "stream")
            raise ConfigError(f"{what} {name} is not UTF-8 text: {exc.reason}") from None
        except ConfigError:
            raise
        except ValueError as exc:  # a ragged row or a cell loadtxt cannot parse
            raise ConfigError(f"malformed {what}: {exc}") from None
    return header, rows
