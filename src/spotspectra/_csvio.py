"""Text input and output on a file path or an already open text stream.

Every file the program reads or writes, and every output directory it
creates, goes through this module, so the open/close handling and the error
mapping live in one place.  Rows are written as text and parsed by numpy's
C reader, so no cell is quoted: every cell the package writes is a number or
a plain identifier.  The writer takes cells that are already ``str``; each
caller formats its own floats with ``repr``, which reads back exactly.
Rows are formatted one at a time and written one block of rows at a time,
so a table is never built as one string in memory: a path or matrix writer
formats one row of its array at a time (:func:`float_rows`), because
formatting a path column by column (``tolist()`` of the whole array) holds
every cell as a Python float at once, which raised the peak RSS of a
``simulate``/``spot``/``test`` round trip at p = 102, n = 4680 by about 20 %.
A failure to open, read, write or close a target (a full disk, a device
that cannot be read, a byte that is not UTF-8) is a :class:`ConfigError`
naming it; a closed pipe (:class:`BrokenPipeError`) is passed on unchanged
for the command line to end quietly.
"""

from __future__ import annotations

import csv
import itertools
import os
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO, Union

import numpy as np

from .errors import ConfigError

Target = Union[str, "os.PathLike[str]", TextIO]


# Rows per ``write`` call.  Writing the nine ESD figures of a benchmark pass
# (open to close, in-process, 2 vCPUs of an AVX-512 Xeon) took a median 7.9 ms
# with one call per line and 7.0 ms with one per 128 rows; a block of a
# p = 102 path is about 0.3 MB of text.
_BLOCK_ROWS = 128


@contextmanager
def _opened(target: Target, mode: str) -> Iterator[TextIO]:
    # Paths are opened and closed here; streams are used and left open.  An
    # OSError or a byte that does not decode, at any step, is a ConfigError.
    is_path = isinstance(target, (str, os.PathLike))
    name = os.fspath(target) if is_path else getattr(target, "name", "stream")
    try:
        stream = open(target, mode, encoding="utf-8", newline="") if is_path else nullcontext(target)
        with stream as opened:
            yield opened
    except BrokenPipeError:
        raise
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {name}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        action = "read" if mode == "r" else "write"
        raise ConfigError(f"cannot {action} {name}: {exc.strerror or exc}") from exc


def make_dir(path: Union[str, "os.PathLike[str]"]) -> Path:
    """Create directory ``path`` and its parents unless it exists; return it.

    A directory that exists costs one ``stat``; one that cannot be created
    (say, a parent is a regular file) is a :class:`ConfigError` naming it.
    """
    if not os.path.isdir(path):
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create directory {os.fspath(path)}: {exc.strerror or exc}"
            ) from exc
    return Path(path)


def write_csv(target: Target, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write ``header`` and then ``rows``, one ``\\r\\n``-ended line per row.

    Every cell must already be a ``str`` (a cell of another type raises
    :class:`TypeError`), so each line is one ``",".join(row)``: the bytes
    ``csv.writer`` gives for cells that need no quoting.  Cells must not
    contain a comma, a quote or a line break.  Callers format a float with
    ``repr``, which reads back exactly and is the text ``csv.writer`` gives
    it.  ``rows`` is consumed lazily: each row is formatted as it is pulled,
    and the lines are written one block of up to ``_BLOCK_ROWS`` at a time,
    one ``write`` per block.
    """
    with _opened(target, "w") as stream:
        lines = map(",".join, itertools.chain([header], rows))
        while block := list(itertools.islice(lines, _BLOCK_ROWS)):
            stream.write("\r\n".join(block) + "\r\n")


def float_rows(table: np.ndarray) -> Iterator[list[str]]:
    """The rows of a 2-D float array as :func:`write_csv` cells, each float
    formatted by ``repr``; one row is formatted at a time, as it is written."""
    for row in table:
        yield list(map(repr, row.tolist()))


def read_float_csv(source: Target, what: str, lead: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """Read a CSV of floats whose header starts with the columns ``lead``.

    Returns the header and the rows as a 2-D array with one row per
    non-empty line.  Cells are unquoted numbers with no comments; empty lines
    are skipped.  Every defect of the content (an empty file, a header with
    no rows, a ragged row or a cell that is not a number) is a
    :class:`ConfigError` naming ``what`` (say, ``"path CSV"``).
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
        except (ConfigError, UnicodeDecodeError):
            raise
        except ValueError as exc:  # a ragged row or a cell loadtxt cannot parse
            raise ConfigError(f"malformed {what}: {exc}") from None
    return header, rows
