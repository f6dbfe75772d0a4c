"""CSV input and output on a file path or an already open text stream.

Every CSV the package writes or reads, and every output directory it
creates, goes through this module, so the open/close handling and the error
mapping live in one place.  Writers stream one row at a time; a table is
never built as one string in memory.
"""

from __future__ import annotations

import csv
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
        stream = open(target, mode, newline="")
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
    """Write ``header`` and then ``rows``, one row at a time.

    String cells are written as given.  Python ``float`` cells are written as
    ``repr(float)`` by the ``csv`` module, so they read back exactly; pass
    numpy rows through ``.tolist()`` first, because ``np.float64`` has a
    different ``repr``.
    """
    with _opened(target, "w") as stream:
        writer = csv.writer(stream)
        writer.writerow(header)
        writer.writerows(rows)


def read_float_csv(source: Target, what: str, lead: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """Read a CSV of floats whose header starts with the columns ``lead``.

    Returns the header and the non-empty rows as a 2-D array (1-D and empty
    when there are no rows; ragged rows are malformed).  Every defect of the
    content is a :class:`ConfigError` naming ``what`` (say, ``"path CSV"``).
    """
    with _opened(source, "r") as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{what} is empty") from None
        if header[: len(lead)] != list(lead):
            raise ConfigError(f"unrecognised {what} header: {header!r}")
        try:
            rows = np.array([[float(v) for v in row] for row in reader if row])
        except ValueError as exc:
            raise ConfigError(f"malformed {what}: {exc}") from None
    return header, rows
