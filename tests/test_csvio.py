"""CSV writer and reader: bytes, exact round trips and rejected content.

The writer must give the bytes ``csv.writer`` gives for the same rows; the
oracle is built here with the ``csv`` module itself.
"""

import csv
import errno
import io
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from spotspectra import (
    Alternative,
    ConfigError,
    GridConfig,
    MCConfig,
    VolModel,
    evaluate_tests,
    increments,
    read_matrix_csv,
    read_path_csv,
    run_esd_figure,
    run_power_experiment,
    run_qq_figure,
    run_size_experiment,
    simulate_path,
    spot_vol,
    write_matrix_csv,
    write_path_csv,
    write_power_table,
    write_report_csv,
    write_size_table,
)
from spotspectra import estimators, harness, hdtests, simkit
from spotspectra._csvio import _BLOCK_ROWS, make_dir, read_float_csv, write_csv

_SPECIAL = [-0.0, 5e-324, 1e308, -1e308, 1.0, 3.0, -2.0, 2.0**53, 1e16, 1e-5, 0.1, 1 / 3]


def _csv_writer_text(header, rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@pytest.fixture
def recorded_writes(monkeypatch):
    """Every ``write_csv`` call of the package's writers as ``(target, header, rows)``."""
    calls = []

    def recording(target, header, rows):
        rows = list(rows)
        calls.append((target, list(header), rows))
        write_csv(target, header, rows)

    for module in (simkit, estimators, hdtests, harness):
        monkeypatch.setattr(module, "write_csv", recording)
    return calls


def test_writers_give_csv_writer_bytes(tmp_path, recorded_writes):
    # Each recorded row is written and then replayed to csv.writer, so it must
    # be a list or a tuple, not a one-shot iterator.
    path = simulate_path(GridConfig(n=100, p=3, seed=4), VolModel.deterministic_sin(0.0009, 0.0004))
    write_path_csv(path, tmp_path / "path.csv")
    est = spot_vol(increments(path), 0.0, 10)
    write_matrix_csv(est.matrix, tmp_path / "spot.csv")
    write_report_csv(evaluate_tests(est), tmp_path / "report.csv")
    small = dict(reps=4, n=400, p_list=(8,))
    write_size_table([run_size_experiment(MCConfig(seed=1, **small))], tmp_path / "size.csv")
    power = run_power_experiment(MCConfig(seed=2, alternative=Alternative(s=0.5), **small))
    write_power_table([power], tmp_path / "power.csv")
    run_esd_figure(MCConfig(seed=3, **small), tmp_path)
    run_qq_figure(MCConfig(seed=5, **small), tmp_path)

    names = {target.name for target, _, _ in recorded_writes}
    assert {"path.csv", "spot.csv", "report.csv", "size.csv", "power.csv", "esd_p8.csv"} <= names
    assert any(name.startswith("qq_") for name in names)
    for target, header, rows in recorded_writes:
        assert rows, target
        assert all(isinstance(row, (list, tuple)) for row in rows), target.name
        assert target.read_bytes() == _csv_writer_text(header, rows).encode(), target.name


def test_path_writer_streams_one_row_at_a_time(tmp_path):
    # Formatting the path column by column (one tolist() of the whole array)
    # holds every cell as a Python float at once, several times the array.
    grid = GridConfig(n=5000, p=50, seed=3)
    path = simulate_path(grid, VolModel.deterministic_sin(0.0009, 0.0))
    tracemalloc.start()
    try:
        write_path_csv(path, tmp_path / "path.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.values.nbytes


class _RecordingStream(io.StringIO):
    """A text stream that records the text of each ``write`` call."""

    def __init__(self):
        super().__init__(newline="")
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def _block_rows(count):
    return [[str(i), repr(i / 7), "id"] for i in range(count)]


_COUNTS = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]


@pytest.mark.parametrize("count", _COUNTS)
def test_block_writer_gives_csv_writer_bytes_to_a_path_and_a_stream(tmp_path, count):
    rows = _block_rows(count)
    expected = _csv_writer_text(["i", "x", "name"], rows)
    out = tmp_path / "rows.csv"
    write_csv(out, ["i", "x", "name"], iter(rows))
    assert out.read_bytes() == expected.encode()
    buf = io.StringIO(newline="")
    write_csv(buf, ["i", "x", "name"], iter(rows))
    assert buf.getvalue() == expected


@pytest.mark.parametrize("count", _COUNTS)
def test_block_writer_makes_one_write_per_block(count):
    stream = _RecordingStream()
    write_csv(stream, ["i", "x", "name"], _block_rows(count))
    assert len(stream.writes) <= math.ceil((count + 1) / _BLOCK_ROWS)
    assert "".join(stream.writes) == _csv_writer_text(["i", "x", "name"], _block_rows(count))


def test_block_writer_pulls_at_most_one_block_before_its_first_write():
    pulled = []

    def rows():
        for row in _block_rows(3 * _BLOCK_ROWS):
            pulled.append(row)
            yield row

    class Stream(_RecordingStream):
        def write(self, text):
            if not self.writes:
                self.pulled_at_first_write = len(pulled)
            return super().write(text)

    stream = Stream()
    write_csv(stream, ["i", "x", "name"], rows())
    assert 0 < stream.pulled_at_first_write <= _BLOCK_ROWS
    assert len(pulled) == 3 * _BLOCK_ROWS


def test_a_failed_write_to_a_stream_is_a_config_error():
    # A stream is named by its name attribute; a StringIO has none.
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    class NamedFull(Full):
        name = "full.csv"

    with pytest.raises(ConfigError, match="^cannot write stream: No space left on device$"):
        write_csv(Full(), ["a"], [["1"]])
    with pytest.raises(ConfigError, match="^cannot write full.csv: No space left on device$"):
        write_csv(NamedFull(), ["a"], [])


def test_a_failed_read_of_a_stream_is_a_config_error():
    # csv.reader pulls lines through __next__, the body's scan through
    # iteration too, so every read of the stream fails.
    class Unreadable(io.StringIO):
        def __next__(self):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        read = readline = __next__

    class NamedUnreadable(Unreadable):
        name = "mem.csv"

    with pytest.raises(ConfigError, match="^cannot read stream: Input/output error$"):
        read_float_csv(Unreadable("t,x1\n0.0,1.0\n"), "path CSV", ("t", "x1"))
    with pytest.raises(ConfigError, match="^cannot read mem.csv: Input/output error$"):
        read_float_csv(NamedUnreadable(""), "path CSV", ("t", "x1"))
    # A byte that does not decode fails the read that meets it the same way.
    class Named(io.BytesIO):
        name = "bad.csv"

    for raw, name in ((io.BytesIO, "stream"), (Named, "bad.csv")):
        stream = io.TextIOWrapper(raw(b"t,x1\n\xff0.0,1.0\n"), encoding="utf-8", newline="")
        with pytest.raises(ConfigError, match=rf"^cannot read {name}: not UTF-8 text \(invalid start byte\)$"):
            read_float_csv(stream, "path CSV", ("t", "x1"))


def test_a_closed_pipe_is_passed_on_unchanged():
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    with pytest.raises(BrokenPipeError):
        write_csv(Closed(), ["a"], [["1"]])


def test_special_floats_give_csv_writer_bytes():
    # The float writers format each cell with repr, which must give the bytes
    # csv.writer gives for the floats themselves.
    matrix = np.array(_SPECIAL + [7.0, 0.0, -0.5, 2.5]).reshape(4, 4)
    buf = io.StringIO(newline="")
    write_matrix_csv(matrix, buf)
    assert buf.getvalue() == _csv_writer_text(["c1", "c2", "c3", "c4"], matrix.tolist())
    assert buf.getvalue().splitlines()[1:3] == [
        "-0.0,5e-324,1e+308,-1e+308", "1.0,3.0,-2.0,9007199254740992.0"
    ]


def test_write_csv_takes_only_str_cells():
    rows = [["7", "bjyz", "0.0", "-0.5"], []]
    buf = io.StringIO(newline="")
    write_csv(buf, ["a", "b"], rows)
    assert buf.getvalue() == _csv_writer_text(["a", "b"], rows)
    for cell in (7, 0.5, np.float64(0.5), None):
        with pytest.raises(TypeError):
            write_csv(io.StringIO(newline=""), ["a", "b"], [["x", cell]])


def test_special_floats_read_back_exactly():
    matrix = np.array(_SPECIAL).reshape(3, 4)[:, :3]
    buf = io.StringIO(newline="")
    write_matrix_csv(matrix, buf)
    back = read_matrix_csv(io.StringIO(buf.getvalue(), newline=""))
    assert np.array_equal(back, matrix)
    assert np.array_equal(np.signbit(back), np.signbit(matrix))


@pytest.mark.parametrize("newline", ["\r\n", "\n"])
def test_round_trip_is_exact_from_path_and_stream(tmp_path, newline):
    path = simulate_path(GridConfig(n=200, p=4, seed=9), VolModel.stochastic_bm(0.0009, 0.3))
    matrix = spot_vol(increments(path), 0.25, 14).matrix
    path_csv, matrix_csv = tmp_path / "path.csv", tmp_path / "spot.csv"
    write_path_csv(path, path_csv)
    write_matrix_csv(matrix, matrix_csv)
    for written in (path_csv, matrix_csv):
        text = written.read_bytes().decode()
        assert text.count("\r\n") == text.count("\n")
        written.write_bytes(text.replace("\r\n", newline).encode())

    for source in (path_csv, str(path_csv)):
        grid, values = read_path_csv(source)
        assert np.array_equal(grid, path.grid) and np.array_equal(values, path.values)
    for newline_mode in ("", None):
        with open(path_csv, newline=newline_mode) as stream:
            grid, values = read_path_csv(stream)
        assert np.array_equal(grid, path.grid) and np.array_equal(values, path.values)
        with open(matrix_csv, newline=newline_mode) as stream:
            assert np.array_equal(read_matrix_csv(stream), matrix)
    assert np.array_equal(read_matrix_csv(matrix_csv), matrix)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "path CSV is empty"),
        ("t,x1\r\n", "path CSV has a header but no rows"),
        ("t,x1\n\n\r\n", "path CSV has a header but no rows"),
        ("t,x1\n0.0,1.0\n0.5\n", "malformed path CSV"),
        ("t,x1\n0.0,zap\n", "malformed path CSV"),
        ("t,x1\n0.0,\n", "malformed path CSV"),
        ("t,x1\n0.0,1.0#2\n", "malformed path CSV"),
        ("t,x1\n0.0,1.0\n#0.5,1.0\n", "malformed path CSV"),
        ("x1,t\n0.0,1.0\n", "unrecognised path CSV header"),
    ],
    ids=["empty", "header-only", "header-blank-lines", "ragged", "zap", "empty-cell",
         "hash-in-cell", "hash-row", "header"],
)
def test_reader_defects_are_config_errors(text, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=message):
            read_float_csv(io.StringIO(text, newline=""), "path CSV", ("t", "x1"))


def test_path_csv_with_one_row_is_a_config_error():
    with pytest.raises(ConfigError, match="path CSV must contain at least two complete rows"):
        read_path_csv(io.StringIO("t,x1\r\n0.0,1.0\r\n", newline=""))


def test_writing_a_non_square_matrix_is_a_config_error():
    with pytest.raises(ConfigError, match=r"expected a square matrix, got shape \(2, 3\)"):
        write_matrix_csv(np.ones((2, 3)), io.StringIO())


def test_blank_lines_between_rows_are_skipped():
    text = "t,x1\r\n\r\n0.0,1.5\r\n\r\n\r\n0.5,-2.5\n\n1.0,3.0"
    header, rows = read_float_csv(io.StringIO(text, newline=""), "path CSV", ("t", "x1"))
    assert header == ["t", "x1"]
    assert rows.tolist() == [[0.0, 1.5], [0.5, -2.5], [1.0, 3.0]]


def test_one_column_reads_as_2d():
    _, rows = read_float_csv(io.StringIO("c1\n2.5\n"), "matrix CSV", ("c1",))
    assert rows.shape == (1, 1)
    assert np.array_equal(read_matrix_csv(io.StringIO("c1\n2.5\n")), [[2.5]])


def test_make_dir_returns_an_existing_directory_without_creating(tmp_path, monkeypatch):
    def makedirs(*args, **kwargs):
        raise AssertionError("os.makedirs called on an existing directory")

    monkeypatch.setattr(os, "makedirs", makedirs)
    assert make_dir(tmp_path) == tmp_path
    assert make_dir(str(tmp_path)) == tmp_path


def test_make_dir_creates_a_missing_nested_path(tmp_path):
    out = tmp_path / "a" / "b"
    assert make_dir(out) == out
    assert out.is_dir()


def test_make_dir_on_a_regular_file_is_a_config_error(tmp_path):
    path = tmp_path / "file"
    path.write_text("x")
    with pytest.raises(ConfigError) as raised:
        make_dir(path)
    assert str(raised.value).startswith(f"cannot create directory {path}: ")
    assert path.read_text() == "x"
