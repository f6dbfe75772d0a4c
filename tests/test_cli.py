"""End-to-end tests for the command line interface.

Each test drives ``cli.main`` with an argv list, in-process except where
the test needs the real standard error, and checks exit codes, printed
output, and written files against the library API.
"""

import csv
import dataclasses
import errno
import hashlib
import io
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spotspectra import (
    Alternative,
    GridConfig,
    MCConfig,
    SingularEstimateError,
    TestReport,
    VolModel,
    evaluate_tests,
    read_matrix_csv,
    read_path_csv,
    rescale,
    run_power_experiment,
    run_size_experiment,
    simulate_path,
    spot_vol,
    write_matrix_csv,
    write_path_csv,
    write_power_table,
    write_size_table,
)
import spotspectra
from spotspectra import _blas, cli, harness
from spotspectra.cli import main


def _src_env():
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(spotspectra.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_simulate_matches_api(tmp_path):
    out = tmp_path / "path.csv"
    rc = main(
        ["simulate", "--n", "64", "--p", "3", "--seed", "5", "--r1", "0.0004",
         "--out", str(out)]
    )
    assert rc == 0
    expected = tmp_path / "expected.csv"
    path = simulate_path(
        GridConfig(n=64, p=3, seed=5), VolModel.deterministic_sin(0.0009, 0.0004)
    )
    write_path_csv(path, str(expected))
    assert out.read_text() == expected.read_text()


def test_simulate_stdout_default(tmp_path, capsys):
    out = tmp_path / "path.csv"
    argv = ["simulate", "--n", "16", "--p", "2", "--seed", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.replace("\r\n", "\n") == out.read_text()


def test_simulate_kind_validation(capsys):
    rc = main(["simulate", "--n", "16", "--p", "2", "--kind", "nope"])
    assert rc == 2
    assert "error: argument --kind: invalid choice: 'nope'" in capsys.readouterr().err


def test_simulate_diag_rejected_for_scalar_kind(capsys):
    rc = main(["simulate", "--n", "16", "--p", "2", "--diag", "1,2"])
    assert rc == 2
    assert "does not take a diag vector" in capsys.readouterr().err


def test_simulate_constant_diag_requires_diag(capsys):
    rc = main(["simulate", "--n", "16", "--p", "2", "--kind", "constant-diag"])
    assert rc == 2
    assert "requires a nonempty diag vector" in capsys.readouterr().err


# The bytes `simulate --kind constant-diag` wrote while that kind had its own
# variance branch; it is now a name for piecewise-diag with r1 = 0.
_DIAG_PATH_SHA256 = "b4c8cef24437e03525603dc17d98ca7e5cdc1ce34cac3715c26dc17d452fc6bb"


@pytest.mark.parametrize("kind", ["constant-diag", "piecewise-diag"])
def test_simulate_diag_kinds_write_pinned_bytes(tmp_path, kind):
    out = tmp_path / "path.csv"
    rc = main(
        ["simulate", "--kind", kind, "--n", "200", "--p", "3", "--diag", "0.4,0.9,1.6",
         "--seed", "8", "--replication", "2", "--out", str(out)]
    )
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _DIAG_PATH_SHA256


def test_simulate_diag_length_must_match_p(capsys):
    rc = main(["simulate", "--n", "16", "--p", "3", "--kind", "piecewise-diag", "--diag", "1,2"])
    assert rc == 2
    assert "error: diag has length 2, expected p = 3" in capsys.readouterr().err


@pytest.mark.parametrize("amplitude", ["--r1", "--r2"])
def test_simulate_constant_diag_rejects_amplitudes(capsys, amplitude):
    rc = main(
        ["simulate", "--n", "16", "--p", "2", "--kind", "constant-diag", "--diag", "1,2",
         amplitude, "0.1"]
    )
    assert rc == 2
    assert "does not use r1 or r2" in capsys.readouterr().err


def test_bad_int_value_exits_2(capsys):
    rc = main(["simulate", "--n", "zap", "--p", "2"])
    assert rc == 2
    assert "error: argument --n: invalid int value: 'zap'" in capsys.readouterr().err


def test_spot_matches_api(tmp_path):
    path_csv = tmp_path / "path.csv"
    main(["simulate", "--n", "64", "--p", "3", "--seed", "7", "--out", str(path_csv)])
    out = tmp_path / "spot.csv"
    rc = main(["spot", "--path", str(path_csv), "--k-n", "8", "--out", str(out)])
    assert rc == 0
    path = simulate_path(
        GridConfig(n=64, p=3, seed=7), VolModel.deterministic_sin(0.0009, 0.0)
    )
    est = spot_vol(np.diff(path.values, axis=1), 0.0, 8)
    np.testing.assert_array_equal(read_matrix_csv(str(out)), est.matrix)


def test_spot_default_window_is_isqrt(tmp_path):
    path_csv = tmp_path / "path.csv"
    main(["simulate", "--n", "64", "--p", "2", "--seed", "2", "--out", str(path_csv)])
    explicit = tmp_path / "a.csv"
    default = tmp_path / "b.csv"
    main(["spot", "--path", str(path_csv), "--k-n", "8", "--out", str(explicit)])
    main(["spot", "--path", str(path_csv), "--out", str(default)])
    assert default.read_text() == explicit.read_text()


def test_test_subcommand_runs_all_kinds(tmp_path):
    path_csv = tmp_path / "path.csv"
    spot_csv = tmp_path / "spot.csv"
    main(["simulate", "--n", "64", "--p", "3", "--seed", "3", "--out", str(path_csv)])
    main(["spot", "--path", str(path_csv), "--out", str(spot_csv)])
    out = tmp_path / "reports.csv"
    rc = main(["test", "--matrix", str(spot_csv), "--k-n", "8", "--out", str(out)])
    assert rc == 0
    rows = _rows(out)
    assert tuple(rows[0]) == TestReport.CSV_HEADER
    assert [row[0] for row in rows[1:]] == ["bjyz", "lw", "j"]
    assert all(row[1] == "3" and row[2] == "8" for row in rows[1:])


def test_test_scale_is_transparent_to_j(tmp_path):
    path_csv = tmp_path / "path.csv"
    spot_csv = tmp_path / "spot.csv"
    main(["simulate", "--n", "64", "--p", "3", "--seed", "4", "--out", str(path_csv)])
    main(["spot", "--path", str(path_csv), "--out", str(spot_csv)])
    plain = tmp_path / "plain.csv"
    scaled = tmp_path / "scaled.csv"
    base = ["test", "--matrix", str(spot_csv), "--k-n", "8", "--kind", "j"]
    main(base + ["--out", str(plain)])
    rc = main(base + ["--scale", "4.0", "--out", str(scaled)])
    assert rc == 0
    assert scaled.read_text() == plain.read_text()


def test_test_scale_multiplies_by_the_reciprocal_as_rescale_does(tmp_path):
    # --scale S reports what evaluate_tests(rescale(est, 1 / S)) reports, bit
    # for bit; dividing by S changes the last bits for a non-dyadic S.
    path_csv, spot_csv, report_csv = (tmp_path / f"{stem}.csv" for stem in ("path", "spot", "report"))
    assert main(["simulate", "--n", "400", "--p", "8", "--seed", "8", "--out", str(path_csv)]) == 0
    assert main(["spot", "--path", str(path_csv), "--k-n", "20", "--out", str(spot_csv)]) == 0
    argv = ["test", "--matrix", str(spot_csv), "--k-n", "20", "--scale", "0.0009"]
    assert main(argv + ["--out", str(report_csv)]) == 0
    with open(report_csv, newline="") as fh:
        zscores = [float(row["zscore"]) for row in csv.DictReader(fh)]
    incr = np.diff(read_path_csv(str(path_csv))[1], axis=1)
    reports = evaluate_tests(rescale(spot_vol(incr, 0.0, 20), 1 / 0.0009))
    assert zscores == [report.zscore for report in reports]


def test_test_scale_checks_the_file_matrix_once(tmp_path, monkeypatch):
    # rescale keeps the estimate's symmetry, and the PSD check takes the
    # checked matrix, so neither checks it again
    matrix = tmp_path / "m.csv"
    write_matrix_csv(np.diag([1.0, 2.0, 3.0]), str(matrix))
    checked = []
    real = spotspectra.spectra.checked_symmetric
    for module in (spotspectra.estimators, spotspectra.spectra):
        monkeypatch.setattr(module, "checked_symmetric",
                            lambda m, name: checked.append(name) or real(m, name))
    rc = main(["test", "--matrix", str(matrix), "--k-n", "8", "--scale", "0.5",
               "--out", str(tmp_path / "report.csv")])
    assert rc == 0
    assert checked == ["estimate matrix"]


def test_test_scale_without_a_finite_reciprocal_exits_2(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    write_matrix_csv(np.eye(2), str(matrix))
    rc = main(["test", "--matrix", str(matrix), "--k-n", "4", "--scale", "1e-310"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --scale needs a finite reciprocal, got 1e-310\n"


def test_test_scale_that_overflows_the_estimate_exits_3(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    write_matrix_csv(1e10 * np.eye(2), str(matrix))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["test", "--matrix", str(matrix), "--k-n", "4", "--scale", "1e-300"])
    assert rc == 3
    assert capsys.readouterr().err == "numerical failure: estimate is not finite\n"


def test_test_matrix_whose_frobenius_norm_overflows_exits_3_with_one_line(tmp_path, capsys):
    # a finite PSD matrix with a finite spectrum, but ||A||_F**2 and tr(A) overflow
    matrix = tmp_path / "m.csv"
    write_matrix_csv(np.array([[1e308, 5e307], [5e307, 1e308]]), str(matrix))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["test", "--matrix", str(matrix), "--k-n", "20"])
    assert rc == 3
    assert capsys.readouterr().err == (
        "numerical failure: ||A - I||_F**2 = inf: estimate is not finite\n"
    )


def test_spot_overflow_exits_3_with_one_line(tmp_path, capsys):
    # increments of about 1e160 overflow the Gram: a numerical failure, not
    # bad input, and no numpy warning
    path = tmp_path / "path.csv"
    path.write_text("t,x1\n0.0,0.0\n0.25,1e160\n0.5,0.0\n0.75,1e160\n1.0,0.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["spot", "--path", str(path)])
    assert rc == 3
    assert capsys.readouterr().err == "numerical failure: estimate is not finite\n"


def test_spot_on_a_path_whose_increments_overflow_exits_2_with_one_line(tmp_path, capsys):
    # 1e308 - (-1e308) is not a float: bad input, reported without a numpy warning
    path = tmp_path / "path.csv"
    path.write_text("t,x1\n0.0,1e308\n0.5,-1e308\n1.0,1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["spot", "--path", str(path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: increment matrix contains non-finite entries\n"


def test_test_indefinite_matrix_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    write_matrix_csv(np.diag([1.0, -1.0]), str(bad))
    rc = main(["test", "--matrix", str(bad), "--k-n", "4"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure:")
    # lw alone would give a finite statistic: the matrix itself is rejected
    rc = main(["test", "--matrix", str(bad), "--k-n", "4", "--kind", "lw"])
    assert rc == 3
    assert "not positive semidefinite" in capsys.readouterr().err


def test_test_nonpositive_scale_exits_2(tmp_path, capsys):
    bad = tmp_path / "m.csv"
    write_matrix_csv(np.eye(2), str(bad))
    rc = main(["test", "--matrix", str(bad), "--k-n", "4", "--scale", "0"])
    assert rc == 2
    assert "--scale must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
def test_test_nonfinite_or_nonpositive_scale_exits_2(tmp_path, capsys, scale):
    matrix = tmp_path / "m.csv"
    write_matrix_csv(np.eye(2), str(matrix))
    rc = main(["test", "--matrix", str(matrix), "--k-n", "4", "--scale", scale])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"--scale must be positive and finite, got {float(scale)!r}" in err
    assert "matrix" not in err


def test_test_zero_window_exits_2(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    write_matrix_csv(np.eye(2), str(matrix))
    assert main(["test", "--matrix", str(matrix), "--k-n", "0"]) == 2
    assert capsys.readouterr().err == "error: k_n must be a positive integer, got 0\n"


@pytest.mark.parametrize("command", ["spot", "esd", "mc-size", "qq", "mc-power"])
def test_overflowing_anchor_time_exits_2(tmp_path, capsys, command):
    # t is finite, but t * n is not: no window start exists
    if command == "spot":
        path_csv = tmp_path / "path.csv"
        main(["simulate", "--n", "64", "--p", "2", "--out", str(path_csv)])
        rest = ["--path", str(path_csv)]
    else:
        rest = ["--seed", "0", "--out-dir", str(tmp_path / "out")]
    capsys.readouterr()
    assert main([command, "--t", "1e308"] + rest) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: window start t * n is not finite: t = 1e+308, n = ")
    assert err.count("\n") == 1


def test_missing_input_csv_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["spot", "--path", str(missing)]) == 2
    assert f"error: cannot read {missing}:" in capsys.readouterr().err


def _spot_input(tmp_path):
    path_csv = tmp_path / "good.csv"
    main(["simulate", "--n", "2000", "--p", "3", "--out", str(path_csv)])
    return path_csv, ["spot", "--path"], []


def _test_input(tmp_path):
    matrix_csv = tmp_path / "good.csv"
    g = np.random.default_rng(0).standard_normal((80, 200))
    write_matrix_csv(g @ g.T / 200, str(matrix_csv))
    return matrix_csv, ["test", "--matrix"], ["--k-n", "200"]


@pytest.mark.parametrize("make_input", [_spot_input, _test_input])
@pytest.mark.parametrize("past_64k", [False, True])
def test_non_utf8_input_csv_exits_2(tmp_path, capsys, make_input, past_64k):
    good, command, rest = make_input(tmp_path)
    assert main(command + [str(good)] + rest + ["--out", str(tmp_path / "out.csv")]) == 0
    data = good.read_bytes()
    # at the start of a line, so the text around the bad byte is still numbers
    at = data.index(b"\n", 64 * 1024) + 1 if past_64k else 0
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data[:at] + b"\xff" + data[at:])
    capsys.readouterr()
    assert main(command + [str(bad)] + rest) == 2
    assert f"{bad} is not UTF-8 text" in capsys.readouterr().err


def test_unwritable_output_csv_exits_2(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "path.csv"
    assert main(["simulate", "--n", "16", "--p", "2", "--out", str(out)]) == 2
    assert f"error: cannot write {out}:" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_output_to_a_full_device_exits_2(capsys):
    assert main(["simulate", "--n", "10", "--p", "2", "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err == "error: cannot write /dev/full: No space left on device\n"


def test_a_full_standard_output_exits_2(capsys, monkeypatch):
    # The last block of standard output is written when main flushes it.
    class Full(io.StringIO):
        name = "<stdout>"

        def flush(self):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["simulate", "--n", "10", "--p", "2"]) == 2
    assert capsys.readouterr().err == "error: cannot write <stdout>: No space left on device\n"


def test_a_closed_standard_output_exits_1_quietly():
    # A process of its own, so that pointing fd 1 at devnull leaves this
    # process's standard output alone.  The path (about 10 MB) fills the pipe
    # long before it is written, so the write after the close fails.
    code = "import sys; from spotspectra import cli; sys.exit(cli.main(sys.argv[1:]))"
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "simulate", "--n", "4680", "--p", "102"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == 1
    assert first.startswith(b"t,x1,x2,") and err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["mc-size", "--reps", "1"],
        ["mc-power", "--reps", "1", "--s", "0.5"],
        ["esd"],
        ["qq", "--reps", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_uncreatable_out_dir_exits_2(tmp_path, capsys, monkeypatch, argv):
    # mc-size and mc-power must create the directory before the sweep runs
    swept = []
    for module in (cli, harness):
        monkeypatch.setattr(module, "_run_experiments", lambda cfgs: swept.append(cfgs))
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out_dir = blocker / "x"
    rc = main(
        argv + ["--seed", "0", "--p-list", "4", "--n", "100",
                "--out-dir", str(out_dir)]
    )
    assert rc == 2
    assert f"error: cannot create directory {out_dir}:" in capsys.readouterr().err
    assert swept == []


def test_missing_required_option_exits_2(capsys):
    rc = main(["mc-size", "--reps", "2"])
    assert rc == 2
    assert "error: the following arguments are required: --seed" in capsys.readouterr().err


def test_config_file_fills_and_cli_overrides(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 32\np = 3\nseed = 9\nr1 = 0.00025  # sweep point\n")
    from_file = tmp_path / "a.csv"
    overridden = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(from_file)]) == 0
    assert main(
        ["simulate", "--config", str(cfg), "--seed", "11", "--out", str(overridden)]
    ) == 0
    base = tmp_path / "base.csv"
    swap = tmp_path / "swap.csv"
    model = VolModel.deterministic_sin(0.0009, 0.00025)
    write_path_csv(simulate_path(GridConfig(n=32, p=3, seed=9), model), str(base))
    write_path_csv(simulate_path(GridConfig(n=32, p=3, seed=11), model), str(swap))
    assert from_file.read_text() == base.read_text()
    assert overridden.read_text() == swap.read_text()


def test_config_file_dashed_keys_normalised(tmp_path):
    path_csv = tmp_path / "path.csv"
    main(["simulate", "--n", "64", "--p", "2", "--seed", "6", "--out", str(path_csv)])
    cfg = tmp_path / "spot.cfg"
    cfg.write_text(f"path = {path_csv}\nk-n = 8\n")
    via_file = tmp_path / "a.csv"
    via_flag = tmp_path / "b.csv"
    assert main(["spot", "--config", str(cfg), "--out", str(via_file)]) == 0
    main(["spot", "--path", str(path_csv), "--k-n", "8", "--out", str(via_flag)])
    assert via_file.read_text() == via_flag.read_text()


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 16\np = 2\nbogus = 1\n")
    rc = main(["simulate", "--config", str(cfg)])
    assert rc == 2
    assert f"error: {cfg}:3: unknown option 'bogus' for simulate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, line, key",
    [
        ("simulate", "# design\nn = 16\n\np = 2\nbogus = 1\n", 5, "bogus"),
        # k_n is an option of spot and the mc-* commands, not of simulate
        ("simulate", "n = 16\nk_n = 3\np = 2\n", 2, "k_n"),
        ("esd", "seed = 1\nreps = 5\n", 2, "reps"),
    ],
)
def test_config_file_unknown_key_names_file_and_line(tmp_path, capsys, command, text, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}:{line}: unknown option {key!r} for {command}\n"


def test_config_file_bad_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n 16\n")
    rc = main(["simulate", "--config", str(cfg)])
    assert rc == 2
    assert "expected key=value" in capsys.readouterr().err


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_bytes(b"\xffn = 16\n")
    assert main(["simulate", "--config", str(cfg), "--p", "2"]) == 2
    assert f"error: config file {cfg} is not UTF-8 text" in capsys.readouterr().err


def test_config_file_missing_exits_2(tmp_path, capsys):
    cfg = tmp_path / "missing.cfg"
    assert main(["simulate", "--config", str(cfg), "--n", "16", "--p", "2"]) == 2
    assert f"error: cannot read config file {cfg}:" in capsys.readouterr().err


def test_config_file_naming_a_config_exits_2(tmp_path, capsys):
    other = tmp_path / "other.cfg"
    other.write_text("n = 16\np = 2\n")
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"config = {other}\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert f"error: {cfg}:1: a config file cannot name another" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_abbreviated_option_exits_2(tmp_path, capsys, source):
    argv = ["simulate", "--n", "16", "--p", "2"]
    if source == "flag":
        argv += ["--repl", "1"]
    else:
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("repl = 1\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    if source == "flag":
        assert err.startswith("error: unrecognized arguments: --repl")
    else:
        assert err.startswith(f"error: {cfg}:1: unknown option 'repl' for simulate")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["mc-size", "--p-list", ","],
        ["mc-size", "--levels", ""],
        ["mc-size", "--r1", ""],
        ["mc-power", "--s", ""],
        ["esd", "--p-list", ""],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_empty_list_value_exits_2(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    assert main(argv + ["--seed", "0", "--out-dir", str(out_dir)]) == 2
    assert f"error: argument {argv[1]}: invalid" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mc-size", "--levels", "0.05,0.05"], "levels must be distinct"),
        (["mc-size", "--r1", "0,0"], "experiments run together must be distinct"),
        (["mc-power", "--s", "0.45,0.45"], "experiments run together must be distinct"),
        (["mc-size", "--r1", "0,0", "--r2", "0.01"], "experiments run together must be distinct"),
    ],
    ids=["mc-size --levels", "mc-size --r1", "mc-power --s", "mc-size --r1 0,0 --r2"],
)
def test_repeated_sweep_value_exits_2(tmp_path, capsys, argv, message):
    # a repeated value would write each of its table rows twice
    out_dir = tmp_path / "out"
    argv = argv + ["--seed", "0", "--reps", "2", "--n", "400", "--p-list", "8"]
    assert main(argv + ["--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["mc-size", "--reps", "0"],
        ["mc-power", "--reps", "2", "--s", "0.45,0.45"],
        ["esd", "--base", "0"],
        ["qq", "--base", "0", "--reps", "2"],
        # a p beyond the substream layout, once caught only by the draw
        pytest.param(
            ["mc-size", "--p-list", "1048576", "--reps", "1", "--n", "400", "--k-n", "20"],
            id="mc-size --p-list 1048576",
        ),
    ],
    ids=lambda argv: argv[0],
)
def test_config_error_leaves_no_directory(tmp_path, argv):
    out_dir = tmp_path / "out"
    assert main(argv + ["--seed", "0", "--out-dir", str(out_dir)]) == 2
    assert not out_dir.exists()


@pytest.mark.parametrize("base, p_list", [("1.14e308", "8,30"), ("1.7e308", "8")])
def test_esd_numerical_failure_writes_nothing(tmp_path, capsys, base, p_list):
    # at base 1.14e308 only p = 30 overflows: p = 8's figure must not be written either
    out_dir = tmp_path / "fig"
    argv = ["esd", "--seed", "0", "--n", "400", "--k-n", "20", "--base", base, "--p-list", p_list]
    assert main(argv + ["--out-dir", str(out_dir)]) == 3
    p = p_list.split(",")[-1]
    assert capsys.readouterr().err == (
        f"numerical failure: seed 0, p {p}, replication 0: estimate is not finite\n"
    )
    assert not out_dir.exists()


_SAME_OPTIONS = {
    "simulate": {"n": "64", "p": "3", "seed": "5", "r1": "0.0004", "out": "{out}/a.csv"},
    "spot": {"path": "{path}", "t": "0.25", "k-n": "8", "out": "{out}/a.csv"},
    "test": {"matrix": "{matrix}", "k-n": "8", "kind": "lw", "scale": "0.0009",
             "out": "{out}/a.csv"},
    "esd": {"seed": "1", "n": "400", "p-list": "8,12", "r1": "0.0004", "out-dir": "{out}"},
    "qq": {"seed": "1", "reps": "3", "n": "400", "p-list": "8", "out-dir": "{out}"},
    "mc-size": {"seed": "3", "reps": "2", "n": "400", "p-list": "8", "r1": "0,0.0004",
                "levels": "0.05", "out-dir": "{out}"},
    "mc-power": {"seed": "3", "reps": "2", "n": "400", "p-list": "8", "s": "0.5",
                 "low": "0.0005", "out-dir": "{out}"},
}


@pytest.mark.parametrize("command", list(_SAME_OPTIONS))
def test_config_file_matches_flags(tmp_path, capsys, command):
    path_csv = tmp_path / "path.csv"
    matrix_csv = tmp_path / "matrix.csv"
    main(["simulate", "--n", "64", "--p", "3", "--seed", "2", "--out", str(path_csv)])
    main(["spot", "--path", str(path_csv), "--out", str(matrix_csv)])
    capsys.readouterr()
    results = []
    for via in ("flags", "config"):
        out = tmp_path / via
        out.mkdir()
        opts = {
            key: value.format(out=out, path=path_csv, matrix=matrix_csv)
            for key, value in _SAME_OPTIONS[command].items()
        }
        if via == "flags":
            argv = [command] + [arg for key, value in opts.items() for arg in (f"--{key}", value)]
        else:
            # config keys may spell a dash as an underscore
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{key.replace('-', '_')} = {value}\n" for key, value in opts.items()))
            argv = [command, "--config", str(cfg)]
        assert main(argv) == 0
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        results.append((files, capsys.readouterr().out.replace(str(out), "OUT")))
    assert results[0][0]
    assert results[0] == results[1]


def test_mc_size_writes_table(tmp_path, capsys):
    rc = main(
        ["mc-size", "--seed", "3", "--reps", "2", "--n", "400", "--p-list", "8",
         "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    out = tmp_path / "size_table.csv"
    assert capsys.readouterr().out.strip() == str(out)
    rows = _rows(out)
    assert rows[0] == ["test", "level", "r1", "pbar", "rejection_pct"]
    assert len(rows) > 1
    assert all(0.0 <= float(row[-1]) <= 100.0 for row in rows[1:])


def test_mc_power_writes_table(tmp_path, capsys):
    rc = main(
        ["mc-power", "--seed", "3", "--reps", "2", "--n", "400", "--p-list", "8",
         "--s", "0.5", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    out = tmp_path / "power_table.csv"
    assert capsys.readouterr().out.strip() == str(out)
    rows = _rows(out)
    assert rows[0] == ["test", "level", "r1", "pbar", "s", "rejection_pct"]
    assert {row[4] for row in rows[1:]} == {"0.5"}


@pytest.mark.parametrize("command", ["esd", "qq", "mc-size", "mc-power"])
def test_printed_defaults_parse_back_to_the_config_defaults(command):
    # Each printed default, typed back as the option's value, must give the
    # option's default, and an option named after a config field must default
    # to that field's default.  The figures' --seed 0 is the command line's own.
    fields = dataclasses.fields(MCConfig)
    config = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    null = config.pop("model")
    expected = dict(config, base=null.base, low=Alternative.low,
                    r1=(null.r1,) if command.startswith("mc-") else null.r1)
    compared = set()
    for flag, kwargs in cli._COMMANDS[command][0]:
        dest = flag[2:].replace("-", "_")
        if kwargs.get("default") is None:
            continue
        printed = re.fullmatch(r".* \(default: (.*)\)", kwargs["help"]).group(1)
        value = kwargs.get("type", str)(printed)
        assert value == kwargs["default"], f"{command} {flag} prints {printed!r}"
        if dest in expected:
            assert value == expected[dest], f"{command} {flag} defaults to {value!r}"
            compared.add(dest)
    assert compared >= {"n", "p_list", "base", "t", "r1"}


@pytest.mark.parametrize("command, runner, expected", [
    ("mc-size", "_run_experiments", [MCConfig(seed=3)]),
    ("mc-power", "_run_experiments",
     [MCConfig(seed=3, alternative=Alternative(s)) for s in (0.45, 0.6, 0.75)]),
    ("esd", "run_esd_figure", [MCConfig(seed=3)]),
    ("qq", "run_qq_figure", [MCConfig(seed=3)]),
])
def test_a_command_without_options_runs_the_config_defaults(
    tmp_path, capsys, monkeypatch, command, runner, expected
):
    monkeypatch.chdir(tmp_path)
    runs = []
    if runner == "_run_experiments":
        monkeypatch.setattr(cli, runner, lambda cfgs: runs.append(cfgs) or [])
    else:
        monkeypatch.setattr(cli, runner, lambda cfg, out_dir: runs.append([cfg]) or [])
    assert main([command, "--seed", "3"]) == 0
    assert runs == [expected]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_mc_size_failure_prints_its_key(tmp_path, capsys, monkeypatch, no_child_floor, workers):
    # At --workers 2 a forked child process runs replications 5..9, so the
    # key must survive the trip back to this process.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    real = harness._window_source

    def source_failing_at_5(*args):
        draw = real(*args)

        def fail_at_5(rep):
            if rep == 5:
                raise SingularEstimateError("injected pivot failure")
            return draw(rep)

        return fail_at_5

    monkeypatch.setattr(harness, "_window_source", source_failing_at_5)
    rc = main(
        ["mc-size", "--seed", "3", "--reps", "10", "--n", "400", "--p-list", "8",
         "--workers", workers, "--out-dir", str(tmp_path)]
    )
    assert rc == 3
    assert capsys.readouterr().err == (
        "numerical failure: seed 3, p 8, replication 5: injected pivot failure\n"
    )


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the child must inherit this test's patches",
)
def test_dead_worker_is_one_line_and_exit_4(tmp_path, capsys, monkeypatch, no_child_floor):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    real = harness._run_rep_range
    monkeypatch.setattr(
        harness, "_run_rep_range", lambda *a: os._exit(7) if a[-2] else real(*a)
    )
    rc = main(
        ["mc-size", "--seed", "3", "--reps", "10", "--n", "400", "--p-list", "8",
         "--workers", "2", "--out-dir", str(tmp_path)]
    )
    assert rc == 4
    assert capsys.readouterr().err == (
        "worker failure: seed 3, p [8], replications 5..9: "
        "worker process exited with code 7 before reporting\n"
    )
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_mc_size_overflow_is_a_keyed_numerical_failure(
    tmp_path, capsys, monkeypatch, no_child_floor, workers
):
    # At this level the spot estimate overflows to inf: a numerical failure
    # of replication 0 (run by this process at both worker counts), not bad
    # input.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(
            ["mc-size", "--seed", "0", "--reps", "5", "--n", "400", "--p-list", "8",
             "--base", "1.7e308", "--workers", workers, "--out-dir", str(tmp_path)]
        )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: seed 0, r1 0.0, p 8, replication 0: ")
    assert err.endswith(": estimate is not finite\n")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_mc_size_overflow_prints_only_its_keyed_line(tmp_path, workers):
    # A process of its own, so that a warning numpy prints reaches stderr.  It
    # lowers the child floor and sees two CPUs, so that at --workers 2 a
    # forked child runs replications 3..4 as well.
    code = (
        "import os, sys; from spotspectra import cli, harness; "
        "harness._CHILD_MIN_ROWS = 1; os.sched_getaffinity = lambda pid: {0, 1}; "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    argv = ["mc-size", "--seed", "0", "--reps", "5", "--n", "400", "--p-list", "8",
            "--base", "1.7e308", "--workers", workers, "--out-dir", str(tmp_path)]
    run = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=_src_env(), timeout=300,
    )
    assert run.returncode == 3
    assert run.stderr == (
        "numerical failure: seed 0, r1 0.0, p 8, replication 0: "
        "||A - I||_F**2 = inf: estimate is not finite\n"
    )


def test_mc_size_sets_the_blas_threads_once(
    tmp_path, capsys, monkeypatch, no_child_floor, blas_threads
):
    # One scope for the whole command: each restore after a fork restarts
    # OpenBLAS's helper threads, so two models must not restore twice.
    get, set_ = blas_threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    set_(2)
    calls = []
    monkeypatch.setattr(_blas, "_controls", lambda: (get, lambda n: calls.append(n) or set_(n)))
    rc = main(
        ["mc-size", "--seed", "3", "--reps", "4", "--n", "400", "--p-list", "8,30",
         "--r1", "0,0.0004", "--workers", "2", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    assert calls == [1, 2]
    assert get() == 2


@pytest.mark.parametrize("workers", ["1", "2"])
def test_mc_tables_equal_one_experiment_call_per_model(
    tmp_path, capsys, monkeypatch, no_child_floor, workers
):
    # A command runs every model of its table through one fan-out: at
    # --workers 2 it forks one child, not one per model, and its table keeps
    # the bytes of one experiment call per model.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []
    real = harness.Process
    monkeypatch.setattr(harness, "Process", lambda **kw: started.append(kw) or real(**kw))
    design = dict(seed=8, reps=9, n=400, p_list=(8, 30))
    common = ["--seed", "8", "--reps", "9", "--n", "400", "--p-list", "8,30", "--workers", workers]
    cases = [
        (["mc-size", "--r1", "0,0.0004"], write_size_table,
         [run_size_experiment(MCConfig(**design, model=VolModel.deterministic_sin(0.0009, r1)))
          for r1 in (0.0, 0.0004)]),
        (["mc-size", "--r2", "0.01,0.02"], write_size_table,
         [run_size_experiment(MCConfig(**design, model=VolModel.stochastic_bm(0.0009, r2)))
          for r2 in (0.01, 0.02)]),
        (["mc-power", "--r1", "0,0.0004"], write_power_table,
         [run_power_experiment(MCConfig(**design, model=VolModel.deterministic_sin(0.0009, r1),
                                        alternative=Alternative(s=s)))
          for s in (0.45, 0.6, 0.75) for r1 in (0.0, 0.0004)]),
    ]
    started.clear()
    for i, (argv, write, summaries) in enumerate(cases):
        out = tmp_path / f"cmd{i}"
        assert main(argv + common + ["--out-dir", str(out)]) == 0
        table = next(out.iterdir())
        write(summaries, str(tmp_path / "per_model.csv"))
        assert table.read_bytes() == (tmp_path / "per_model.csv").read_bytes()
    assert len(started) == len(cases) * (int(workers) - 1)


def _volatility_overflow(argv, capsys):
    # sqrt(base) + r2 * W_t squares to inf: a numerical failure that names r2,
    # with no numpy warning and no inf or nan rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv + ["--seed", "0"])
    assert rc == 3
    return capsys.readouterr().err


def test_simulate_volatility_overflow_exits_3_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "path.csv"
    argv = ["simulate", "--kind", "stochastic-bm", "--r2", "1e200", "--n", "10", "--p", "2",
            "--out", str(out)]
    err = _volatility_overflow(argv, capsys)
    assert err == "numerical failure: volatility path at r2 1e+200 overflows\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["esd", "--r2", "1e200"],
    ["mc-size", "--r2", "0.01,1e200", "--reps", "2"],
])
def test_volatility_overflow_is_keyed_to_the_largest_p(tmp_path, capsys, argv):
    # All cells share the draw, so a failed draw is keyed by the rows it draws,
    # and the message carries the amplitude that a cell's key would name.
    out = tmp_path / "out"
    design = ["--n", "400", "--k-n", "20", "--p-list", "8,30", "--out-dir", str(out)]
    err = _volatility_overflow(argv + design, capsys)
    assert err == (
        "numerical failure: seed 0, p 30, replication 0: volatility path at r2 1e+200 overflows\n"
    )
    assert argv[0] != "esd" or not out.exists()


def test_esd_overflow_is_a_keyed_numerical_failure(tmp_path, capsys):
    # The same overflow as test_mc_size_overflow_*: a numerical failure of
    # replication 0 (exit 3), not bad input (exit 2), and no file written.
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(
            ["esd", "--seed", "8", "--n", "400", "--k-n", "20", "--base", "1.7e308",
             "--p-list", "8", "--out-dir", str(tmp_path)]
        )
    assert rc == 3
    assert capsys.readouterr().err == (
        "numerical failure: seed 8, p 8, replication 0: estimate is not finite\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["esd", "mc-size"])
def test_gram_near_the_largest_float_is_no_overflow(tmp_path, capsys, command):
    # With n / k_n < 2 the Gram's entries (about 9e307 here) lie above half the
    # largest float while the estimate in null units is about 1, so adding the
    # Gram to its transpose would overflow: the Gram must be used as it is.
    rc = main(
        [command, "--seed", "8", "--n", "400", "--k-n", "300", "--p-list", "8",
         "--base", "1.2e308", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_esd_prints_distance_per_dimension(tmp_path, capsys):
    rc = main(
        ["esd", "--seed", "1", "--n", "400", "--p-list", "8,12",
         "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line, p in zip(lines, (8, 12)):
        name, stat = line.rsplit(" ", 1)
        assert name.endswith(f"esd_p{p}.csv")
        assert stat.startswith("ks=")
        assert 0.0 <= float(stat[3:]) <= 1.0
        assert (tmp_path / f"esd_p{p}.csv").exists()


def test_qq_prints_correlation_per_series(tmp_path, capsys):
    rc = main(
        ["qq", "--seed", "1", "--reps", "3", "--n", "400", "--p-list", "8",
         "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    written = sorted(f.name for f in tmp_path.glob("qq_*.csv"))
    assert len(lines) == len(written) > 0
    for line in lines:
        name, stat = line.rsplit(" ", 1)
        assert name.split("/")[-1] in written
        assert stat.startswith("corr=")


@pytest.mark.parametrize("command", ["esd", "qq"])
def test_figure_r2_writes_the_stochastic_models_bytes(tmp_path, capsys, command):
    # --r2 selects VolModel.stochastic_bm(base, r2): the command must write
    # what the library writes under that model (an ESD figure has no --reps
    # and draws replication 0 alone)
    argv = [command, "--seed", "8", "--n", "400", "--k-n", "20", "--p-list", "8,30",
            "--r2", "0.02", "--out-dir", str(tmp_path / "cli")]
    assert main(argv + (["--reps", "4"] if command == "qq" else [])) == 0
    cfg = MCConfig(seed=8, reps=4, n=400, k_n=20, p_list=(8, 30),
                   model=VolModel.stochastic_bm(0.0009, 0.02))
    {"esd": harness.run_esd_figure, "qq": harness.run_qq_figure}[command](cfg, tmp_path / "api")
    names = sorted(f.name for f in (tmp_path / "api").iterdir())
    assert names and names == sorted(f.name for f in (tmp_path / "cli").iterdir())
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "api" / name).read_bytes()


def test_scalar_model_rejects_both_amplitudes(tmp_path, capsys):
    for command, r1 in (("esd", "0.1"), ("mc-size", "0.0004")):
        rc = main(
            [command, "--seed", "1", "--n", "400", "--p-list", "8",
             "--r1", r1, "--r2", "0.02", "--out-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "either r1 or r2, not both" in capsys.readouterr().err
    assert not (tmp_path / "size_table.csv").exists()


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().out
