"""Command line interface.

Subcommands map one-to-one onto the library operations: ``simulate`` writes a
path CSV, ``spot`` turns a path CSV into a spot covariance matrix, ``test``
evaluates the identity/sphericity tests on a matrix CSV, ``esd`` and ``qq``
produce figure data, and ``mc-size`` / ``mc-power`` run the Monte Carlo
tables.  argparse is the only option parser: each ``key = value`` line of a
``--config`` file becomes a ``--key=value`` argument placed before the command
line's own, so the command line wins and a config key is accepted exactly when
the subcommand has the flag of that name; any other key is an error naming the
file and line.  No option may be abbreviated.  Exit codes: 0
success, 2 bad configuration or input (one ``error: ...`` line on stderr; an
input that cannot be read and an output that cannot be written, a full disk
or a full standard output included), 3 numerical failure, 4 a Monte Carlo
worker process that exited without reporting.  A standard output closed by
its reader (``... | head``) ends the command with exit 1 and nothing on
stderr: what is left to write is dropped.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import math
import os
import sys
from typing import Callable, Optional

import numpy as np

from ._blas import kernel_scope
from ._csvio import _opened, make_dir
from .errors import ConfigError, NumericalError, WorkerError, _real
from .estimators import (
    SpotEstimate, _window_length, read_matrix_csv, rescale, spot_vol, write_matrix_csv,
)
from .harness import (
    Alternative,
    MCConfig,
    _plan,
    _run_experiments,
    _usable_cpus,
    run_esd_figure,
    run_qq_figure,
    write_power_table,
    write_size_table,
)
from .hdtests import TestKind, evaluate_tests, write_report_csv
from .simkit import GridConfig, VolKind, VolModel, read_path_csv, simulate_path, write_path_csv
from .spectra import _spectrum


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are :class:`ConfigError` (exit 2)."""

    def error(self, message: str):
        raise ConfigError(message)

    def print_help(self) -> None:
        # argparse's own drops a failed write of the help text (all of it when
        # standard output is unbuffered); this one fails as any other write.
        with _opened(sys.stdout, "w") as stdout:
            stdout.write(self.format_help())
        _flush_stdout()


def _list_of(conv: Callable[[str], object]) -> Callable[[str], tuple]:
    def parse(raw: str) -> tuple:
        values = tuple(conv(part) for part in raw.split(",") if part.strip() != "")
        if not values:
            raise ValueError("empty list")
        return values

    parse.__name__ = f"{conv.__name__} list"
    return parse


def _config_argv(path: str, command: str) -> list[str]:
    flags = {flag for flag, _ in _COMMANDS[command][0]}
    with _opened(path, "r") as stream:
        text = stream.read()
    argv = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key == "config":
            raise ConfigError(f"{path}:{lineno}: a config file cannot name another")
        flag = "--" + key.replace("_", "-")
        if flag not in flags:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r} for {command}")
        argv.append(f"{flag}={raw}")
    return argv


def _opt(name: str, help: str, **kwargs) -> tuple[str, dict]:
    default = kwargs.get("default")
    if default is not None:
        # A list default is shown as it is typed, so it parses back to itself.
        shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
        help += f" (default: {shown})"
    return "--" + name, dict(metavar="V", help=help, **kwargs)


# Option tables --------------------------------------------------------------
# Monte Carlo defaults are MCConfig's or Alternative's, except mc-power's --s and esd/qq's --seed.

_K_N = _opt("k-n", "window length (default: floor(sqrt(n)))", type=int)

_SIM_OPTS = [
    _opt("n", "number of grid cells", type=int, required=True),
    _opt("p", "number of coordinates", type=int, required=True),
    _opt("seed", "master seed", type=int, default=0),
    _opt(
        "kind",
        "volatility kind",
        choices=("deterministic-sin", "stochastic-bm", "constant-diag", "piecewise-diag"),
        default="deterministic-sin",
    ),
    _opt("base", f"variance level for scalar kinds (default: {MCConfig.model.base})", type=float),
    _opt("r1", "seasonal modulation amplitude", type=float, default=0.0),
    _opt("r2", "volatility-of-volatility amplitude", type=float, default=0.0),
    _opt("diag", "comma separated diagonal variances", type=_list_of(float)),
    _opt("replication", "replication index", type=int, default=0),
    _opt("out", "output CSV (default: stdout)"),
]

_SPOT_OPTS = [
    _opt("path", "input path CSV from `simulate`", required=True),
    _opt(
        "t",
        "window anchor time; the window takes the path's increments after cell "
        "floor(t*n), where a t*n within a relative 1e-9 of an integer counts as that "
        "integer; mc-* window draws at t > 0 use fresh noise",
        type=float,
        default=0.0,
    ),
    _K_N,
    _opt("out", "output CSV (default: stdout)"),
]

_TEST_OPTS = [
    _opt("matrix", "input matrix CSV from `spot`", required=True),
    _opt("k-n", "window length behind the estimate", type=int, required=True),
    _opt("kind", "which test", choices=("bjyz", "lw", "j", "all"), default="all"),
    _opt("scale", "multiply the matrix by 1 / this null level first", type=float),
    _opt("out", "output CSV (default: stdout)"),
]

_MC_COMMON = [
    _opt("reps", "Monte Carlo replications", type=int, default=MCConfig.reps),
    _opt("n", "number of grid cells", type=int, default=MCConfig.n),
    _K_N,
    _opt("p-list", "comma separated dimensions", type=_list_of(int), default=MCConfig.p_list),
    _opt("base", "null variance level", type=float, default=MCConfig.model.base),
    _opt(
        "t",
        "window anchor time; draws at t > 0 do not reuse the noise of a "
        "simulated full path",
        type=float,
        default=MCConfig.t,
    ),
    _opt("levels", "test levels", type=_list_of(float), default=MCConfig.levels),
    _opt("workers", "worker processes per command, this one included", type=int,
         default=MCConfig.workers),
    _opt("out-dir", "output directory", default="."),
]

_MC_SIZE_OPTS = [
    _opt("seed", "master seed (required)", type=int, required=True),
    _opt("r1", "seasonal amplitudes to sweep", type=_list_of(float), default=(MCConfig.model.r1,)),
    _opt("r2", "vol-of-vol amplitudes to sweep instead of r1", type=_list_of(float)),
    *_MC_COMMON,
]

_MC_POWER_OPTS = [
    _opt("seed", "master seed (required)", type=int, required=True),
    _opt("r1", "seasonal amplitudes to sweep", type=_list_of(float), default=(MCConfig.model.r1,)),
    _opt("s", "block split fractions", type=_list_of(float), default=(0.45, 0.6, 0.75)),
    _opt("low", "variance level of the second block", type=float, default=Alternative.low),
    *_MC_COMMON,
]

# The figures report no rejection rates, and one ESD draw needs no replications.
_QQ_OPTS = [
    _opt("seed", "master seed", type=int, default=0),
    _opt("r1", "seasonal amplitude", type=float, default=MCConfig.model.r1),
    _opt("r2", "vol-of-vol amplitude (selects the stochastic model)", type=float),
    *(opt for opt in _MC_COMMON if opt[0] != "--levels"),
]

_ESD_OPTS = [opt for opt in _QQ_OPTS if opt[0] not in ("--reps", "--workers")]


def _out_stream(spec: Optional[str]):
    if spec is None or spec == "-":
        return sys.stdout
    return spec


# Handlers -------------------------------------------------------------------


def _cmd_simulate(cfg: dict) -> None:
    if cfg["kind"] == "constant-diag":
        # A name for piecewise-diag without the seasonal modulation.
        if cfg["r1"] != 0.0 or cfg["r2"] != 0.0:
            raise ConfigError("constant-diag does not use r1 or r2")
        cfg["kind"] = "piecewise-diag"
    kind = VolKind(cfg["kind"].replace("-", "_"))
    base = cfg["base"]
    if base is None:
        base = 0.0 if kind is VolKind.PIECEWISE_DIAG else MCConfig.model.base
    model = VolModel(kind=kind, base=base, r1=cfg["r1"], r2=cfg["r2"], diag=cfg["diag"])
    grid = GridConfig(n=cfg["n"], p=cfg["p"], seed=cfg["seed"])
    path = simulate_path(grid, model, replication=cfg["replication"])
    write_path_csv(path, _out_stream(cfg["out"]))


def _cmd_spot(cfg: dict) -> None:
    _, values = read_path_csv(cfg["path"])
    incr = np.diff(values, axis=1)  # overflow is ignored: spot_vol rejects a non-finite increment
    est = spot_vol(incr, cfg["t"], _window_length(incr.shape[1], cfg["k_n"]))
    write_matrix_csv(est.matrix, _out_stream(cfg["out"]))


def _cmd_test(cfg: dict) -> None:
    matrix, scale = read_matrix_csv(cfg["matrix"]), cfg["scale"]
    if scale is not None:
        scale = _real(scale, "--scale must be finite and positive", positive=True)
        if not math.isfinite(1.0 / scale):
            raise ConfigError(f"--scale needs a finite reciprocal, got {scale!r}")
    kinds = None if cfg["kind"] == "all" else [TestKind(cfg["kind"])]
    est = SpotEstimate(matrix=matrix, t=0.0, k_n=cfg["k_n"], window=(1, cfg["k_n"]))
    est = est if scale is None else rescale(est, 1.0 / scale)
    # The tests assume a PSD matrix; SpotEstimate already checked its symmetry.
    _spectrum(0.5 * est.matrix + 0.5 * est.matrix.T)
    write_report_csv(evaluate_tests(est, kinds), _out_stream(cfg["out"]))


def _mc_config(cfg: dict, r1: float, r2: Optional[float] = None,
               s: Optional[float] = None) -> MCConfig:
    """One model's config, ``stochastic_bm`` if ``r2`` is given and two-block if ``s`` is;
    an option the subcommand lacks keeps MCConfig's default."""
    if r2 is not None and r1 != 0.0:
        raise ConfigError("give either r1 or r2, not both")
    base = cfg["base"]
    model = VolModel.deterministic_sin(base, r1) if r2 is None else VolModel.stochastic_bm(base, r2)
    return MCConfig(
        model=model,
        alternative=None if s is None else Alternative(s=s, low=cfg["low"]),
        **{f.name: cfg[f.name] for f in dataclasses.fields(MCConfig) if f.name in cfg},
    )


def _run_table(cfgs: list[MCConfig], out_dir: str, write: Callable, name: str) -> None:
    plan = _plan(cfgs, _usable_cpus())  # a config error leaves no directory behind
    out = make_dir(out_dir) / name
    write(_run_experiments(cfgs, plan), str(out))
    print(out)


def _cmd_mc_size(cfg: dict) -> None:
    cfgs = [_mc_config(cfg, r1, r2) for r1 in cfg["r1"] for r2 in cfg["r2"] or (None,)]
    _run_table(cfgs, cfg["out_dir"], write_size_table, "size_table.csv")


def _cmd_mc_power(cfg: dict) -> None:
    cfgs = [_mc_config(cfg, r1, s=s) for s in cfg["s"] for r1 in cfg["r1"]]
    _run_table(cfgs, cfg["out_dir"], write_power_table, "power_table.csv")


def _cmd_esd(cfg: dict) -> None:
    for artifact in run_esd_figure(_mc_config(cfg, cfg["r1"], cfg["r2"]), cfg["out_dir"]):
        print(f"{artifact.path} ks={artifact.ks_distance:.6f}")


def _cmd_qq(cfg: dict) -> None:
    for artifact in run_qq_figure(_mc_config(cfg, cfg["r1"], cfg["r2"]), cfg["out_dir"]):
        print(f"{artifact.path} corr={artifact.correlation:.6f}")


_COMMANDS = {
    "simulate": (_SIM_OPTS, _cmd_simulate, "simulate a price path and write it as CSV"),
    "spot": (_SPOT_OPTS, _cmd_spot, "spot covariance estimate from a path CSV"),
    "test": (_TEST_OPTS, _cmd_test, "run identity/sphericity tests on a matrix CSV"),
    "esd": (_ESD_OPTS, _cmd_esd, "eigenvalue distribution of one estimate vs the MP law"),
    "qq": (_QQ_OPTS, _cmd_qq, "null z-score quantiles vs normal quantiles"),
    "mc-size": (_MC_SIZE_OPTS, _cmd_mc_size, "Monte Carlo null rejection table"),
    "mc-power": (_MC_POWER_OPTS, _cmd_mc_power, "Monte Carlo power table"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spotspectra",
        description="Spectral analysis of high-frequency spot volatility estimates.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command")
    for name, (opts, handler, desc) in _COMMANDS.items():
        p = sub.add_parser(name, help=desc, description=desc, allow_abbrev=False)
        p.add_argument("--config", metavar="FILE", help="flat key=value option file")
        for flag, kwargs in opts:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def _drop_stdout() -> None:
    # Point fd 1 at devnull, so that what standard output could not write is
    # dropped and the flush at interpreter shutdown has nowhere to fail (the
    # SIGPIPE recipe of Python's signal module documentation).  A stream with
    # no descriptor is left as it is.
    try:
        fd = sys.stdout.fileno()
    except io.UnsupportedOperation:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _flush_stdout() -> None:
    # Through _opened, so a failure to write the last block of standard
    # output, or the help text, is reported like any other failed write.
    with _opened(sys.stdout, "w") as stdout:
        try:
            stdout.flush()
        except OSError:
            _drop_stdout()
            raise


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    try:
        config = pre.parse_known_args(argv[1:])[0].config
        # An unknown command is left to the parser to report.
        config_argv = _config_argv(config, argv[0]) if config and argv[0] in _COMMANDS else []
        try:
            args = parser.parse_args(argv[:1] + config_argv + argv[1:])
        except SystemExit:  # after --help; the parser's errors are ConfigErrors
            return 0
        if args.command is None:
            parser.print_help()
            return 2
        with kernel_scope():  # one per command: a forked run keeps 1 thread until it has written
            args.handler(vars(args))
        _flush_stdout()
    except BrokenPipeError:  # the reader closed the pipe
        _drop_stdout()
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except WorkerError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
