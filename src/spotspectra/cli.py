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
success, 2 bad configuration or input (one ``error: ...`` line on stderr), 3
numerical failure, 4 a Monte Carlo worker process that exited without reporting.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ._csvio import make_dir
from .errors import ConfigError, NumericalError, WorkerError
from .estimators import (
    SpotEstimate, _check_factor, read_matrix_csv, rescale, spot_vol, write_matrix_csv,
)
from .harness import (
    Alternative,
    MCConfig,
    _plan,
    _run_experiments,
    run_esd_figure,
    run_qq_figure,
    write_power_table,
    write_size_table,
)
from .hdtests import TestKind, evaluate_tests, write_report_csv
from .simkit import GridConfig, VolKind, VolModel, read_path_csv, simulate_path, write_path_csv
from .spectra import eigenvalues_sym


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are :class:`ConfigError` (exit 2)."""

    def error(self, message: str):
        raise ConfigError(message)


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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason}") from None
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
    if kwargs.get("default") is not None:
        help += f" (default: {kwargs['default']})"
    return "--" + name, dict(metavar="V", help=help, **kwargs)


# Option tables --------------------------------------------------------------

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
    _opt("base", "variance level for scalar kinds (default 0.0009)", type=float),
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
    _opt("k-n", "window length (default: floor(sqrt(n)))", type=int),
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
    _opt("reps", "Monte Carlo replications", type=int, default=1000),
    _opt("n", "number of grid cells", type=int, default=4680),
    _opt("k-n", "window length (default: floor(sqrt(n)))", type=int),
    _opt("p-list", "comma separated dimensions", type=_list_of(int), default=(34, 68, 102)),
    _opt("base", "null variance level", type=float, default=0.0009),
    _opt(
        "t",
        "window anchor time; draws at t > 0 do not reuse the noise of a "
        "simulated full path",
        type=float,
        default=0.0,
    ),
    _opt("levels", "test levels", type=_list_of(float), default=(0.10, 0.05, 0.01)),
    _opt("workers", "worker processes per command, this one included", type=int, default=1),
    _opt("out-dir", "output directory", default="."),
]

_MC_SIZE_OPTS = [
    _opt("seed", "master seed (required)", type=int, required=True),
    _opt("r1", "seasonal amplitudes to sweep", type=_list_of(float), default=(0.0,)),
    _opt("r2", "vol-of-vol amplitudes to sweep instead of r1", type=_list_of(float)),
    *_MC_COMMON,
]

_MC_POWER_OPTS = [
    _opt("seed", "master seed (required)", type=int, required=True),
    _opt("r1", "seasonal amplitudes to sweep", type=_list_of(float), default=(0.0,)),
    _opt("s", "block split fractions", type=_list_of(float), default=(0.45, 0.6, 0.75)),
    _opt("low", "variance level of the second block", type=float, default=0.0004),
    *_MC_COMMON,
]

# The figures report no rejection rates, and one ESD draw needs no replications.
_QQ_OPTS = [
    _opt("seed", "master seed", type=int, default=0),
    _opt("r1", "seasonal amplitude", type=float, default=0.0),
    _opt("r2", "vol-of-vol amplitude (selects the stochastic model)", type=float),
    *(opt for opt in _MC_COMMON if opt[0] != "--levels"),
]

_ESD_OPTS = [opt for opt in _QQ_OPTS if opt[0] not in ("--reps", "--workers")]


def _scalar_model(base: float, r1: float, r2: Optional[float]) -> VolModel:
    if r2 is not None:
        if r1 != 0.0:
            raise ConfigError("give either r1 or r2, not both")
        return VolModel.stochastic_bm(base, r2)
    return VolModel.deterministic_sin(base, r1)


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
        base = 0.0 if kind is VolKind.PIECEWISE_DIAG else 0.0009
    model = VolModel(kind=kind, base=base, r1=cfg["r1"], r2=cfg["r2"], diag=cfg["diag"])
    grid = GridConfig(n=cfg["n"], p=cfg["p"], seed=cfg["seed"])
    path = simulate_path(grid, model, replication=cfg["replication"])
    write_path_csv(path, _out_stream(cfg["out"]))


def _cmd_spot(cfg: dict) -> None:
    _, values = read_path_csv(cfg["path"])
    with np.errstate(over="ignore", invalid="ignore"):  # spot_vol rejects a non-finite increment
        incr = np.diff(values, axis=1)
    k_n = cfg["k_n"] if cfg["k_n"] is not None else math.isqrt(incr.shape[1])
    est = spot_vol(incr, cfg["t"], k_n)
    write_matrix_csv(est.matrix, _out_stream(cfg["out"]))


def _cmd_test(cfg: dict) -> None:
    matrix, scale = read_matrix_csv(cfg["matrix"]), cfg["scale"]
    if scale is not None:
        _check_factor(scale, "--scale")
        if not math.isfinite(1.0 / scale):
            raise ConfigError(f"--scale needs a finite reciprocal, got {scale!r}")
    est = SpotEstimate(matrix=matrix, t=0.0, k_n=cfg["k_n"], window=(1, cfg["k_n"]))
    est = est if scale is None else rescale(est, 1.0 / scale)
    # The tests assume a positive semidefinite matrix; this one comes from a file.
    eigenvalues_sym(est.matrix)
    kinds = None if cfg["kind"] == "all" else [TestKind(cfg["kind"])]
    write_report_csv(evaluate_tests(est, kinds), _out_stream(cfg["out"]))


def _mc_config(cfg: dict, model: VolModel,
               alternative: Optional[Alternative] = None) -> MCConfig:
    # A subcommand without --reps, --levels or --workers keeps MCConfig's default.
    fields = ("seed", "reps", "n", "k_n", "p_list", "t", "levels", "workers")
    return MCConfig(
        model=model,
        alternative=alternative,
        **{name: cfg[name] for name in fields if name in cfg},
    )


def _cmd_mc_size(cfg: dict) -> None:
    cfgs = [
        _mc_config(cfg, _scalar_model(cfg["base"], r1, r2))
        for r1 in cfg["r1"]
        for r2 in cfg["r2"] or (None,)
    ]
    _plan(cfgs, 1)  # a config error leaves no directory behind
    out = make_dir(cfg["out_dir"]) / "size_table.csv"
    write_size_table(_run_experiments(cfgs), str(out))
    print(out)


def _cmd_mc_power(cfg: dict) -> None:
    cfgs = [
        _mc_config(cfg, VolModel.deterministic_sin(cfg["base"], r1), Alternative(s=s, low=cfg["low"]))
        for s in cfg["s"]
        for r1 in cfg["r1"]
    ]
    _plan(cfgs, 1)
    out = make_dir(cfg["out_dir"]) / "power_table.csv"
    write_power_table(_run_experiments(cfgs), str(out))
    print(out)


def _cmd_esd(cfg: dict) -> None:
    model = _scalar_model(cfg["base"], cfg["r1"], cfg["r2"])
    for artifact in run_esd_figure(_mc_config(cfg, model), cfg["out_dir"]):
        print(f"{artifact.path} ks={artifact.ks_distance:.6f}")


def _cmd_qq(cfg: dict) -> None:
    model = _scalar_model(cfg["base"], cfg["r1"], cfg["r2"])
    for artifact in run_qq_figure(_mc_config(cfg, model), cfg["out_dir"]):
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


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    try:
        config = pre.parse_known_args(argv[1:])[0].config
        # An unknown command is left to the parser to report.
        config_argv = _config_argv(config, argv[0]) if config and argv[0] in _COMMANDS else []
        args = parser.parse_args(argv[:1] + config_argv + argv[1:])
        if args.command is None:
            parser.print_help()
            return 2
        args.handler(vars(args))
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
