"""Command line interface.

Subcommands map one-to-one onto the library operations: ``simulate`` writes a
path CSV, ``spot`` turns a path CSV into a spot covariance matrix, ``test``
evaluates the identity/sphericity tests on a matrix CSV, ``esd`` and ``qq``
produce figure data, and ``mc-size`` / ``mc-power`` run the Monte Carlo
tables.  Every option can also come from a ``--config`` file of flat
``key=value`` lines (command line wins).  Exit codes: 0 success, 2 bad
configuration or input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ._csvio import make_dir
from .errors import ConfigError, NumericalError
from .estimators import SpotEstimate, _check_factor, read_matrix_csv, spot_vol, write_matrix_csv
from .harness import (
    Alternative,
    MCConfig,
    run_esd_figure,
    run_power_experiment,
    run_qq_figure,
    run_size_experiment,
    write_power_table,
    write_size_table,
)
from .hdtests import TestKind, evaluate_tests, write_report_csv
from .simkit import GridConfig, VolKind, VolModel, read_path_csv, simulate_path, write_path_csv
from .spectra import eigenvalues_sym


def _conv_int(raw: str) -> int:
    return int(raw, 10)


def _conv_float(raw: str) -> float:
    return float(raw)


def _conv_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part, 10) for part in raw.split(",") if part.strip() != "")


def _conv_float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip() != "")


def _conv_str(raw: str) -> str:
    return raw


def _conv_choice(*choices: str) -> Callable[[str], str]:
    def conv(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return raw

    return conv


@dataclass(frozen=True)
class _Opt:
    name: str
    conv: Callable[[str], object]
    default: object = None
    required: bool = False
    help: str = ""


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        values[key.strip().replace("-", "_")] = raw.strip()
    return values


def _resolve(args: argparse.Namespace, opts: list[_Opt]) -> dict[str, object]:
    file_cfg = _load_config_file(args.config) if args.config else {}
    known = {opt.name for opt in opts}
    unknown = set(file_cfg) - known
    if unknown:
        raise ConfigError(
            f"config file keys not recognised by this subcommand: {sorted(unknown)}"
        )
    resolved: dict[str, object] = {}
    for opt in opts:
        raw = getattr(args, opt.name, None)
        if raw is None:
            raw = file_cfg.get(opt.name)
        if raw is None:
            if opt.required:
                raise ConfigError(f"missing required option --{opt.name.replace('_', '-')}")
            resolved[opt.name] = opt.default
            continue
        try:
            resolved[opt.name] = opt.conv(raw)
        except ValueError as exc:
            raise ConfigError(
                f"invalid value for --{opt.name.replace('_', '-')}: {raw!r} ({exc})"
            ) from exc
    return resolved


def _add_opts(parser: argparse.ArgumentParser, opts: list[_Opt]) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key=value option file")
    for opt in opts:
        flag = "--" + opt.name.replace("_", "-")
        note = f" (default: {opt.default})" if opt.default is not None else ""
        parser.add_argument(flag, metavar="V", dest=opt.name, help=opt.help + note)


# Option tables --------------------------------------------------------------

_SIM_OPTS = [
    _Opt("n", _conv_int, required=True, help="number of grid cells"),
    _Opt("p", _conv_int, required=True, help="number of coordinates"),
    _Opt("seed", _conv_int, default=0, help="master seed"),
    _Opt(
        "kind",
        _conv_choice("deterministic-sin", "stochastic-bm", "constant-diag", "piecewise-diag"),
        default="deterministic-sin",
        help="volatility kind",
    ),
    _Opt("base", _conv_float, help="variance level for scalar kinds (default 0.0009)"),
    _Opt("r1", _conv_float, default=0.0, help="seasonal modulation amplitude"),
    _Opt("r2", _conv_float, default=0.0, help="volatility-of-volatility amplitude"),
    _Opt("diag", _conv_float_list, help="comma separated diagonal variances"),
    _Opt("replication", _conv_int, default=0, help="replication index"),
    _Opt("out", _conv_str, help="output CSV (default: stdout)"),
]

_SPOT_OPTS = [
    _Opt("path", _conv_str, required=True, help="input path CSV from `simulate`"),
    _Opt(
        "t",
        _conv_float,
        default=0.0,
        help="window anchor time; the window takes the path's increments after cell "
        "floor(t*n), where a t*n within a relative 1e-9 of an integer counts as that "
        "integer; mc-* window draws at t > 0 use fresh noise",
    ),
    _Opt("k_n", _conv_int, help="window length (default: floor(sqrt(n)))"),
    _Opt("out", _conv_str, help="output CSV (default: stdout)"),
]

_TEST_OPTS = [
    _Opt("matrix", _conv_str, required=True, help="input matrix CSV from `spot`"),
    _Opt("k_n", _conv_int, required=True, help="window length behind the estimate"),
    _Opt("kind", _conv_choice("bjyz", "lw", "j", "all"), default="all", help="which test"),
    _Opt("scale", _conv_float, help="divide the matrix by this null level first"),
    _Opt("out", _conv_str, help="output CSV (default: stdout)"),
]

_MC_COMMON = [
    _Opt("reps", _conv_int, default=1000, help="Monte Carlo replications"),
    _Opt("n", _conv_int, default=4680, help="number of grid cells"),
    _Opt("k_n", _conv_int, help="window length (default: floor(sqrt(n)))"),
    _Opt("p_list", _conv_int_list, default=(34, 68, 102), help="comma separated dimensions"),
    _Opt("base", _conv_float, default=0.0009, help="null variance level"),
    _Opt(
        "t",
        _conv_float,
        default=0.0,
        help="window anchor time; draws at t > 0 do not reuse the noise of a "
        "simulated full path",
    ),
    _Opt("levels", _conv_float_list, default=(0.10, 0.05, 0.01), help="test levels"),
    _Opt("workers", _conv_int, default=1, help="worker processes per cell, this one included"),
    _Opt("out_dir", _conv_str, default=".", help="output directory"),
]

_MC_SIZE_OPTS = [
    _Opt("seed", _conv_int, required=True, help="master seed (required)"),
    _Opt("r1", _conv_float_list, default=(0.0,), help="seasonal amplitudes to sweep"),
    _Opt("r2", _conv_float_list, help="vol-of-vol amplitudes to sweep instead of r1"),
    *_MC_COMMON,
]

_MC_POWER_OPTS = [
    _Opt("seed", _conv_int, required=True, help="master seed (required)"),
    _Opt("r1", _conv_float_list, default=(0.0,), help="seasonal amplitudes to sweep"),
    _Opt("s", _conv_float_list, default=(0.45, 0.6, 0.75), help="block split fractions"),
    _Opt("low", _conv_float, default=0.0004, help="variance level of the second block"),
    *_MC_COMMON,
]

_QQ_OPTS = [
    _Opt("seed", _conv_int, default=0, help="master seed"),
    _Opt("r1", _conv_float, default=0.0, help="seasonal amplitude"),
    _Opt("r2", _conv_float, help="vol-of-vol amplitude (selects the stochastic model)"),
    *_MC_COMMON,
]

_ESD_OPTS = _QQ_OPTS


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


def _cmd_simulate(args: argparse.Namespace) -> None:
    cfg = _resolve(args, _SIM_OPTS)
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


def _cmd_spot(args: argparse.Namespace) -> None:
    cfg = _resolve(args, _SPOT_OPTS)
    _, values = read_path_csv(cfg["path"])
    incr = np.diff(values, axis=1)
    k_n = cfg["k_n"] if cfg["k_n"] is not None else math.isqrt(incr.shape[1])
    est = spot_vol(incr, cfg["t"], k_n)
    write_matrix_csv(est.matrix, _out_stream(cfg["out"]))


def _cmd_test(args: argparse.Namespace) -> None:
    cfg = _resolve(args, _TEST_OPTS)
    matrix = read_matrix_csv(cfg["matrix"])
    if cfg["scale"] is not None:
        _check_factor(cfg["scale"], "--scale")
        matrix = matrix / cfg["scale"]
    # The tests assume a positive semidefinite matrix; this one comes from a file.
    eigenvalues_sym(matrix)
    k_n = cfg["k_n"]
    p = matrix.shape[0]
    est = SpotEstimate(matrix=matrix, t=0.0, k_n=k_n, z_n=p / k_n, window=(1, k_n))
    kinds = None if cfg["kind"] == "all" else [TestKind(cfg["kind"])]
    write_report_csv(evaluate_tests(est, kinds), _out_stream(cfg["out"]))


def _mc_config(cfg: dict[str, object], seed: int, model: VolModel,
               alternative: Optional[Alternative] = None) -> MCConfig:
    return MCConfig(
        seed=seed,
        reps=cfg["reps"],
        n=cfg["n"],
        k_n=cfg["k_n"],
        p_list=cfg["p_list"],
        model=model,
        t=cfg["t"],
        levels=cfg["levels"],
        alternative=alternative,
        workers=cfg["workers"],
    )


def _cmd_mc_size(args: argparse.Namespace) -> None:
    cfg = _resolve(args, _MC_SIZE_OPTS)
    if cfg["r2"] is not None:
        models = [VolModel.stochastic_bm(cfg["base"], v) for v in cfg["r2"]]
    else:
        models = [VolModel.deterministic_sin(cfg["base"], v) for v in cfg["r1"]]
    out = make_dir(cfg["out_dir"]) / "size_table.csv"
    summaries = [
        run_size_experiment(_mc_config(cfg, cfg["seed"], model)) for model in models
    ]
    write_size_table(summaries, str(out))
    print(out)


def _cmd_mc_power(args: argparse.Namespace) -> None:
    cfg = _resolve(args, _MC_POWER_OPTS)
    out = make_dir(cfg["out_dir"]) / "power_table.csv"
    summaries = []
    for s in cfg["s"]:
        for r1 in cfg["r1"]:
            model = VolModel.deterministic_sin(cfg["base"], r1)
            mc = _mc_config(
                cfg, cfg["seed"], model, Alternative(s=s, low=cfg["low"])
            )
            summaries.append(run_power_experiment(mc))
    write_power_table(summaries, str(out))
    print(out)


def _cmd_esd(args: argparse.Namespace) -> None:
    cfg = _resolve(args, _ESD_OPTS)
    model = _scalar_model(cfg["base"], cfg["r1"], cfg["r2"])
    mc = _mc_config(cfg, cfg["seed"], model)
    for artifact in run_esd_figure(mc, cfg["out_dir"]):
        print(f"{artifact.path} ks={artifact.ks_distance:.6f}")


def _cmd_qq(args: argparse.Namespace) -> None:
    cfg = _resolve(args, _QQ_OPTS)
    model = _scalar_model(cfg["base"], cfg["r1"], cfg["r2"])
    mc = _mc_config(cfg, cfg["seed"], model)
    for artifact in run_qq_figure(mc, cfg["out_dir"]):
        print(f"{artifact.path} corr={artifact.correlation:.6f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotspectra",
        description="Spectral analysis of high-frequency spot volatility estimates.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, opts, handler, desc in [
        ("simulate", _SIM_OPTS, _cmd_simulate, "simulate a price path and write it as CSV"),
        ("spot", _SPOT_OPTS, _cmd_spot, "spot covariance estimate from a path CSV"),
        ("test", _TEST_OPTS, _cmd_test, "run identity/sphericity tests on a matrix CSV"),
        ("esd", _ESD_OPTS, _cmd_esd, "eigenvalue distribution of one estimate vs the MP law"),
        ("qq", _QQ_OPTS, _cmd_qq, "null z-score quantiles vs normal quantiles"),
        ("mc-size", _MC_SIZE_OPTS, _cmd_mc_size, "Monte Carlo null rejection table"),
        ("mc-power", _MC_POWER_OPTS, _cmd_mc_power, "Monte Carlo power table"),
    ]:
        p = sub.add_parser(name, help=desc, description=desc)
        _add_opts(p, opts)
        p.set_defaults(handler=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help()
        return 2
    try:
        handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
