"""The four end-to-end workloads, run through the public API of ``spotspectra``.

Each workload repeats one fixed *pass* over the default experiment design
(n = 4680, k_n = 68, p in {34, 68, 102}, base 0.0009, levels 0.10/0.05/0.01)
until the time budget is spent and at least ``min_passes`` passes are done,
so that the tail percentile always has ten samples beyond it.  Only the
calls into the program are timed; digests and checks run between passes and
after the timed phase.  The reference kernel of ``calibration.py`` runs
before every timed step, and every time is reported at its reference speed.

* ``tables``: the size table over r1 in {0, 0.0004, 0.0008} and the power
  table (s = 0.45, low = 0.0004) over r1 in {0, 0.0002, 0.0004}, one
  experiment call per (table, r1, p) cell, at ``workers`` = 1 or 2.
* ``esd``: ``run_esd_figure`` for each (p, r1) in {34, 68, 102} x
  {0, 0.0004, 0.0008}, artifact ``i`` at master seed ``seed + i``.
* ``cli``: in-process ``spotspectra.cli.main`` running simulate (full path),
  spot and ``test --scale 0.0009`` at p in {34, 102}.
"""

from __future__ import annotations

import itertools
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import check
from calibration import at_reference_speed, reference_kernel, speed_factor
from spotspectra import (
    Alternative,
    GridConfig,
    MCConfig,
    MCSummary,
    VolModel,
    eigenvalues_sym,
    rescale,
    run_esd_figure,
    run_power_experiment,
    run_size_experiment,
    simulate_path,
    simulate_window_increments,
    spot_vol_from_window,
    write_power_table,
    write_size_table,
)
from spotspectra.cli import main as cli_main

N = 4680
K_N = 68
P_LIST = (34, 68, 102)
BASE = 0.0009
LEVELS = (0.10, 0.05, 0.01)
SIZE_R1 = (0.0, 0.0004, 0.0008)
POWER_R1 = (0.0, 0.0002, 0.0004)
POWER_S = 0.45
POWER_LOW = 0.0004
CLI_P = (34, 102)

# Replications per table cell.  Large enough that one cell outweighs the
# pool start at workers=2.  Small enough for six passes in a run: at
# workers=2 each cell runs either fast or 2-3x slower, as the two workers'
# BLAS threads happen to share the two cores, and the medians need many
# cells to settle.
TABLE_REPS = 20
SMOKE_TABLE_REPS = 2
# A run stops starting passes after this long even if min_passes is not met.
MAX_TIMED_S = 120.0

# Per workload: ops per pass x min_passes leaves >= 10 samples beyond the
# fixed tail percentile.
TAIL_PERCENTILE = {"tables": 90, "esd": 95, "cli": 75}
MIN_PASSES = {"tables": 6, "esd": 23, "cli": 7}


@dataclass
class Outcome:
    """What a workload hands back: timings, op accounting and findings."""

    # Every timed step of the run in order, ops and table writes:
    # (key naming the step, seconds, whether it is an op).
    steps: list[tuple[str, float, bool]] = field(default_factory=list)
    # The reference kernel's time just before each step, aligned with steps.
    kernel_s: list[float] = field(default_factory=list)
    _kernel: float = 0.0
    pass_walls_s: list[float] = field(default_factory=list)
    ops_done: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    self_check_ok: bool = True
    tail_percentile: int = 50
    # The first pass's outputs in the layout of the stored reference.
    outputs: dict = field(default_factory=dict)

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.problems.append(message)

    def calibrate(self) -> None:
        self._kernel = reference_kernel()

    def step(self, key: str, seconds: float, op: bool = True) -> None:
        """Record a step timed right after ``calibrate``."""
        self.steps.append((key, seconds, op))
        self.kernel_s.append(self._kernel)



def _timed_passes(run_pass, seconds: float, min_passes: int) -> None:
    start = perf_counter()
    index = 0
    while index < min_passes or perf_counter() - start < seconds:
        if index > 0 and perf_counter() - start > MAX_TIMED_S:
            break
        run_pass(index)
        index += 1


# -- tables ---------------------------------------------------------------------


def _table_plan() -> list[tuple[str, float]]:
    return [("size", r1) for r1 in SIZE_R1] + [("power", r1) for r1 in POWER_R1]


def _cell_config(seed: int, reps: int, table: str, r1: float, p_list, workers: int) -> MCConfig:
    alternative = Alternative(s=POWER_S, low=POWER_LOW) if table == "power" else None
    return MCConfig(
        seed=seed,
        reps=reps,
        n=N,
        k_n=K_N,
        p_list=tuple(p_list),
        model=VolModel.deterministic_sin(BASE, r1),
        levels=LEVELS,
        alternative=alternative,
        workers=workers,
    )


def _run_cell(cfg: MCConfig, table: str) -> MCSummary:
    return run_power_experiment(cfg) if table == "power" else run_size_experiment(cfg)


def _z_digest(zs: dict) -> str:
    """SHA-256 over every z-score array of a pass, in a fixed key order."""
    parts = [
        f"{table}:{r1!r}:{kind}:{p}:".encode() + np.ascontiguousarray(z).tobytes()
        for (table, r1), cell in sorted(zs.items())
        for (kind, p), z in sorted(cell.items())
    ]
    return check.sha256_bytes(b"|".join(parts))


def run_tables(seed: int, seconds: float, workers: int, smoke: bool, work: Path, reference) -> Outcome:
    out = Outcome(tail_percentile=TAIL_PERCENTILE["tables"])
    reps = SMOKE_TABLE_REPS if smoke else TABLE_REPS
    min_passes = 1 if smoke else MIN_PASSES["tables"]
    plan = _table_plan()
    first: dict = {}

    def one_pass(index: int) -> None:
        t_pass = perf_counter()
        summaries = {"size": [], "power": []}
        zs: dict[tuple[str, float], dict] = {}
        for table, r1 in plan:
            merged = {}
            for p in P_LIST:
                out.attempted += reps
                cfg = _cell_config(seed, reps, table, r1, (p,), workers)
                out.calibrate()
                t0 = perf_counter()
                try:
                    summary = _run_cell(cfg, table)
                except Exception as exc:  # an op that raises counts as failed
                    out.fail(reps, f"pass {index} {table} r1={r1} p={p}: {exc!r}")
                    continue
                out.step(f"{table}:{r1!r}:p{p}", perf_counter() - t0)
                out.ops_done += reps
                merged.update(summary.zscores)
            full = _cell_config(seed, reps, table, r1, P_LIST, workers)
            summaries[table].append(MCSummary(config=full, zscores=merged))
            zs[(table, r1)] = {(kind.value, p): z for (kind, p), z in merged.items()}
        for name, write in (("size", write_size_table), ("power", write_power_table)):
            out.calibrate()
            t0 = perf_counter()
            write(summaries[name], str(work / f"{name}_table.csv"))
            out.step(f"write:{name}", perf_counter() - t0, op=False)
        out.pass_walls_s.append(perf_counter() - t_pass)
        digests = {
            "size_table.csv": check.sha256_file(work / "size_table.csv"),
            "power_table.csv": check.sha256_file(work / "power_table.csv"),
            "zscores": _z_digest(zs),
        }
        if index == 0:
            first.update(
                zs=zs,
                tables={name: (work / name).read_bytes() for name in ("size_table.csv", "power_table.csv")},
            )
            out.digests = digests
        elif digests != out.digests:
            out.fail(reps * len(plan) * len(P_LIST), f"pass {index} output differs from pass 0")

    _timed_passes(one_pass, seconds, min_passes)
    out.outputs = {
        "reps": reps,
        "sha256": {name: out.digests[name] for name in ("size_table.csv", "power_table.csv")},
        "zscores": {
            f"{table}:{r1!r}:{kind}:{p}": [float(v) for v in z]
            for (table, r1), cell in first["zs"].items()
            for (kind, p), z in cell.items()
        },
    }
    _check_tables(out, first, seed, reps, workers, reference)
    return out


def _rows_spec(zs: dict, table: str) -> list[dict]:
    r1s = SIZE_R1 if table == "size" else POWER_R1
    return [
        {"levels": LEVELS, "r1": r1, "k_n": K_N, "p_list": P_LIST, "s": POWER_S, "z": zs[(table, r1)]}
        for r1 in r1s
    ]


def _check_tables(out: Outcome, first: dict, seed: int, reps: int, workers: int, ref) -> None:
    zs, tables = first["zs"], first["tables"]
    for table in ("size", "power"):
        spec = _rows_spec(zs, table)
        with_s = table == "power"
        problems = check.check_table(tables[f"{table}_table.csv"], spec, with_s, table)
        if problems:
            out.fail(reps * len(P_LIST) * 3, "; ".join(problems))
        if not check.flipped_byte_detected(tables[f"{table}_table.csv"], spec, with_s):
            out.self_check_ok = False
            out.problems.append(f"self-check: a flipped byte in {table}_table.csv went unnoticed")
    # Replication 0 of every cell against the documented test formulas.
    for (table, r1), cell in zs.items():
        for p in P_LIST:
            grid = GridConfig(n=N, p=p, seed=seed)
            if table == "power":
                model = VolModel.two_block(p, POWER_S, high=BASE, low=POWER_LOW, r1=r1)
            else:
                model = VolModel.deterministic_sin(BASE, r1)
            window = simulate_window_increments(grid, model, 0, K_N, replication=0)
            want = check.oracle_zscores(window, N, K_N, BASE)
            if sorted(want) != sorted(k for (k, pp) in cell if pp == p) or not all(
                check.oracle_close(float(cell[(kind, p)][0]), z) for kind, z in want.items()
            ):
                out.fail(reps, f"{table} r1={r1} p={p}: z-scores differ from the test formulas")
    if workers > 1:
        # Worker count must not change a single bit: recompute the largest
        # cell of each table serially.
        for table, r1 in (("size", SIZE_R1[-1]), ("power", POWER_R1[-1])):
            p = P_LIST[-1]
            serial = _run_cell(_cell_config(seed, reps, table, r1, (p,), 1), table)
            for (kind, pp), z in serial.zscores.items():
                if not np.array_equal(z, zs[(table, r1)][(kind.value, pp)]):
                    out.fail(reps, f"{table} r1={r1} p={p} {kind.value}: workers={workers} differs from serial")
    if ref is None:
        return
    if ref["reps"] != reps:
        out.problems.append("reference was made with another replication count")
        out.self_check_ok = False
        return
    for name in ("size_table.csv", "power_table.csv"):
        if out.digests[name] != ref["sha256"][name]:
            out.fail(reps * len(P_LIST) * 3, f"{name}: SHA-256 differs from the reference")
    if sorted(out.outputs["zscores"]) != sorted(ref["zscores"]):
        out.fail(reps * len(_table_plan()) * len(P_LIST), "z-score cells differ from the reference")
        return
    for name, z in out.outputs["zscores"].items():
        if not check.z_close(z, ref["zscores"][name]):
            out.fail(reps, f"{name}: z-scores differ from the reference")


# -- ESD figures ----------------------------------------------------------------


def esd_plan(seed: int) -> list[tuple[int, int, float]]:
    """(master seed, p, r1) of each artifact: consecutive seeds from ``seed``."""
    return [
        ((seed + i) % 2**64, p, r1)
        for i, (p, r1) in enumerate(itertools.product(P_LIST, SIZE_R1))
    ]


def _esd_config(art_seed: int, p: int, r1: float) -> MCConfig:
    return MCConfig(seed=art_seed, n=N, k_n=K_N, p_list=(p,), model=VolModel.deterministic_sin(BASE, r1))


def recomputed_spectrum(art_seed: int, p: int, r1: float) -> np.ndarray:
    """The spectrum an ESD artifact should show, rebuilt from public calls."""
    grid = GridConfig(n=N, p=p, seed=art_seed)
    window = simulate_window_increments(grid, VolModel.deterministic_sin(BASE, r1), 0, K_N, replication=0)
    est = rescale(spot_vol_from_window(window, N, 0.0, K_N), 1.0 / BASE)
    return eigenvalues_sym(est.matrix).eigenvalues


def run_esd(seed: int, seconds: float, smoke: bool, work: Path, ref) -> Outcome:
    out = Outcome(tail_percentile=TAIL_PERCENTILE["esd"])
    plan = esd_plan(seed)
    min_passes = 1 if smoke else MIN_PASSES["esd"]
    first: dict = {}

    def one_pass(index: int) -> None:
        artifacts = {}
        t_pass = perf_counter()
        for i, (art_seed, p, r1) in enumerate(plan):
            out.attempted += 1
            out.calibrate()
            t0 = perf_counter()
            try:
                [artifact] = run_esd_figure(_esd_config(art_seed, p, r1), work / f"a{i}")
            except Exception as exc:
                out.fail(1, f"pass {index} artifact {i}: {exc!r}")
                continue
            out.step(f"a{i}", perf_counter() - t0)
            out.ops_done += 1
            artifacts[i] = artifact
        out.pass_walls_s.append(perf_counter() - t_pass)
        data = {i: a.path.read_bytes() for i, a in artifacts.items()}
        digests = {f"a{i}/{a.path.name}": check.sha256_bytes(data[i]) for i, a in artifacts.items()}
        if index == 0:
            first.update(data=data, ks={i: a.ks_distance for i, a in artifacts.items()})
            out.digests = digests
        elif digests != out.digests:
            out.fail(len(plan), f"pass {index} output differs from pass 0")

    _timed_passes(one_pass, seconds, min_passes)
    out.outputs = {"artifacts": []}
    for i, data in first["data"].items():
        art_seed, p, r1 = plan[i]
        lam = recomputed_spectrum(art_seed, p, r1)
        ks = first["ks"][i]
        out.outputs["artifacts"].append({
            "seed": art_seed, "p": p, "r1": r1, "ks": ks,
            "sha256": out.digests[f"a{i}/esd_p{p}.csv"],
            "eigenvalues": [float(v) for v in lam],
        })
        problems = check.check_esd(data, lam, p / K_N, ks, f"esd a{i} p={p} r1={r1}")
        if ref is not None:
            want = ref["artifacts"][i]
            if not check.values_close(lam, want["eigenvalues"]):
                problems.append(f"esd a{i}: spectrum differs from the reference")
            if not check.values_close(ks, want["ks"]):
                problems.append(f"esd a{i}: KS distance differs from the reference")
            if out.digests.get(f"a{i}/esd_p{p}.csv") != want["sha256"]:
                out.digests[f"a{i}/changed_vs_reference"] = True
        if problems:
            out.fail(1, "; ".join(problems))
    return out


# -- CLI round trip ---------------------------------------------------------------


def cli_argvs(seed: int, p: int, work: Path) -> list[list[str]]:
    path, spot, report = (str(work / f"{stem}_p{p}.csv") for stem in ("path", "spot", "report"))
    return [
        ["simulate", "--n", str(N), "--p", str(p), "--seed", str(seed), "--out", path],
        ["spot", "--path", path, "--k-n", str(K_N), "--out", spot],
        ["test", "--matrix", spot, "--k-n", str(K_N), "--scale", repr(BASE), "--out", report],
    ]


def run_cli(seed: int, seconds: float, smoke: bool, work: Path, ref) -> Outcome:
    out = Outcome(tail_percentile=TAIL_PERCENTILE["cli"])
    min_passes = 1 if smoke else MIN_PASSES["cli"]
    names = [f"{stem}_p{p}.csv" for p in CLI_P for stem in ("path", "spot", "report")]

    def one_pass(index: int) -> None:
        t_pass = perf_counter()
        for p in CLI_P:
            for argv in cli_argvs(seed, p, work):
                out.attempted += 1
                out.calibrate()
                t0 = perf_counter()
                try:
                    code = cli_main(argv)
                except Exception as exc:
                    out.fail(1, f"pass {index} {argv[0]} p={p}: {exc!r}")
                    continue
                out.step(f"{argv[0]}:p{p}", perf_counter() - t0)
                if code != 0:
                    out.fail(1, f"pass {index} {argv[0]} p={p}: exit code {code}")
                    continue
                out.ops_done += 1
        out.pass_walls_s.append(perf_counter() - t_pass)
        digests = {name: check.sha256_file(work / name) for name in names if (work / name).exists()}
        if index == 0:
            out.digests = digests
        elif digests != out.digests:
            out.fail(len(names), f"pass {index} output differs from pass 0")

    _timed_passes(one_pass, seconds, min_passes)
    out.outputs = {"sha256": dict(out.digests), "reports": {}, "spot_trace_frob": {}, "path_fingerprint": {}}
    for p in CLI_P:
        problems = _check_cli_outputs(seed, p, work, ref, out.outputs)
        if problems:
            out.fail(3, "; ".join(problems))
        if ref is not None:
            for stem in ("path", "spot", "report"):
                name = f"{stem}_p{p}.csv"
                if out.digests.get(name) != ref["sha256"][name]:
                    out.digests[f"{name}:changed_vs_reference"] = True
    return out


def _path_fingerprint(values: np.ndarray) -> list[list[float]]:
    """Final value and sum of squared increments of every coordinate."""
    return [[float(v) for v in values[:, -1]], [float(v) for v in np.sum(np.diff(values, axis=1) ** 2, axis=1)]]


def _check_cli_outputs(seed: int, p: int, work: Path, ref, outputs: dict) -> list[str]:
    label = f"cli p={p}"
    path = simulate_path(GridConfig(n=N, p=p, seed=seed), VolModel.deterministic_sin(BASE, 0.0))
    try:
        written = np.loadtxt(work / f"path_p{p}.csv", delimiter=",", skiprows=1, ndmin=2)
        spot = np.loadtxt(work / f"spot_p{p}.csv", delimiter=",", skiprows=1, ndmin=2)
        report = (work / f"report_p{p}.csv").read_bytes()
    except (OSError, ValueError) as exc:
        return [f"{label}: unreadable output ({exc})"]
    problems = []
    if written.shape != (N + 1, p + 1) or not np.array_equal(written[:, 1:].T, path.values):
        problems.append(f"{label}: path CSV is not the simulated path")
    # The spot estimate and the tests, recomputed from the path by formula.
    window = np.diff(written[: K_N + 1, 1:].T, axis=1)
    if spot.shape != (p, p) or not check.values_close(spot, (N / K_N) * (window @ window.T)):
        return problems + [f"{label}: spot matrix is not (n/k_n) W W^T of the first window"]
    oracle = {kind: {"zscore": z} for kind, z in check.oracle_zscores(window, N, K_N, BASE).items()}
    problems += check.check_report(report, oracle, label, check.oracle_close)
    try:
        outputs["reports"][str(p)] = check.parse_report_csv(report)
    except (ValueError, KeyError):
        return problems
    outputs["spot_trace_frob"][str(p)] = [float(np.trace(spot)), float(np.linalg.norm(spot))]
    outputs["path_fingerprint"][str(p)] = _path_fingerprint(path.values)
    if ref is not None:
        problems += check.check_report(report, ref["reports"][str(p)], f"{label} vs reference")
        if not check.values_close(outputs["spot_trace_frob"][str(p)], ref["spot_trace_frob"][str(p)]):
            problems.append(f"{label}: spot matrix differs from the reference")
        if not check.values_close(outputs["path_fingerprint"][str(p)], ref["path_fingerprint"][str(p)]):
            problems.append(f"{label}: simulated path differs from the reference")
    return problems


# -- metrics --------------------------------------------------------------------


def hd_quantile(samples, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted average of all order statistics, with Beta(q(n+1), (1-q)(n+1))
    weights.  A pass mixes ops of very different sizes (a 6 ms ``test`` and a
    1 s ``simulate``), and pass times themselves switch between a fast and a
    slow level with the machine's load.  The plain sample median can then
    fall in the gap between two groups and follow their extreme values; this
    estimate does not.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def _timings(out: Outcome, times: list[float]) -> dict[str, float]:
    """Pass time, throughput and latency quantiles from per-step ``times``.

    ``wall_s`` is one pass: the sum over its steps of each step's median.
    ``ops_per_s`` is completed ops over the summed time of all steps.
    """
    by_key: dict[str, list[float]] = {}
    for (key, _, _), t in zip(out.steps, times):
        by_key.setdefault(key, []).append(t)
    lat_ms = [1e3 * t for (_, _, op), t in zip(out.steps, times) if op]
    return {
        "wall_s": sum(statistics.median(v) for v in by_key.values()),
        "ops_per_s": out.ops_done / sum(times),
        "op_ms_p50": hd_quantile(lat_ms, 0.5),
        "op_ms_tail": hd_quantile(lat_ms, out.tail_percentile / 100.0),
    }


def raw_metrics(out: Outcome) -> dict[str, float]:
    """The timings unscaled, with the kernel's median and the run's factor."""
    return {
        **_timings(out, [t for _, t, _ in out.steps]),
        "kernel_ms_median": 1e3 * statistics.median(out.kernel_s),
        "speed_factor": speed_factor(out.kernel_s),
    }


def end_to_end_metrics(out: Outcome) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric except ``setup_s``, at the reference speed."""
    times = at_reference_speed([t for _, t, _ in out.steps], out.kernel_s)
    units = {"wall_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms"}
    return {name: (value, units[name]) for name, value in _timings(out, times).items()}
