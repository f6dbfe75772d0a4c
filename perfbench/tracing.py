"""Traced run: spans around the calls into each module give the per-layer numbers.

Spans are recorded by the benchmark around public calls (nothing inside the
program is instrumented).  Each span holds its name, start, end, parent span
and replication key ``(seed, p, replication)``; spans stay in memory and are
written out when the run ends.  A layer's self time is its span's duration
minus the time covered by its child spans.

The run has two parts:

* fixed probes of the calls the per-replication loop never makes (full
  paths, CSV I/O, KS distance, ESD figure, CLI commands, pool start);
* a traced copy of the harness replication loop at p = 34, 68, 102 (scalar
  model) and p = 102 (two-block model), alternated block by block with the
  untraced harness on the same seed.  The traced loop's z-scores must equal
  the harness's bit for bit, and the ratio of their times per replication is
  the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads as wl
from spotspectra import (
    Alternative,
    GridConfig,
    MCConfig,
    MPLaw,
    VolModel,
    eigenvalues_sym,
    evaluate_tests,
    increments,
    kolmogorov_distance,
    mp_cdf,
    mp_lss_constants,
    read_matrix_csv,
    read_path_csv,
    rescale,
    run_esd_figure,
    run_power_experiment,
    run_size_experiment,
    simulate_path,
    simulate_window_increments,
    spot_vol,
    spot_vol_from_window,
    write_matrix_csv,
    write_path_csv,
    write_size_table,
)
from spotspectra.cli import main as cli_main

# Replications per traced block and per cell of the untraced comparison.
BLOCK_REPS = 20
MIN_BLOCKS = 2
SMOKE_REPS = 2
SCALAR_R1 = wl.SIZE_R1[-1]
DIAG_R1 = wl.POWER_R1[-1]
DIAG_P = 102


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, key]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, key=None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, key])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def select(self, name: str, p=None, parent_name=None) -> list[int]:
        return [
            i
            for i, (n, _, _, parent, key) in enumerate(self.spans)
            if n == name
            and (p is None or (key is not None and key[1] == p))
            and (parent_name is None or (parent is not None and self.spans[parent][0] == parent_name))
        ]

    def median_self(self, name: str, p=None, parent_name=None) -> float:
        own = self.self_times()
        return statistics.median(own[i] for i in self.select(name, p, parent_name))

    def median_total(self, name: str, p=None) -> float:
        return statistics.median(self.spans[i][2] - self.spans[i][1] for i in self.select(name, p))

    def dump(self, path: Path) -> None:
        own = self.self_times()
        rows = [
            {"name": n, "start": s, "end": e, "parent": parent, "key": key, "self": own[i]}
            for i, (n, s, e, parent, key) in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows))


class _EigvalshCounter:
    """Counts LAPACK symmetric eigenvalue calls made while installed."""

    def __init__(self) -> None:
        self.calls = 0
        self._orig = np.linalg.eigvalsh

    def __enter__(self):
        def counted(*args, **kwargs):
            self.calls += 1
            return self._orig(*args, **kwargs)

        np.linalg.eigvalsh = counted
        return self

    def __exit__(self, *exc) -> None:
        np.linalg.eigvalsh = self._orig


def traced_cell(
    tracer: Tracer, counter: "_EigvalshCounter", seed: int, p: int, model: VolModel, label: str, reps: int
) -> dict:
    """The harness replication loop with a span around each module call.

    Mirrors ``run_size_experiment`` / ``run_power_experiment`` for one cell
    at t = 0 through public calls only; returns z-scores keyed by test name.
    """
    grid = GridConfig(n=wl.N, p=p, seed=seed)
    inv_scale = 1.0 / wl.BASE
    z: dict[str, list[float]] = {}
    for rep in range(reps):
        key = (seed, p, rep)
        with tracer.span(f"harness.rep.{label}", key), counter:
            with tracer.span("simkit.simulate_window_increments", key):
                window = simulate_window_increments(grid, model, 0, wl.K_N, replication=rep)
            with tracer.span("estimators.spot_vol_from_window+rescale", key):
                est = rescale(spot_vol_from_window(window, wl.N, 0.0, wl.K_N), inv_scale)
            with tracer.span("hdtests.evaluate_tests", key):
                reports = evaluate_tests(est)
        for report in reports:
            z.setdefault(report.kind.value, []).append(report.zscore)
        # One decomposition and the LSS constants on their own, outside the
        # replication span so that harness.rep stays the harness's work.
        with tracer.span("spectra.eigenvalues_sym", key):
            eigenvalues_sym(est.matrix)
        if est.z_n < 1.0:
            with tracer.span("rmt.mp_lss_constants", key):
                mp_lss_constants(est.z_n)
    return z


def _cell_matches(summary, p: int, traced: dict) -> bool:
    return all(
        np.array_equal(np.asarray(traced[kind.value]), z)
        for (kind, pp), z in summary.zscores.items()
        if pp == p
    ) and len(traced) == len(summary.zscores)


def _probe(tracer: Tracer, name: str, key, repeats: int, fn):
    result = None
    for _ in range(repeats):
        with tracer.span(name, key):
            result = fn()
    return result


def run_traced(seed: int, seconds: float, smoke: bool, work: Path, out_path: Path) -> dict:
    """Run probes and the traced loop; return metrics and accounting."""
    tracer = Tracer()
    repeats = 1 if smoke else 3
    attempted = failed = 0
    problems: list[str] = []
    t_start = perf_counter()
    scalar = VolModel.deterministic_sin(wl.BASE, SCALAR_R1)

    # -- simkit / estimators: full paths and CSV I/O
    paths = {}
    for p in (34, 102):
        grid = GridConfig(n=wl.N, p=p, seed=seed)
        paths[p] = _probe(tracer, "simkit.simulate_path", (seed, p, None), repeats, lambda: simulate_path(grid, scalar))
    path_csv = work / "trace_path_p102.csv"
    _probe(tracer, "simkit.write_path_csv", (seed, 102, None), repeats, lambda: write_path_csv(paths[102], str(path_csv)))
    path_mb = path_csv.stat().st_size / 1e6
    _, values = _probe(tracer, "simkit.read_path_csv", (seed, 102, None), repeats, lambda: read_path_csv(str(path_csv)))
    attempted += 1
    if not np.array_equal(values, paths[102].values):
        failed += 1
        problems.append("trace: path CSV round trip changed the path")
    incr = increments(paths[102])
    est_full = _probe(tracer, "estimators.spot_vol", (seed, 102, None), 2 * repeats, lambda: spot_vol(incr, 0.0, wl.K_N))
    matrix_csv = work / "trace_spot_p102.csv"
    write_matrix_csv(est_full.matrix, str(matrix_csv))
    read_back = _probe(tracer, "estimators.read_matrix_csv", (seed, 102, None), 2 * repeats, lambda: read_matrix_csv(str(matrix_csv)))
    attempted += 1
    if not np.array_equal(read_back, est_full.matrix):
        failed += 1
        problems.append("trace: matrix CSV round trip changed the matrix")

    # -- spectra / rmt: KS distance and the MP cdf on the ESD grid
    for p in (34, 102):
        window = simulate_window_increments(GridConfig(n=wl.N, p=p, seed=seed), scalar, 0, wl.K_N)
        sample = eigenvalues_sym(rescale(spot_vol_from_window(window, wl.N, 0.0, wl.K_N), 1.0 / wl.BASE).matrix)
        law = MPLaw(y=p / wl.K_N)
        _probe(tracer, "spectra.kolmogorov_distance", (seed, p, None), repeats, lambda: kolmogorov_distance(sample, lambda x: mp_cdf(x, law)))
    law = MPLaw(y=102 / wl.K_N)
    grid_x = [float(x) for x in np.linspace(0.0, law.b + 0.5, 401)]
    _probe(tracer, "rmt.mp_cdf_grid401", (seed, 102, None), repeats, lambda: [mp_cdf(x, law) for x in grid_x])

    # -- harness: pool start, table write, ESD figure
    def pool_cell(workers: int):
        return run_size_experiment(
            MCConfig(seed=seed, reps=2, n=wl.N, k_n=wl.K_N, p_list=(34,), model=scalar, workers=workers)
        )

    for _ in range(repeats + 2):
        for workers in (1, 2):
            with tracer.span(f"harness.pool_cell.w{workers}", (seed, 34, None)):
                pool_cell(workers)
    summaries = [
        run_size_experiment(MCConfig(seed=seed, reps=10, n=wl.N, k_n=wl.K_N, p_list=wl.P_LIST, model=VolModel.deterministic_sin(wl.BASE, r1)))
        for r1 in wl.SIZE_R1
    ]
    _probe(tracer, "harness.write_size_table", (seed, None, None), repeats, lambda: write_size_table(summaries, str(work / "trace_size_table.csv")))
    esd_cfg = MCConfig(seed=seed, n=wl.N, k_n=wl.K_N, p_list=(102,), model=scalar)
    _probe(tracer, "harness.run_esd_figure", (seed, 102, None), repeats, lambda: run_esd_figure(esd_cfg, work / "trace_esd"))

    # -- cli: one round trip at p = 102
    for argv in wl.cli_argvs(seed, 102, work):
        attempted += 1
        with tracer.span(f"cli.{argv[0]}", (seed, 102, None)):
            code = cli_main(argv)
        if code != 0:
            failed += 1
            problems.append(f"trace: cli {argv[0]} exited {code}")
    for _ in range(repeats - 1):
        for argv in wl.cli_argvs(seed, 102, work):
            with tracer.span(f"cli.{argv[0]}", (seed, 102, None)):
                cli_main(argv)

    # -- traced replication loop against the untraced harness
    reps = SMOKE_REPS if smoke else BLOCK_REPS
    diag_alt = Alternative(s=wl.POWER_S, low=wl.POWER_LOW)
    diag_model = VolModel.two_block(DIAG_P, diag_alt.s, high=wl.BASE, low=diag_alt.low, r1=DIAG_R1)
    traced_s = untraced_s = 0.0
    traced_reps = 0
    counter = _EigvalshCounter()
    blocks = 0
    while blocks < (1 if smoke else MIN_BLOCKS) or (
        perf_counter() - t_start < seconds and perf_counter() - t_start < wl.MAX_TIMED_S
    ):
        for p, label in [(p, "scalar") for p in wl.P_LIST] + [(DIAG_P, "diag")]:
            first_span = len(tracer.spans)
            model = diag_model if label == "diag" else scalar
            traced = traced_cell(tracer, counter, seed, p, model, label, reps)
            rep_spans = [s for s in tracer.spans[first_span:] if s[0] == f"harness.rep.{label}"]
            cfg = MCConfig(
                seed=seed, reps=reps, n=wl.N, k_n=wl.K_N, p_list=(p,),
                model=VolModel.deterministic_sin(wl.BASE, DIAG_R1) if label == "diag" else scalar,
                alternative=diag_alt if label == "diag" else None,
            )
            t0 = perf_counter()
            summary = run_power_experiment(cfg) if label == "diag" else run_size_experiment(cfg)
            elapsed = perf_counter() - t0
            attempted += reps
            if not _cell_matches(summary, p, traced):
                failed += reps
                problems.append(f"trace: traced z-scores differ from harness at p={p} ({label})")
            if label == "scalar":
                traced_s += sum(end - start for _, start, end, _, _ in rep_spans)
                untraced_s += elapsed
                traced_reps += reps
        blocks += 1
    eig_calls_per_rep = counter.calls / (blocks * reps * (len(wl.P_LIST) + 1))

    pool = {
        w: statistics.median(tracer.spans[i][2] - tracer.spans[i][1] for i in tracer.select(f"harness.pool_cell.w{w}"))
        for w in (1, 2)
    }
    us, ms = 1e6, 1e3
    metrics = {}
    for p in wl.P_LIST:
        metrics[f"simkit.window_us.p{p}"] = (us * tracer.median_self("simkit.simulate_window_increments", p, "harness.rep.scalar"), "us")
        metrics[f"estimators.spot_us.p{p}"] = (us * tracer.median_self("estimators.spot_vol_from_window+rescale", p, "harness.rep.scalar"), "us")
        metrics[f"spectra.eig_us.p{p}"] = (us * tracer.median_self("spectra.eigenvalues_sym", p), "us")
        metrics[f"hdtests.evaluate_us.p{p}"] = (us * tracer.median_self("hdtests.evaluate_tests", p, "harness.rep.scalar"), "us")
        metrics[f"harness.rep_us.p{p}"] = (us * tracer.median_total("harness.rep.scalar", p), "us")
    metrics["simkit.window_diag_us.p102"] = (us * tracer.median_self("simkit.simulate_window_increments", DIAG_P, "harness.rep.diag"), "us")
    for p in (34, 102):
        metrics[f"simkit.path_ms.p{p}"] = (ms * tracer.median_self("simkit.simulate_path", p), "ms")
        metrics[f"spectra.ks_ms.p{p}"] = (ms * tracer.median_self("spectra.kolmogorov_distance", p), "ms")
    metrics.update({
        "simkit.path_csv_write_ms.p102": (ms * tracer.median_self("simkit.write_path_csv", 102), "ms"),
        "simkit.path_csv_read_ms.p102": (ms * tracer.median_self("simkit.read_path_csv", 102), "ms"),
        "simkit.path_csv_mb.p102": (path_mb, "MB"),
        "estimators.spot_full_ms.p102": (ms * tracer.median_self("estimators.spot_vol", 102), "ms"),
        "estimators.matrix_csv_read_ms.p102": (ms * tracer.median_self("estimators.read_matrix_csv", 102), "ms"),
        "rmt.mp_cdf_us": (us * tracer.median_self("rmt.mp_cdf_grid401") / len(grid_x), "us"),
        "rmt.lss_constants_us": (us * tracer.median_self("rmt.mp_lss_constants"), "us"),
        "hdtests.eigvalsh_per_rep": (eig_calls_per_rep, "count"),
        "harness.pool_start_ms": (ms * (pool[2] - pool[1]), "ms"),
        "harness.table_write_ms": (ms * tracer.median_self("harness.write_size_table"), "ms"),
        "harness.esd_figure_ms.p102": (ms * tracer.median_self("harness.run_esd_figure", 102), "ms"),
        "trace.untraced_rep_us": (us * untraced_s / traced_reps, "us"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    })
    for cmd in ("simulate", "spot", "test"):
        metrics[f"cli.cmd_ms.{cmd}"] = (ms * tracer.median_self(f"cli.{cmd}", 102), "ms")
    tracer.dump(out_path)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "spans": len(tracer.spans),
        "traced_reps": traced_reps,
    }
