"""Monte Carlo harness: configs, summaries, experiments, figure artifacts."""

import csv
import io
import math
import multiprocessing
import os
import signal
import time
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

from spotspectra import (
    Alternative,
    ConfigError,
    GridConfig,
    MCConfig,
    MCSummary,
    MPLaw,
    SingularEstimateError,
    TestKind,
    VolModel,
    WorkerError,
    eigenvalues_sym,
    esd_eval,
    evaluate_tests,
    kolmogorov_distance,
    mp_cdf,
    mp_lss_constants,
    rescale,
    run_esd_figure,
    run_power_experiment,
    run_qq_figure,
    run_size_experiment,
    simulate_window_increments,
    spot_vol_from_window,
    write_power_table,
    write_size_table,
)
from spotspectra import estimators, harness, simkit, spectra
from spotspectra.estimators import window_start

_SMALL = dict(reps=30, n=400, p_list=(8, 30))  # k_n defaults to isqrt(400) = 20


def test_mc_config_defaults_and_validation():
    cfg = MCConfig(seed=0, n=400)
    assert cfg.k_n == 20
    assert MCConfig(seed=0).k_n == 68
    with pytest.raises(ConfigError, match="reps must be"):
        MCConfig(seed=0, reps=0)
    with pytest.raises(ConfigError, match="seed must be"):
        MCConfig(seed=-1)
    with pytest.raises(ConfigError, match="levels must lie"):
        MCConfig(seed=0, levels=(0.1, 1.0))
    with pytest.raises(ConfigError, match="overruns"):
        MCConfig(seed=0, n=400, t=0.96)
    with pytest.raises(ConfigError, match="workers"):
        MCConfig(seed=0, workers=0)
    with pytest.raises(ConfigError, match="p_list"):
        MCConfig(seed=0, p_list=(0,))
    with pytest.raises(ConfigError, match="p_list entries must be distinct"):
        MCConfig(seed=0, p_list=(34, 68, 34))
    with pytest.raises(ConfigError, match="levels must be distinct"):
        MCConfig(seed=0, levels=(0.05, 0.1, 0.05))
    # entries are taken as integers, never truncated or parsed
    assert MCConfig(seed=0, p_list=(np.int64(34), 68)).p_list == (34, 68)
    for p_list in ((34.7, 68.2), ("34",), (34.0,)):
        with pytest.raises(ConfigError, match="p_list entries must be integers"):
            MCConfig(seed=0, p_list=p_list)
    # levels entries are taken as numbers, never parsed
    assert MCConfig(seed=0, levels=(np.float64(0.05), 0.1)).levels == (0.05, 0.1)
    for levels in (("x",), (None,), ("0.05",), 0.05):
        with pytest.raises(ConfigError, match="levels entries must be numbers"):
            MCConfig(seed=0, levels=levels)


def test_alternative_validation():
    Alternative(s=0.45)
    with pytest.raises(ConfigError, match="s must lie"):
        Alternative(s=1.0)
    with pytest.raises(ConfigError, match="low must be"):
        Alternative(s=0.5, low=0.0)


def test_size_summary_structure_and_rates():
    cfg = MCConfig(seed=3, **_SMALL)
    summary = run_size_experiment(cfg)
    # log-spectral test only where p < k_n
    assert set(summary.zscores) == {
        (TestKind.BJYZ, 8),
        (TestKind.LW, 8),
        (TestKind.J, 8),
        (TestKind.LW, 30),
        (TestKind.J, 30),
    }
    for z in summary.zscores.values():
        assert z.shape == (30,)
        assert np.all(np.isfinite(z))
    # rejection rate: strict |z| > two-sided normal threshold
    z = summary.zscores[(TestKind.LW, 8)]
    for level in (0.10, 0.05, 0.01):
        threshold = NormalDist().inv_cdf(1.0 - level / 2.0)
        manual = float(np.mean(np.abs(z) > threshold))
        assert summary.rejection_rate(TestKind.LW, level, 8) == manual


def test_single_rep_rate_is_zero_or_one():
    summary = run_size_experiment(MCConfig(seed=4, reps=1, n=400, p_list=(8,)))
    for (kind, p) in summary.zscores:
        assert summary.rejection_rate(kind, 0.05, p) in (0.0, 1.0)


def test_experiments_are_deterministic():
    cfg = MCConfig(seed=5, **_SMALL)
    a = run_size_experiment(cfg)
    b = run_size_experiment(MCConfig(seed=5, **_SMALL))
    for key in a.zscores:
        np.testing.assert_array_equal(a.zscores[key], b.zscores[key])
    c = run_size_experiment(MCConfig(seed=6, **_SMALL))
    assert any(not np.array_equal(a.zscores[k], c.zscores[k]) for k in a.zscores)


def test_worker_count_does_not_change_output(monkeypatch, no_child_floor):
    # At p = 102, k_n = 68 the BLAS kernels would thread; below they do not.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    for design in (_SMALL, dict(reps=6, n=4680, p_list=(102,))):
        serial = run_size_experiment(MCConfig(seed=7, **design, workers=1))
        parallel = run_size_experiment(MCConfig(seed=7, **design, workers=4))
        assert set(serial.zscores) == set(parallel.zscores)
        for key in serial.zscores:
            np.testing.assert_array_equal(serial.zscores[key], parallel.zscores[key])


# p = 4,096 gives each replication a child's worth of rows, so only the
# workers, the CPUs and the replications bound these plans.
_WIDE = dict(n=400, p_list=(4096,))


def test_worker_pool_is_bounded_by_chunks_and_cores():
    # One chunk per process, the calling process's first: 30 replications
    # make 3 chunks on 3 CPUs, and 30 for 50 workers on 64.
    for workers, cpus, expected in (
        (8, 3, [(0, 10), (10, 20), (20, 30)]),
        (50, 64, [(lo, lo + 1) for lo in range(30)]),
        (4, 1, [(0, 30)]),
    ):
        cfg = MCConfig(seed=7, reps=30, **_WIDE, workers=workers)
        assert harness._plan([cfg], cpus)[1] == expected


def test_worker_pool_is_bounded_by_usable_cpus():
    cfg = MCConfig(seed=7, reps=30, **_WIDE, workers=8)
    assert harness._plan([cfg], 1)[1] == [(0, 30)]
    assert harness._plan([cfg], 3)[1] == [(0, 10), (10, 20), (20, 30)]


def test_run_plans_for_the_cpus_it_may_use(monkeypatch):
    # A process pinned to fewer CPUs than the machine has (taskset, cpuset)
    # counts only those; without an affinity call, os.cpu_count(), or 1.
    real, planned = harness._plan, []
    monkeypatch.setattr(harness, "_plan", lambda cfgs, cpus: planned.append(cpus) or real(cfgs, cpus))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    for cores in (64, 3, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        run_size_experiment(MCConfig(seed=7, reps=1, n=400, p_list=(8,)))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert planned == [3, 3, 1]


def test_chunks_are_cut_per_process():
    # 4 workers on 2 usable CPUs: one child, and this process runs half of
    # the replications (rounded up), not a quarter.
    cfg = MCConfig(seed=7, reps=7, **_WIDE, workers=4)
    assert harness._plan([cfg], 2)[1] == [(0, 4), (4, 7)]


def test_run_executes_the_plans_chunks(monkeypatch, no_child_floor):
    # This process runs chunk 0 and one child each other chunk, exactly as
    # planned, and the uneven pieces join to the serial run.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    cfg = MCConfig(seed=7, **dict(_SMALL, reps=7), workers=4)
    serial = run_size_experiment(replace(cfg, workers=1))
    rep_range, process, ranges, started = harness._run_rep_range, harness.Process, [], []
    monkeypatch.setattr(harness, "_run_rep_range", lambda *a: ranges.append(a[-2:]) or rep_range(*a))
    monkeypatch.setattr(harness, "Process", lambda **kw: started.append(kw["args"][-2:]) or process(**kw))
    split = run_size_experiment(cfg)
    bounds = harness._plan([cfg], 3)[1]
    assert bounds == [(0, 3), (3, 6), (6, 7)]
    assert (ranges, started) == (bounds[:1], bounds[1:])
    assert set(split.zscores) == set(serial.zscores)
    for key in serial.zscores:
        np.testing.assert_array_equal(serial.zscores[key], split.zscores[key])


@pytest.mark.parametrize(
    "cfgs, bounds",
    [
        # mc-size --r1 0,0.0004 --reps 20: 20 x 2 x 204 = 8,160 rows < 2 x 4,096
        ([MCConfig(seed=0, reps=20, model=VolModel.deterministic_sin(0.0009, r1), workers=2)
          for r1 in (0.0, 0.0004)], [(0, 20)]),
        # a benchmark table cell: 20 x 102 = 2,040 rows
        ([MCConfig(seed=0, reps=20, p_list=(102,), alternative=Alternative(s=0.45), workers=2)],
         [(0, 20)]),
        ([MCConfig(seed=0, workers=2)], [(0, 500), (500, 1000)]),  # the default design
    ],
    ids=["roadmap-example", "table-cell", "default-design"],
)
def test_plan_decides_on_two_cpus_without_running(monkeypatch, cfgs, bounds):
    for name in ("Process", "Pipe", "kernel_scope", "_run_rep_range", "_window_source", "make_dir"):
        monkeypatch.setattr(harness, name, None)  # the plan starts, draws and writes nothing
    assert harness._plan(cfgs, 2)[1] == bounds


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_restores_blas_threads_when_a_replication_raises(
    monkeypatch, no_child_floor, blas_threads, workers
):
    # A child's own thread count is checked by
    # test_a_forked_child_runs_on_one_blas_thread.
    get, set_ = blas_threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    rep_range, process, seen, started = harness._run_rep_range, harness.Process, [], []

    def chunk_0_fails(*args):
        seen.append((args[-2], get()))
        if args[-2] == 0:
            raise SingularEstimateError("replication 0 failed")
        return rep_range(*args)

    monkeypatch.setattr(harness, "_run_rep_range", chunk_0_fails)
    monkeypatch.setattr(harness, "Process", lambda **kw: started.append(kw["args"][-2:]) or process(**kw))
    set_(2)
    with pytest.raises(SingularEstimateError, match="replication 0 failed"):
        run_size_experiment(MCConfig(seed=7, reps=4, n=400, p_list=(8,), workers=workers))
    # A child is started for chunk 1 (replications 2, 3) before this process runs chunk 0.
    assert seen == [(0, 1)]
    assert started == [(2, 4)] * (workers - 1)
    assert get() == 2
    assert multiprocessing.active_children() == []


def test_no_child_below_the_floor():
    # A child must get at least _CHILD_MIN_ROWS replication rows (replications
    # x the sum of the cells' p) to pay for its fork; below that the calling
    # process runs every replication, whatever the worker count.
    assert harness._plan([MCConfig(seed=7, **_SMALL, workers=2)], 2)[1] == [(0, 30)]
    # one row short of two chunks' worth at p = 8
    reps = 2 * harness._CHILD_MIN_ROWS // 8 - 1
    cfg = MCConfig(seed=7, reps=reps, n=400, p_list=(8,), workers=2)
    assert harness._plan([cfg], 2)[1] == [(0, reps)]


def test_chunks_clear_the_floor():
    # Exactly two chunks' worth of rows: 8 workers on 4 CPUs run 2 processes.
    reps = 2 * harness._CHILD_MIN_ROWS // 8
    cfg = MCConfig(seed=7, reps=reps, n=400, p_list=(8,), workers=8)
    assert harness._plan([cfg], 4)[1] == [(0, reps // 2), (reps // 2, reps)]


def _sin(r1, **kw):
    return MCConfig(model=VolModel.deterministic_sin(0.0009, r1), **kw)


@pytest.mark.parametrize("cfgs, workers, children", [
    # 216 replications of p = 8 and 30 hold 8,208 rows, two chunks' worth
    ([MCConfig(seed=7, **dict(_SMALL, reps=216))], 2, [(108, 216)]),
    # qq --seed 8 --reps 216 --r2 0.02: the same rows under the stochastic model
    ([MCConfig(seed=8, **dict(_SMALL, reps=216), model=VolModel.stochastic_bm(0.0009, 0.02))],
     2, [(108, 216)]),
    # mc-power --seed 8 --reps 36 --r1 0,0.0004: 36 x 6 cells x 38 = 8,208 rows
    ([_sin(r1, seed=8, **dict(_SMALL, reps=36), alternative=Alternative(s))
      for s in (0.45, 0.6, 0.75) for r1 in (0.0, 0.0004)], 2, [(18, 36)]),
    # mc-size --seed 8 --reps 170 --r1 0,0.0004 at three workers: 12,920 rows
    # in uneven chunks
    ([_sin(r1, seed=8, **dict(_SMALL, reps=170)) for r1 in (0.0, 0.0004)], 3, [(57, 114), (114, 170)]),
], ids=["size", "qq", "mc-power", "mc-size"])
def test_children_above_the_floor_match_serial(monkeypatch, cfgs, workers, children):
    # No lowered floor: real children run every chunk after the first.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    assert cfgs[0].reps * sum(sum(cfg.p_list) for cfg in cfgs) >= workers * harness._CHILD_MIN_ROWS
    serial = harness._run_experiments(cfgs)
    started = []
    real = harness.Process
    monkeypatch.setattr(harness, "Process", lambda **kw: started.append(kw) or real(**kw))
    parallel = harness._run_experiments([replace(cfg, workers=workers) for cfg in cfgs])
    assert [kw["args"][-2:] for kw in started] == children
    for one, many in zip(serial, parallel, strict=True):
        assert set(one.zscores) == set(many.zscores)
        for key in one.zscores:
            assert np.array_equal(one.zscores[key], many.zscores[key])


_FORK = pytest.mark.skipif(
    harness._CONTEXT.get_start_method() != "fork",
    reason="the child must inherit this test's patches",
)


@_FORK
def test_worker_that_exits_without_reporting_is_a_keyed_error(monkeypatch, no_child_floor):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    real = harness._run_rep_range
    monkeypatch.setattr(
        harness, "_run_rep_range", lambda *a: os._exit(7) if a[-2] else real(*a)
    )
    with pytest.raises(
        WorkerError,
        match=r"^seed 7, p \[8, 30\], replications 15\.\.29: "
        r"worker process exited with code 7 before reporting$",
    ):
        run_size_experiment(MCConfig(seed=7, **_SMALL, workers=2))
    assert multiprocessing.active_children() == []


@_FORK
def test_a_child_error_carries_the_child_traceback(monkeypatch, no_child_floor):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    real = harness._run_rep_range

    def child_fails(*args):
        if args[-2]:
            raise KeyError("child bug")
        return real(*args)

    monkeypatch.setattr(harness, "_run_rep_range", child_fails)
    with pytest.raises(KeyError, match="child bug") as info:
        run_size_experiment(MCConfig(seed=7, reps=4, n=400, p_list=(8,), workers=2))
    cause = info.value.__cause__
    assert isinstance(cause, WorkerError)
    assert "in child_fails" in str(cause)
    assert str(cause).endswith("KeyError: 'child bug'\n")
    assert multiprocessing.active_children() == []


@_FORK
@pytest.mark.parametrize("default", ["fork", "forkserver", "spawn"])
def test_a_forked_child_runs_on_one_blas_thread(
    monkeypatch, tmp_path, no_child_floor, blas_threads, default
):
    # Whatever the interpreter's default start method, the child is forked:
    # it runs this test's patch, and it never calls the setter, since it
    # inherits the count of 1 that the call's scope set before the fork.
    get, set_ = blas_threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    real = harness._run_rep_range

    def record(*args):
        (tmp_path / f"threads_{args[-2]}").write_text(str(get()))
        return real(*args)

    monkeypatch.setattr(harness, "_run_rep_range", record)
    set_(2)
    old = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(default, force=True)
    try:
        run_size_experiment(MCConfig(seed=7, reps=4, n=400, p_list=(8,), workers=2))
    finally:
        multiprocessing.set_start_method(old, force=True)
    assert (tmp_path / "threads_2").read_text() == "1"  # the child's chunk
    assert (tmp_path / "threads_0").read_text() == "1"
    assert get() == 2
    assert multiprocessing.active_children() == []


@_FORK
def test_a_failing_caller_kills_its_children(monkeypatch, no_child_floor):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    real = harness._run_rep_range
    started = []

    class Recorded(harness.Process):
        def start(self):
            super().start()
            started.append(self)

    def chunk(*args):
        if args[-2] == 0:
            raise SingularEstimateError("caller failed")
        time.sleep(60)
        return real(*args)

    monkeypatch.setattr(harness, "Process", Recorded)
    monkeypatch.setattr(harness, "_run_rep_range", chunk)
    with pytest.raises(SingularEstimateError, match="caller failed"):
        run_size_experiment(MCConfig(seed=7, **_SMALL, workers=2))
    assert [child.exitcode for child in started] == [-signal.SIGKILL]
    assert multiprocessing.active_children() == []


def test_zscores_do_not_depend_on_the_callers_blas_threads(blas_threads):
    # At p = 102 OpenBLAS would split the Gram product and the Frobenius dot
    # product across threads, and the split changes the rounding of the
    # estimate and of the z-scores.
    get, set_ = blas_threads
    n, t, k_n, p, base, reps = 4680, 0.0, 68, 102, 0.0009, 4
    model = VolModel.deterministic_sin(base, 0.0004)
    runs = []
    for threads in (1, 2):
        set_(threads)
        estimates = [_public_estimate(13, n, t, k_n, p, model, base, rep) for rep in range(reps)]
        public = [[r.zscore for r in evaluate_tests(est)] for est in estimates]
        swept = harness._run_rep_range(13, n, t, k_n, ((p, model, "r1 0.0004"),), base, 0, reps)[0]
        assert get() == threads
        runs.append((
            np.array([est.matrix for est in estimates]),
            np.array(public),
            np.column_stack(list(swept.values())),
        ))
    (matrices_1, public_1, swept_1), (matrices_2, public_2, swept_2) = runs
    assert np.array_equal(matrices_1, matrices_2)
    assert np.array_equal(public_1, public_2)
    assert np.array_equal(public_1, swept_1)
    assert np.array_equal(public_2, swept_2)


def test_replications_make_no_eigendecomposition(monkeypatch):
    calls = []
    for name in ("eigvalsh", "eigh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, real=real, **k: calls.append(a) or real(*a, **k)
        )
    # p = 8 runs all three tests, p = 30 > k_n = 20 runs lw and j
    summary = run_size_experiment(MCConfig(seed=0, **dict(_SMALL, reps=3)))
    assert len(summary.zscores) == 5
    assert calls == []


def test_replication_builds_no_estimate(monkeypatch):
    # The sweep's matrices are symmetric by construction and are not
    # validated again; test_sweep_zscores_equal_public_route checks that they
    # give what the validated public estimates give.
    calls = []
    real = estimators.checked_symmetric
    monkeypatch.setattr(
        estimators, "checked_symmetric", lambda *a: calls.append(a) or real(*a)
    )
    model = VolModel.deterministic_sin(0.0009, 0.0004)
    harness._run_rep_range(0, 400, 0.0, 20, ((8, model, "r1 0.0004"),), 0.0009, 3, 8)
    assert calls == []


def test_rep_range_builds_one_philox(monkeypatch):
    built = []
    real = simkit.Philox
    monkeypatch.setattr(simkit, "Philox", lambda *a, **k: built.append(k) or real(*a, **k))
    model = VolModel.stochastic_bm(0.0009, 0.02)
    z = harness._run_rep_range(0, 400, 0.25, 20, ((8, model, "r2 0.02"),), 0.0009, 0, 20)[0]
    assert len(built) == 1
    assert all(len(zs) == 20 for zs in z.values())


def test_rep_range_failure_names_its_key(monkeypatch):
    real = harness._statistics
    calls = []

    def fail_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise SingularEstimateError("injected pivot failure")
        return real(*args)

    monkeypatch.setattr(harness, "_statistics", fail_third)
    model = VolModel.deterministic_sin(0.0009, 0.0004)
    with pytest.raises(
        SingularEstimateError,
        match=r"^seed 4, r1 0\.0004, p 8, replication 12: injected pivot failure$",
    ) as info:
        harness._run_rep_range(4, 400, 0.0, 20, ((8, model, "r1 0.0004"),), 0.0009, 10, 20)
    assert str(info.value.__cause__) == "injected pivot failure"


@pytest.mark.parametrize("table, label", [
    ("size", "r1 0.0004"), ("bm", "r2 0.02"), ("power", "s 0.6, r1 0.0004"),
])
def test_run_failure_names_its_model(monkeypatch, table, label):
    # Two models at the same p run together: the failing cell's key names
    # its model's amplitude, so the two cells cannot be told apart by p alone.
    real = harness._statistics
    calls = []

    def fail_fourth(*args):
        calls.append(args)
        if len(calls) == 4:  # replication 1 of the second model
            raise SingularEstimateError("injected pivot failure")
        return real(*args)

    monkeypatch.setattr(harness, "_statistics", fail_fourth)
    design = dict(seed=4, reps=3, n=400, p_list=(8,))
    cfgs = {
        "size": [MCConfig(**design, model=VolModel.deterministic_sin(0.0009, r1))
                 for r1 in (0.0, 0.0004)],
        "bm": [MCConfig(**design, model=VolModel.stochastic_bm(0.0009, r2))
               for r2 in (0.01, 0.02)],
        "power": [MCConfig(**design, model=VolModel.deterministic_sin(0.0009, 0.0004),
                           alternative=Alternative(s=s)) for s in (0.45, 0.6)],
    }[table]
    with pytest.raises(
        SingularEstimateError, match=rf"^seed 4, {label}, p 8, replication 1: injected pivot failure$"
    ):
        harness._run_experiments(cfgs)


@pytest.mark.parametrize("seed", [0, 8])
def test_run_of_many_models_equals_one_call_each(seed):
    # Two models at each p share every replication's noise draw; each
    # summary must hold what its model's own experiment call gives.
    design = dict(seed=seed, reps=9, n=400, p_list=(8, 30))
    cfgs = [MCConfig(**design, model=VolModel.deterministic_sin(0.0009, r1)) for r1 in (0.0, 0.0004)]
    cfgs += [MCConfig(**design, model=VolModel.stochastic_bm(0.0009, 0.02))]
    cfgs += [
        MCConfig(**design, model=VolModel.deterministic_sin(0.0009, r1), alternative=Alternative(s=s))
        for s in (0.45, 0.6) for r1 in (0.0, 0.0004)
    ]
    merged = harness._run_experiments(cfgs)
    assert [summary.config for summary in merged] == cfgs
    for cfg, summary in zip(cfgs, merged):
        alone = (run_power_experiment if cfg.alternative else run_size_experiment)(cfg)
        assert list(summary.zscores) == list(alone.zscores)
        for key in alone.zscores:
            assert np.array_equal(summary.zscores[key], alone.zscores[key])


def test_run_of_many_models_rejects_other_differences():
    design = dict(seed=0, reps=2, n=400, p_list=(8,))
    first = MCConfig(**design)
    for other in (
        MCConfig(**dict(design, reps=3)),
        MCConfig(**design, workers=2),
        MCConfig(**design, model=VolModel.deterministic_sin(0.0004, 0.0)),
    ):
        with pytest.raises(ConfigError, match="may differ only in"):
            harness._run_experiments([first, other])


def test_run_of_many_models_rejects_equal_configs():
    # two equal configs would write each of their table rows twice
    design = dict(seed=0, reps=2, n=400, p_list=(8,))
    for model in (VolModel.deterministic_sin(0.0009, 0.0004), VolModel.stochastic_bm(0.0009, 0.02)):
        with pytest.raises(ConfigError, match="must be distinct"):
            harness._run_experiments([MCConfig(**design, model=model)] * 2)
    power = [MCConfig(**design, alternative=Alternative(s=s)) for s in (0.45, 0.6, 0.45)]
    with pytest.raises(ConfigError, match="must be distinct"):
        harness._run_experiments(power)


_CHUNK_MODELS = {
    "sin": VolModel.deterministic_sin(0.0009, 0.0004),
    "two_block": VolModel.two_block(8, 0.6, high=0.0009, low=0.0004, r1=0.0004),
    "bm": VolModel.stochastic_bm(0.0009, 0.02),
}


@pytest.mark.parametrize("model", sorted(_CHUNK_MODELS))
def test_rep_range_pieces_join_to_the_whole(model):
    # one generator per chunk: where the chunks end must not move a draw
    args = (5, 400, 0.25, 20, ((8, _CHUNK_MODELS[model], model),), 0.0009)
    whole = harness._run_rep_range(*args, 0, 20)[0]
    pieces = [harness._run_rep_range(*args, lo, hi)[0] for lo, hi in ((0, 7), (7, 8), (8, 20))]
    assert list(whole) == list(pieces[0])
    for kind in whole:
        assert np.array_equal(whole[kind], np.concatenate([piece[kind] for piece in pieces]))


@pytest.mark.parametrize("seed", [0, 8])
@pytest.mark.parametrize("model", ["sin", "two_block", "bm"])
def test_rep_range_cells_share_one_draw(model, seed):
    # The cells of one call take the leading rows of one noise draw; each
    # must get exactly what it gets alone.  p = 8, 20, 30: z_n below, at and
    # above 1, in an order that does not put the largest p first or last.
    base = 0.0009
    cells = tuple(
        (p, {
            "sin": VolModel.deterministic_sin(base, 0.0004),
            "two_block": VolModel.two_block(p, 0.6, high=base, low=0.0004, r1=0.0004),
            "bm": VolModel.stochastic_bm(base, 0.02),
        }[model], model)
        for p in (20, 30, 8)
    )
    shared = harness._run_rep_range(seed, 400, 0.25, 20, cells, base, 3, 12)
    assert len(shared) == len(cells)
    for cell, z in zip(cells, shared):
        alone = harness._run_rep_range(seed, 400, 0.25, 20, (cell,), base, 3, 12)[0]
        assert list(z) == list(alone)
        for kind in z:
            assert np.array_equal(z[kind], alone[kind])


def _public_estimate(seed, n, t, k_n, p, model, base, rep):
    # the composition of public calls the benchmark's oracles use
    grid = GridConfig(n=n, p=p, seed=seed)
    window = simulate_window_increments(grid, model, window_start(t, n, k_n), k_n, replication=rep)
    return rescale(spot_vol_from_window(window, n, t, k_n), 1.0 / base)


# the window at t = 0 (cells 1 .. 20) and, for seed 11, at t = 0.25 (cells 101 .. 120)
@pytest.mark.parametrize("seed, t", [(0, 0.0), (8, 0.0), (11, 0.25)], ids=["0", "8", "11-t0.25"])
@pytest.mark.parametrize("p", [8, 20, 30])  # z_n below, at and above 1
@pytest.mark.parametrize("model", ["sin", "two_block", "bm"])
def test_sweep_zscores_equal_public_route(model, p, seed, t):
    n, k_n, base, rep_lo, rep_hi = 400, 20, 0.0009, 3, 9
    data_model = {
        "sin": VolModel.deterministic_sin(base, 0.0004),
        "two_block": VolModel.two_block(p, 0.6, high=base, low=0.0004, r1=0.0004),
        "bm": VolModel.stochastic_bm(base, 0.02),
    }[model]
    z = harness._run_rep_range(seed, n, t, k_n, ((p, data_model, model),), base, rep_lo, rep_hi)[0]
    reports = [
        evaluate_tests(_public_estimate(seed, n, t, k_n, p, data_model, base, rep))
        for rep in range(rep_lo, rep_hi)
    ]
    assert list(z) == [report.kind for report in reports[0]]
    assert (TestKind.BJYZ in z) == (p < k_n)
    for i, kind in enumerate(z):
        assert np.array_equal(z[kind], [r[i].zscore for r in reports])


def test_sweep_rejects_a_null_level_without_a_finite_reciprocal():
    with pytest.raises(ConfigError, match="needs a finite reciprocal"):
        cfg = MCConfig(seed=0, **dict(_SMALL, reps=2), model=VolModel.deterministic_sin(1e-320))
        run_size_experiment(cfg)


def test_grid_and_sweep_share_one_bound_on_p():
    # coordinate 2**20 - 1 is the last the substream layout keys
    GridConfig(n=10, p=2**20 - 1, seed=0)
    MCConfig(seed=0, n=400, p_list=(8, 2**20 - 1))
    message = r"^p must be < 2\*\*20 to fit the substream layout, got 1048576$"
    with pytest.raises(ConfigError, match=message):
        GridConfig(n=10, p=2**20, seed=0)
    with pytest.raises(ConfigError, match=message):
        MCConfig(seed=0, p_list=(2**20,))


@pytest.mark.parametrize(
    "model, alternative, message",
    [
        (VolModel.piecewise_diag((1.0, 1.0, 1.0)), None, "scalar-volatility"),
        (VolModel.deterministic_sin(0.0), None, "needs a finite reciprocal"),
        (VolModel.stochastic_bm(0.0009, 0.01), Alternative(s=0.5), "deterministic_sin"),
        (VolModel.deterministic_sin(0.0009, 0.0008), Alternative(s=0.5),
         r"^low must be at least r1, got low=0\.0004, r1=0\.0008$"),
    ],
    ids=["piecewise-diag", "zero-base", "stochastic-alternative", "low-below-r1"],
)
def test_sweep_config_rejects_a_bad_model_when_built(model, alternative, message):
    with pytest.raises(ConfigError, match=message):
        MCConfig(seed=0, **_SMALL, model=model, alternative=alternative)


def test_esd_figure_eigenvalues_equal_public_route(tmp_path, monkeypatch):
    # The figure hands its Gram to the kernel unsymmetrized: the spectrum must
    # still be the public route's bit for bit, with the p - k_n zeros of a
    # rank-deficient estimate snapped to exactly 0.0.
    samples = []
    real = harness._spectrum
    monkeypatch.setattr(harness, "_spectrum", lambda m: samples.append(real(m)) or samples[-1])
    for model in (VolModel.deterministic_sin(0.0009, 0.0004), VolModel.stochastic_bm(0.0009, 0.02)):
        samples.clear()
        cfg = MCConfig(seed=2, reps=1, n=400, p_list=(8, 30), t=0.25, model=model)
        run_esd_figure(cfg, tmp_path)
        assert len(samples) == len(cfg.p_list)
        for sample, p in zip(samples, cfg.p_list):
            est = _public_estimate(cfg.seed, cfg.n, cfg.t, cfg.k_n, p, model, model.base, 0)
            public = eigenvalues_sym(est.matrix).eigenvalues
            np.testing.assert_array_equal(sample.eigenvalues, public)
            assert np.count_nonzero(sample.eigenvalues == 0.0) == max(p - cfg.k_n, 0)


def test_esd_figure_draws_all_dimensions_from_one_philox(tmp_path, monkeypatch):
    built = []
    real = simkit.Philox
    monkeypatch.setattr(simkit, "Philox", lambda *a, **k: built.append(k) or real(*a, **k))
    model = VolModel.stochastic_bm(0.0009, 0.02)
    run_esd_figure(MCConfig(seed=2, n=400, p_list=(8, 30), model=model), tmp_path)
    assert len(built) == 1


def test_esd_figure_validates_each_estimate_once(tmp_path, monkeypatch):
    # The figure's one check is its keyed finiteness check
    # (test_esd_overflow_is_a_keyed_numerical_failure); its exactly symmetric
    # Gram goes to the kernel, once per p
    # (test_esd_figure_content_matches_explicit_spectrum), unchecked.
    calls = []
    for module in (estimators, spectra):
        real = module.checked_symmetric
        monkeypatch.setattr(
            module, "checked_symmetric", lambda *a, real=real: calls.append(a[0].shape) or real(*a)
        )
    run_esd_figure(MCConfig(seed=2, n=400, p_list=(8, 30)), tmp_path)
    assert calls == []


def test_size_experiment_rejects_bad_configs():
    with pytest.raises(ConfigError, match="no alternative"):
        run_size_experiment(MCConfig(seed=0, **_SMALL, alternative=Alternative(s=0.5)))
    with pytest.raises(ConfigError, match="scalar-volatility"):
        run_size_experiment(
            MCConfig(seed=0, reps=2, n=400, p_list=(3,), model=VolModel.piecewise_diag((1.0, 1.0, 1.0)))
        )


def test_power_experiment_rejects_bad_configs():
    with pytest.raises(ConfigError, match="requires an alternative"):
        run_power_experiment(MCConfig(seed=0, **_SMALL))
    with pytest.raises(ConfigError, match="deterministic_sin"):
        run_power_experiment(
            MCConfig(
                seed=0,
                **_SMALL,
                model=VolModel.stochastic_bm(0.0009, 0.01),
                alternative=Alternative(s=0.5),
            )
        )


def test_power_separates_from_size_on_default_design():
    # strong two-block alternative: every replication rejects
    cfg = MCConfig(seed=8, reps=25, p_list=(34,), alternative=Alternative(s=0.45))
    summary = run_power_experiment(cfg)
    assert summary.rejection_rate(TestKind.BJYZ, 0.10, 34) == 1.0
    assert summary.rejection_rate(TestKind.LW, 0.10, 34) == 1.0


def test_esd_artifacts(tmp_path):
    cfg = MCConfig(seed=8, n=400, p_list=(8, 30))
    artifacts = run_esd_figure(cfg, tmp_path)
    assert [a.p for a in artifacts] == [8, 30]
    for artifact in artifacts:
        assert artifact.path.name == f"esd_p{artifact.p}.csv"
        with open(artifact.path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "esd", "mp_cdf"]
        x = np.array([float(r[0]) for r in rows[1:]])
        esd = np.array([float(r[1]) for r in rows[1:]])
        ref = np.array([float(r[2]) for r in rows[1:]])
        assert np.all(np.diff(x) > 0.0)
        assert np.all(np.diff(esd) >= 0.0) and np.all(np.diff(ref) >= -1e-15)
        assert esd[-1] == 1.0
        assert 0.0 <= artifact.ks_distance <= 1.0
        # the grid covers the whole normalized spectrum, so the last ESD jump
        # (the largest eigenvalue) is on file and below the MP edge + slack
        y = artifact.p / cfg.k_n
        edge = (1.0 + math.sqrt(y)) ** 2
        assert x[np.nonzero(np.diff(esd))[0][-1] + 1] <= edge + 0.5


@pytest.mark.parametrize("seed", [0, 8])
def test_esd_figure_writes_pinned_bytes(tmp_path, pinned, seed):
    # At n = 400, k_n = 20: y = 0.4, 1 and 1.5, so the bulk, the hard edge at
    # zero and the atom.  Written twice into one directory, once into a fresh
    # one, and at p = 30 alone.
    cfg = MCConfig(seed=seed, n=400, k_n=20, p_list=(8, 20, 30))
    runs = [(cfg.p_list, tmp_path)] * 2 + [(cfg.p_list, tmp_path / "fresh"), ((30,), tmp_path / "p30")]
    for p_list, out in runs:
        artifacts = run_esd_figure(replace(cfg, p_list=p_list), out)
        assert [a.p for a in artifacts] == list(p_list)
        for artifact in artifacts:
            key = f"esd seed {seed}: {artifact.path.name}"
            pinned(key, artifact.path.read_bytes())
            pinned(f"{key} ks", artifact.ks_distance)


@pytest.mark.parametrize(
    "seed, p_list", [(0, (8, 20, 30)), (8, (8, 20, 30)), (6, (8,))], ids=["0", "8", "6"]
)
def test_esd_figure_content_matches_explicit_spectrum(tmp_path, monkeypatch, seed, p_list):
    # The designs of the byte pins above and one more, checked by content so
    # that the check holds on any BLAS kernel: every row's esd and mp_cdf are
    # the functions at its x, every eigenvalue is an x, the ESD jumps, with
    # their multiplicities, sit at the eigenvalues of the estimate formed
    # entry by entry from the window, and the KS distance is the one
    # kolmogorov_distance gives, from two MP-cdf calls per figure.
    samples, calls = [], []
    real_eig, real_cdf = harness._spectrum, harness.mp_cdf

    def eig(m):
        calls.append("eig")
        samples.append(real_eig(m))
        return samples[-1]

    monkeypatch.setattr(harness, "_spectrum", eig)
    monkeypatch.setattr(harness, "mp_cdf", lambda *a: calls.append("cdf") or real_cdf(*a))
    cfg = MCConfig(seed=seed, n=400, k_n=20, p_list=p_list)
    artifacts = run_esd_figure(cfg, tmp_path)
    assert calls == ["eig", "cdf", "cdf"] * len(p_list)
    start = window_start(cfg.t, cfg.n, cfg.k_n)
    for artifact, sample in zip(artifacts, samples, strict=True):
        p, law = artifact.p, MPLaw(y=artifact.p / cfg.k_n)
        assert artifact.path == tmp_path / f"esd_p{p}.csv"
        header, *rows, end = artifact.path.read_bytes().decode().split("\r\n")
        assert header == "x,esd,mp_cdf" and end == ""
        x, esd, cdf = np.array([row.split(",") for row in rows], dtype=float).T
        assert set(sample.eigenvalues.tolist()) <= set(x.tolist())
        np.testing.assert_array_equal(esd, esd_eval(sample, x))
        np.testing.assert_array_equal(cdf, mp_cdf(x, law))
        assert esd[-1] == 1.0
        assert artifact.ks_distance == kolmogorov_distance(sample, lambda v: mp_cdf(v, law))
        grid = GridConfig(n=cfg.n, p=p, seed=seed)
        window = simulate_window_increments(grid, cfg.model, start, cfg.k_n)
        a = np.einsum("ik,jk->ij", window, window) * (cfg.n / cfg.k_n) / cfg.model.base
        lam = np.linalg.eigvalsh(a)
        steps = np.diff(np.concatenate(([0.0], esd))) * p
        multiplicity = np.rint(steps).astype(int)
        np.testing.assert_allclose(steps, multiplicity, rtol=0.0, atol=1e-9)
        jumps = np.repeat(x, multiplicity)
        assert jumps.size == p
        assert np.all(np.abs(jumps - lam) <= 1e-10 * np.maximum(1.0, np.abs(jumps)))


def test_esd_default_design_ks(tmp_path):
    # flat volatility at the default scale: the wide cell's normalized
    # spectrum must track the limit law closely
    cfg = MCConfig(seed=8, p_list=(102,))
    artifact = run_esd_figure(cfg, tmp_path)[0]
    assert artifact.ks_distance < 0.08


def test_esd_bytes_do_not_depend_on_the_callers_blas_threads(tmp_path, blas_threads):
    # At p = 300 OpenBLAS would split the eigendecomposition across threads,
    # and the split changes the last bits of the eigenvalues.
    get, set_ = blas_threads
    written = []
    for threads in (1, 2):
        set_(threads)
        artifact = run_esd_figure(MCConfig(seed=8, p_list=(300,)), tmp_path / str(threads))[0]
        assert get() == threads
        written.append(artifact.path.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("field", ["p_list", "levels"])
def test_mc_config_rejects_empty_list(field):
    with pytest.raises(ConfigError, match=f"{field} must name at least one"):
        MCConfig(seed=0, n=400, **{field: ()})


def test_qq_artifacts(tmp_path):
    cfg = MCConfig(seed=9, reps=40, n=400, p_list=(8, 30))
    artifacts = run_qq_figure(cfg, tmp_path)
    names = {a.path.name for a in artifacts}
    assert names == {
        "qq_bjyz_0.4.csv",
        "qq_lw_0.4.csv",
        "qq_j_0.4.csv",
        "qq_lw_1.5.csv",
        "qq_j_1.5.csv",
    }
    summary = run_size_experiment(MCConfig(seed=9, reps=40, n=400, p_list=(8, 30)))
    for artifact in artifacts:
        np.testing.assert_array_equal(
            artifact.empirical, np.sort(summary.zscores[(artifact.kind, artifact.p)])
        )
        assert artifact.theoretical.shape == (40,)
        assert -1.0 <= artifact.correlation <= 1.0
        with open(artifact.path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theoretical", "empirical"]
        assert len(rows) == 41


def test_qq_two_rep_quantiles(tmp_path):
    artifacts = run_qq_figure(MCConfig(seed=10, reps=2, n=400, p_list=(8,)), tmp_path)
    quartile = 0.6744897501960817  # Phi^{-1}(0.75)
    for artifact in artifacts:
        np.testing.assert_allclose(artifact.theoretical, [-quartile, quartile], rtol=1e-12)


def test_qq_single_rep_has_no_correlation(tmp_path):
    artifacts = run_qq_figure(MCConfig(seed=10, reps=1, n=400, p_list=(8,)), tmp_path)
    assert all(math.isnan(a.correlation) for a in artifacts)


def test_qq_with_an_alternative_makes_no_directory(tmp_path):
    cfg = MCConfig(seed=0, reps=2, n=400, p_list=(8,), alternative=Alternative(s=0.5))
    with pytest.raises(ConfigError, match="^Q-Q figure takes no alternative$"):
        run_qq_figure(cfg, tmp_path / "qqx")
    assert not (tmp_path / "qqx").exists()


def test_esd_with_an_alternative_makes_no_directory(tmp_path):
    # The figure is drawn under the null; an alternative would be ignored.
    cfg = MCConfig(seed=2, n=400, k_n=20, p_list=(8,), alternative=Alternative(s=0.5))
    with pytest.raises(ConfigError, match="^ESD figure takes no alternative$"):
        run_esd_figure(cfg, tmp_path / "esdx")
    assert not (tmp_path / "esdx").exists()


def test_size_table_csv():
    summaries = [
        run_size_experiment(
            MCConfig(seed=11, reps=10, n=400, p_list=(8,), model=VolModel.deterministic_sin(0.0009, r1))
        )
        for r1 in (0.0, 0.0004)
    ]
    buf = io.StringIO()
    write_size_table(summaries, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["test", "level", "r1", "pbar", "rejection_pct"]
    assert len(rows) == 1 + 2 * 3 * 3  # two sweeps x three tests x three levels
    for row in rows[1:]:
        kind, level, r1, pbar, pct = row
        assert kind in ("bjyz", "lw", "j")
        assert float(pbar) == 8 / 20
        expected = 100.0 * summaries[0 if float(r1) == 0.0 else 1].rejection_rate(
            TestKind(kind), float(level), 8
        )
        assert float(pct) == expected
    # an r2 sweep names its amplitude column r2 and fills it with model.r2
    r2_summaries = [
        run_size_experiment(
            MCConfig(seed=11, reps=10, n=400, p_list=(8,), model=VolModel.stochastic_bm(0.0009, r2))
        )
        for r2 in (0.01, 0.05)
    ]
    buf = io.StringIO()
    write_size_table(r2_summaries, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["test", "level", "r2", "pbar", "rejection_pct"]
    assert len(rows) == 1 + 2 * 3 * 3
    assert [row[2] for row in rows[1:]] == ["0.01"] * 9 + ["0.05"] * 9
    for i, row in enumerate(rows[1:]):
        expected = r2_summaries[i // 9].rejection_rate(TestKind(row[0]), float(row[1]), 8)
        assert float(row[4]) == 100.0 * expected
    with pytest.raises(ConfigError, match="cannot mix stochastic_bm"):
        write_size_table(summaries[:1] + r2_summaries[:1], io.StringIO())


def test_size_table_rejects_summaries_with_an_alternative():
    # A size table has no s column: power summaries at s = 0.45 and 0.6 would
    # write two rows per (test, level, r1, pbar) key.
    summaries = [
        run_power_experiment(
            MCConfig(seed=0, reps=2, n=400, p_list=(8,), levels=(0.1,), alternative=Alternative(s=s))
        )
        for s in (0.45, 0.6)
    ]
    with pytest.raises(ConfigError, match="^size table rows cannot take summaries with an alternative$"):
        write_size_table(summaries, io.StringIO())


def test_power_table_csv():
    summary = run_power_experiment(
        MCConfig(seed=12, reps=10, n=400, p_list=(8,), alternative=Alternative(s=0.5))
    )
    buf = io.StringIO()
    write_power_table([summary], buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["test", "level", "r1", "pbar", "s", "rejection_pct"]
    assert all(float(row[4]) == 0.5 for row in rows[1:])
    with pytest.raises(ConfigError, match="alternative"):
        buf2 = io.StringIO()
        write_power_table(
            [run_size_experiment(MCConfig(seed=12, reps=2, n=400, p_list=(8,)))], buf2
        )


# The Q-Q files of run_qq_figure at n = 400, k_n = 20, p in {8, 30} and 20
# replications, under a seasonal and a stochastic volatility null.  The
# harness and simulate_window_increments share one window draw, so these pin
# the draws bit for bit where the equality of the two routes cannot.
_QQ_MODELS = {
    "sin": VolModel.deterministic_sin(0.0009, 0.0004),
    "bm": VolModel.stochastic_bm(0.0009, 0.02),
}
_QQ_DESIGNS = [(seed, model) for seed in (0, 8) for model in sorted(_QQ_MODELS)]


@pytest.mark.parametrize("seed, model", _QQ_DESIGNS)
def test_qq_figure_writes_pinned_bytes(tmp_path, pinned, seed, model):
    cfg = MCConfig(seed=seed, reps=20, n=400, p_list=(8, 30), model=_QQ_MODELS[model])
    artifacts = run_qq_figure(cfg, tmp_path)
    assert len(artifacts) == 5  # bjyz at p = 8, lw and j at both
    for artifact in artifacts:
        pinned(f"qq seed {seed} {model}: {artifact.path.name}", artifact.path.read_bytes())


@pytest.mark.parametrize("seed, model", _QQ_DESIGNS)
def test_qq_figure_zscores_match_explicit_distances_to_identity(tmp_path, seed, model):
    # The designs of the byte pins above, rebuilt replication by replication
    # through the public draw: lw and j from A - I and B - I formed
    # explicitly, where the kernel reads tr(A) and ||A||_F**2 alone, and bjyz
    # (p < k_n only) from sum(lam - log(lam) - 1) over the eigenvalues of A,
    # where the kernel reads a Cholesky factor.
    cfg = MCConfig(seed=seed, reps=20, n=400, p_list=(8, 30), model=_QQ_MODELS[model])
    figure = {(a.kind, a.p): a.empirical for a in run_qq_figure(cfg, tmp_path)}
    assert (TestKind.BJYZ, 8) in figure and (TestKind.BJYZ, 30) not in figure
    for p in cfg.p_list:
        z_n, expected = p / cfg.k_n, {TestKind.LW: [], TestKind.J: []}
        if z_n < 1.0:
            expected[TestKind.BJYZ], constants = [], mp_lss_constants(z_n)
        for rep in range(cfg.reps):
            a = _public_estimate(seed, cfg.n, cfg.t, cfg.k_n, p, cfg.model, cfg.model.base, rep).matrix
            trace, a_minus_i = np.trace(a), a - np.eye(p)
            b_minus_i = a / (trace / p) - np.eye(p)
            raw_lw = np.sum(a_minus_i**2) / p - z_n * (trace / p) ** 2 + z_n
            for kind, raw in ((TestKind.LW, raw_lw), (TestKind.J, np.sum(b_minus_i**2) / p)):
                expected[kind].append((cfg.k_n * raw - p - 1.0) / 2.0)
            if z_n < 1.0:
                lam = np.linalg.eigvalsh(a)
                centered = np.sum(lam - np.log(lam) - 1.0) - p * constants.center - constants.mean_shift
                expected[TestKind.BJYZ].append(centered / math.sqrt(constants.variance))
        for kind, z in expected.items():
            z = np.sort(z)
            assert np.all(np.abs(figure[(kind, p)] - z) <= 1e-10 * np.maximum(1.0, np.abs(z)))


def test_power_table_writes_pinned_bytes(tmp_path, pinned):
    # default design, 20 replications; s = 0.8 keeps the rates off 0 and 100
    cfg = MCConfig(
        seed=0,
        reps=20,
        model=VolModel.deterministic_sin(0.0009, 0.0004),
        alternative=Alternative(s=0.8),
    )
    out = tmp_path / "power_table.csv"
    write_power_table([run_power_experiment(cfg)], out)
    pinned("mc-power seed 0 reps 20 s 0.8: power_table.csv", out.read_bytes())
