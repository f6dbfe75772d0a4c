"""Acceptance suite for the default experiment design.

Each test exercises one headline requirement end to end at its stated
tolerance and prints a single ``ACCEPTANCE <name>: PASS|FAIL`` line, so a
plain ``pytest -v`` run doubles as the acceptance report.  Every Monte Carlo
component is pinned to ``ACCEPT_SEED`` and is reproducible bit for bit.
"""

import cmath
import math
import os
import time
from statistics import NormalDist

import numpy as np
import pytest
from scipy import integrate

from spotspectra import (
    Alternative,
    DiscreteH,
    GridConfig,
    MCConfig,
    SpotEstimate,
    TestKind,
    VolModel,
    eigenvalues_sym,
    evaluate_tests,
    increments,
    mp_lss_constants,
    rescale,
    run_esd_figure,
    run_power_experiment,
    run_size_experiment,
    simulate_path,
    solve_silverstein,
    spot_vol,
)
from spotspectra import harness

ACCEPT_SEED = 8  # master seed for every Monte Carlo acceptance run

_N = 4680
_K_N = 68
_P_LIST = (34, 68, 102)
_BASE = 0.0009
_LEVELS = (0.10, 0.05, 0.01)
_P_OF_PBAR = {0.5: 34, 1.0: 68, 1.5: 102}

# Reference Monte Carlo size values (%) for the default experiment design
# (n=4680, k_n=68, 1000 replications), keyed [level][(test, pbar)][r1].
# Tolerance bands: +/-2.5pp at the 10% and 5% levels, +/-1.5pp at 1%
# (binomial standard error at 1000 replications is about 0.7-0.95pp).
_SIZE_REFS = {
    0.10: {
        (TestKind.BJYZ, 0.5): {0.0: 10.0, 0.0004: 10.3, 0.0008: 11.2},
        (TestKind.LW, 0.5): {0.0: 9.7, 0.0004: 11.6, 0.0008: 14.5},
        (TestKind.LW, 1.0): {0.0: 9.3, 0.0004: 11.1, 0.0008: 14.8},
        (TestKind.LW, 1.5): {0.0: 10.9, 0.0004: 11.6, 0.0008: 14.8},
    },
    0.05: {
        (TestKind.BJYZ, 0.5): {0.0: 5.5, 0.0004: 5.8, 0.0008: 5.8},
        (TestKind.LW, 0.5): {0.0: 5.1, 0.0004: 6.6, 0.0008: 8.7},
        (TestKind.LW, 1.0): {0.0: 5.4, 0.0004: 5.6, 0.0008: 9.0},
        (TestKind.LW, 1.5): {0.0: 4.8, 0.0004: 6.9, 0.0008: 8.2},
    },
    0.01: {
        (TestKind.BJYZ, 0.5): {0.0: 0.6, 0.0004: 1.6, 0.0008: 2.1},
        (TestKind.LW, 0.5): {0.0: 1.4, 0.0004: 1.6, 0.0008: 2.6},
        (TestKind.LW, 1.0): {0.0: 1.3, 0.0004: 1.3, 0.0008: 2.4},
        (TestKind.LW, 1.5): {0.0: 0.8, 0.0004: 1.5, 0.0008: 2.2},
    },
}

# Reference power values (%) at the 5% level for the two-block alternative
# with split 0.75 and r1=0, as (reference, band) pairs.
_POWER_075_REFS = {TestKind.BJYZ: (94.0, 3.0), TestKind.LW: (79.6, 4.0)}


def _config(model, reps=1000, p_list=_P_LIST, alternative=None, workers=1):
    return MCConfig(
        seed=ACCEPT_SEED,
        reps=reps,
        n=_N,
        k_n=_K_N,
        p_list=p_list,
        model=model,
        t=0.0,
        levels=_LEVELS,
        alternative=alternative,
        workers=workers,
    )


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  ({detail})", flush=True)


@pytest.fixture(scope="module")
def size_runs():
    start = time.perf_counter()
    summaries = {
        r1: run_size_experiment(_config(VolModel.deterministic_sin(_BASE, r1)))
        for r1 in (0.0, 0.0004, 0.0008)
    }
    return summaries, time.perf_counter() - start


@pytest.fixture(scope="module")
def power_runs():
    spread = {
        r1: run_power_experiment(
            _config(
                VolModel.deterministic_sin(_BASE, r1),
                alternative=Alternative(s=0.45, low=0.0004),
            )
        )
        for r1 in (0.0, 0.0002, 0.0004)
    }
    concentrated = run_power_experiment(
        _config(
            VolModel.deterministic_sin(_BASE, 0.0),
            p_list=(34,),
            alternative=Alternative(s=0.75, low=0.0004),
        )
    )
    return spread, concentrated


def test_acceptance_table1_size(size_runs, capsys):
    summaries, elapsed = size_runs
    failures = []
    slack = math.inf
    for level, series in _SIZE_REFS.items():
        band = 1.5 if level == 0.01 else 2.5
        for (kind, pbar), by_r1 in series.items():
            p = _P_OF_PBAR[pbar]
            for r1, ref in by_r1.items():
                rate = 100.0 * summaries[r1].rejection_rate(kind, level, p)
                slack = min(slack, band - abs(rate - ref))
                if abs(rate - ref) > band:
                    failures.append(
                        f"{kind.value} pbar={pbar} r1={r1} level={level}: "
                        f"{rate:.1f}% vs {ref}% +/-{band}pp"
                    )
    ok = not failures and elapsed <= 600.0
    _report(
        capsys,
        "table1_size",
        ok,
        f"36 cells, worst band slack {slack:+.2f}pp, runtime {elapsed:.0f}s <= 600s",
    )
    assert not failures, failures
    assert elapsed <= 600.0


def test_acceptance_table2_power(power_runs, capsys):
    spread, concentrated = power_runs
    failures = []
    lowest = 100.0
    for r1, summary in spread.items():
        for level in _LEVELS:
            for kind, p_values in ((TestKind.BJYZ, (34,)), (TestKind.LW, _P_LIST)):
                for p in p_values:
                    rate = 100.0 * summary.rejection_rate(kind, level, p)
                    lowest = min(lowest, rate)
                    if rate < 99.5:
                        failures.append(
                            f"s=0.45 {kind.value} p={p} r1={r1} level={level}: {rate:.1f}%"
                        )
    observed = {}
    for kind, (ref, band) in _POWER_075_REFS.items():
        rate = 100.0 * concentrated.rejection_rate(kind, 0.05, 34)
        observed[kind] = rate
        if abs(rate - ref) > band:
            failures.append(
                f"s=0.75 {kind.value} 5% level: {rate:.1f}% vs {ref}% +/-{band}pp"
            )
    _report(
        capsys,
        "table2_power",
        not failures,
        f"s=0.45 min power {lowest:.1f}% >= 99.5%, s=0.75 5% "
        f"bjyz {observed[TestKind.BJYZ]:.1f}% (94.0+/-3), "
        f"lw {observed[TestKind.LW]:.1f}% (79.6+/-4)",
    )
    assert not failures, failures


def test_acceptance_esd_figure(tmp_path, capsys):
    limits = {34: 0.08, 102: 0.06}
    distances = {}
    for label, model in (
        ("det", VolModel.deterministic_sin(_BASE, 0.0008)),
        ("sto", VolModel.stochastic_bm(_BASE, 0.02)),
    ):
        out = tmp_path / label
        out.mkdir()
        cfg = _config(model, reps=1, p_list=(34, 102))
        for artifact in run_esd_figure(cfg, out):
            distances[(label, artifact.p)] = artifact.ks_distance
    failures = [
        f"{label} p={p}: ks={ks:.4f} > {limits[p]}"
        for (label, p), ks in distances.items()
        if ks > limits[p]
    ]
    _report(
        capsys,
        "esd_figure",
        not failures,
        "ks " + ", ".join(
            f"{label} p{p}={ks:.4f}" for (label, p), ks in sorted(distances.items())
        ) + " vs limits 0.08 (p=34) / 0.06 (p=102)",
    )
    assert not failures, failures


def test_acceptance_qq_normality(size_runs, capsys):
    summaries, _ = size_runs
    null_summary = summaries[0.0]
    quantiles = NormalDist()
    reps = null_summary.config.reps
    theoretical = np.array(
        [quantiles.inv_cdf((i - 0.5) / reps) for i in range(1, reps + 1)]
    )
    series = [(TestKind.BJYZ, 34)] + [
        (kind, p) for kind in (TestKind.LW, TestKind.J) for p in _P_LIST
    ]
    failures = []
    min_corr, worst_mean, variances = 1.0, 0.0, []
    for kind, p in series:
        z = null_summary.zscores[(kind, p)]
        assert len(z) == 1000
        corr = float(np.corrcoef(np.sort(z), theoretical)[0, 1])
        mean = float(np.mean(z))
        var = float(np.var(z, ddof=1))
        min_corr = min(min_corr, corr)
        worst_mean = max(worst_mean, abs(mean))
        variances.append(var)
        if corr < 0.995:
            failures.append(f"{kind.value} p={p}: corr {corr:.5f} < 0.995")
        if abs(mean) > 0.12:
            failures.append(f"{kind.value} p={p}: mean {mean:+.3f} outside +/-0.12")
        if not 0.85 <= var <= 1.15:
            failures.append(f"{kind.value} p={p}: variance {var:.3f} outside [0.85, 1.15]")
    _report(
        capsys,
        "qq_normality",
        not failures,
        f"7 series: min corr {min_corr:.5f} >= 0.995, worst |mean| {worst_mean:.3f} "
        f"<= 0.12, variance in [{min(variances):.3f}, {max(variances):.3f}]",
    )
    assert not failures, failures


@pytest.fixture(scope="module")
def concentrated_power_runs():
    # the s = 0.75 alternative at every default p, r1 within low = 0.0004
    cfgs = [
        _config(VolModel.deterministic_sin(_BASE, r1), alternative=Alternative(s=0.75, low=0.0004))
        for r1 in (0.0, 0.0002, 0.0004)
    ]
    return harness._run_experiments(cfgs)


def _lw_mean_exact(v):
    # Exact mean of lw's z-score for a Gaussian window with independent
    # entries of variance v[j, i] (coordinate j, cell i), from second and
    # fourth moments: A = c W W^T with c = (n / k_n) / base.
    p = v.shape[0]
    c = (_N / _K_N) / _BASE
    s = c * v.sum(axis=1)  # E A_jj
    q = c**2 * np.sum(v**2, axis=1)  # Var A_jj = 2 q_j
    off = c**2 * np.sum(v.sum(axis=0) ** 2) - q.sum()  # sum over j != l of E A_jl**2
    frob = np.sum(s**2 + 2.0 * q - 2.0 * s + 1.0) + off  # E ||A - I||_F**2
    trace_sq = s.sum() ** 2 + 2.0 * q.sum()  # E (tr A)**2
    z_n = p / _K_N
    raw = frob / p - z_n * trace_sq / p**2 + z_n
    return (_K_N * raw - p - 1.0) / 2.0


def test_lw_mean_matches_closed_form(size_runs, concentrated_power_runs):
    # Every default size cell and every s = 0.75 power cell: the Monte Carlo
    # mean of lw's z-score lies within 4 standard errors of its exact value.
    # At t = 0 the window is cells 1 .. k_n, each with its exact integral of
    # d_j + r1 * sin(2 * pi * t); under the null the mean is -1 / k_n.
    i = np.arange(1, _K_N + 1)
    sin_part = (np.cos(2.0 * np.pi * (i - 1) / _N) - np.cos(2.0 * np.pi * i / _N)) / (2.0 * np.pi)
    summaries = list(size_runs[0].values()) + concentrated_power_runs
    failures = []
    for summary in summaries:
        model, alt = summary.config.model, summary.config.alternative
        for p in _P_LIST:
            d = np.full(p, _BASE)
            if alt is not None:
                d[math.floor(alt.s * p):] = alt.low
            exact = _lw_mean_exact(d[:, None] / _N + model.r1 * sin_part[None, :])
            z = summary.zscores[(TestKind.LW, p)]
            se = np.std(z, ddof=1) / math.sqrt(len(z))
            if abs(np.mean(z) - exact) > 4.0 * se:
                failures.append(
                    f"r1={model.r1} s={alt and alt.s} p={p}: mean {np.mean(z):+.4f}, "
                    f"exact {exact:+.4f}, se {se:.4f}"
                )
    assert not failures, failures


def _closed_form_stieltjes(z, y):
    # unit-scale quadratic y*z*m^2 - (1 - y - z)*m + 1 = 0, Herglotz root
    b = -(1.0 - y - z)
    disc = cmath.sqrt(b * b - 4.0 * y * z)
    for sign in (1.0, -1.0):
        m = (-b + sign * disc) / (2.0 * y * z)
        if m.imag > 0.0:
            return m
    raise AssertionError(f"no upper-half-plane root at z={z}, y={y}")


def _quadrature_center(y):
    # E[x - log(x) - 1] under the unit MP law, integrated with the
    # substitution x = a + (b-a) sin^2(theta) to kill the edge singularities
    a = (1.0 - math.sqrt(y)) ** 2
    b = (1.0 + math.sqrt(y)) ** 2
    w = b - a

    def integrand(theta):
        x = a + w * math.sin(theta) ** 2
        dens = math.sqrt(max((b - x) * (x - a), 0.0)) / (2.0 * math.pi * y * x)
        return (x - math.log(x) - 1.0) * dens * w * math.sin(2.0 * theta)

    value, err = integrate.quad(
        integrand, 0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-12, limit=200
    )
    assert err < 1e-10
    return value


def test_acceptance_oracle_equivalence(capsys):
    rng = np.random.default_rng(ACCEPT_SEED)
    unit = DiscreteH.point_mass(1.0)
    solver_err = 0.0
    for _ in range(50):
        z = complex(rng.uniform(-2.0, 6.0), rng.uniform(0.05, 3.0))
        y = float(rng.uniform(0.15, 1.8))
        point = solve_silverstein(z, y, unit)
        solver_err = max(solver_err, abs(point.m - _closed_form_stieltjes(z, y)))

    center_err = max(
        abs(mp_lss_constants(z_n).center - _quadrature_center(z_n))
        for z_n in (0.1, 0.3, 0.5, 0.9)
    )

    eig_err = 0.0
    det_checked = 0
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        g = rng.standard_normal((dim, dim + 2))
        m = g @ g.T / (dim + 2)
        lam = eigenvalues_sym(m).eigenvalues
        eig_err = max(eig_err, abs(math.fsum(lam) - np.trace(m)) / abs(np.trace(m)))
        det = float(np.linalg.det(m))
        if det > 1e-12:
            det_checked += 1
            eig_err = max(eig_err, abs(float(np.prod(lam)) - det) / det)

    n, k_n, p = 256, 32, 5
    path = simulate_path(GridConfig(n=n, p=p, seed=ACCEPT_SEED),
                         VolModel.stochastic_bm(_BASE, 0.01))
    incr = increments(path)
    total = np.zeros((p, p))
    for j in range(n // k_n):
        total += (k_n / n) * spot_vol(incr, j * k_n / n, k_n).matrix
    integrated = spot_vol(incr, 0.0, n).matrix  # the whole sample's window
    tiling_ok = np.allclose(total, integrated, rtol=1e-12, atol=0.0)

    ok = (
        solver_err <= 1e-8
        and center_err <= 1e-8
        and eig_err <= 1e-10
        and det_checked >= 90
        and tiling_ok
    )
    _report(
        capsys,
        "oracle_equivalence",
        ok,
        f"solver vs closed form {solver_err:.2e} <= 1e-8 (50 points), "
        f"lss center vs quadrature {center_err:.2e} <= 1e-8, "
        f"eig trace/det rel {eig_err:.2e} <= 1e-10 ({det_checked}/100 det), "
        f"tiling within 1e-12 relative: {tiling_ok}",
    )
    assert solver_err <= 1e-8
    assert center_err <= 1e-8
    assert eig_err <= 1e-10
    assert det_checked >= 90
    assert tiling_ok


def test_acceptance_invariance_suite(capsys, monkeypatch, no_child_floor):
    path = simulate_path(
        GridConfig(n=_N, p=34, seed=ACCEPT_SEED),
        VolModel.deterministic_sin(_BASE, 0.0),
    )
    incr = increments(path)
    est = spot_vol(incr, 0.0, _K_N)
    null_est = rescale(est, 1.0 / _BASE)

    def j_zscore(e):
        return evaluate_tests(e, [TestKind.J])[0].zscore

    def bjyz_raw(e):
        return evaluate_tests(e, [TestKind.BJYZ])[0].raw

    z_ref = j_zscore(est)
    dyadic_ok = all(j_zscore(rescale(est, factor)) == z_ref for factor in (0.25, 4.0, 1024.0))
    generic_dev = abs(j_zscore(rescale(est, 3.7)) - z_ref) / abs(z_ref)

    rng = np.random.default_rng(ACCEPT_SEED)
    identity = SpotEstimate(matrix=np.eye(34), t=0.0, k_n=_K_N, window=(1, _K_N))
    raws = [bjyz_raw(null_est)]
    for _ in range(50):
        g = rng.standard_normal((8, 20))
        sample = SpotEstimate(matrix=g @ g.T / 20, t=0.0, k_n=20, window=(1, 20))
        raws.append(bjyz_raw(sample))
    raw_ok = bjyz_raw(identity) == 0.0 and all(r > 0.0 for r in raws)

    q, _ = np.linalg.qr(rng.standard_normal((34, 34)))
    rotated = spot_vol(q @ incr, 0.0, _K_N).matrix
    equiv_dev = float(np.max(np.abs(rotated - q @ est.matrix @ q.T)))

    # Four processes really run: three forked children take chunks of 10
    # replications, however few CPUs the host has.
    worker_cfg = dict(model=VolModel.deterministic_sin(_BASE, 0.0008),
                      reps=40, p_list=(34,))
    serial = run_size_experiment(_config(**worker_cfg, workers=1))
    started = []
    real = harness.Process
    monkeypatch.setattr(harness, "Process", lambda **kw: started.append(kw) or real(**kw))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    parallel = run_size_experiment(_config(**worker_cfg, workers=4))
    workers_ok = len(started) == 3 and set(serial.zscores) == set(parallel.zscores) and all(
        np.array_equal(serial.zscores[key], parallel.zscores[key])
        for key in serial.zscores
    )

    ok = dyadic_ok and generic_dev <= 1e-12 and raw_ok and equiv_dev <= 1e-10 and workers_ok
    _report(
        capsys,
        "invariance_suite",
        ok,
        f"j scale invariance bit-exact (dyadic) and {generic_dev:.1e} rel (generic), "
        f"bjyz raw > 0 off identity and == 0 at identity: {raw_ok}, "
        f"orthogonal equivariance {equiv_dev:.1e} <= 1e-10, "
        f"1 vs 4 workers bit-identical: {workers_ok}",
    )
    assert dyadic_ok
    assert generic_dev <= 1e-12
    assert raw_ok
    assert equiv_dev <= 1e-10
    assert workers_ok
