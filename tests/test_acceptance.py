"""Acceptance suite for the paper's designs.

Each test exercises one headline requirement end to end at its stated
tolerance and prints a single ``ACCEPTANCE <name>: PASS|FAIL`` line, so a
plain ``pytest -v`` run doubles as the acceptance report.  The fixtures run
each ``paper/`` file's command through ``cli.main`` and keep what it computed;
every check reads its seed and design from those runs, bit for bit.
"""

import math
import os
import re
import time
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from scipy import integrate, special

from spotspectra import (
    DiscreteH,
    GridConfig,
    SpotEstimate,
    TestKind,
    VolModel,
    eigenvalues_sym,
    evaluate_tests,
    increments,
    mp_lss_constants,
    rescale,
    run_size_experiment,
    simulate_path,
    solve_silverstein,
    spot_vol,
)
from spotspectra import cli, harness

_PAPER = Path(__file__).resolve().parents[1] / "paper"
_RAN = set()  # the paper/ files that the fixtures below have run

# Reference Monte Carlo size values (%) for paper/table1.cfg (1000
# replications), keyed [level][(test, pbar)][r1].
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
# with split 0.75 and r1=0 at pbar = 0.5, as (reference, band) pairs.
_POWER_075_REFS = {TestKind.BJYZ: (94.0, 3.0), TestKind.LW: (79.6, 4.0)}


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  ({detail})", flush=True)


def _run_paper(tmp_path_factory, name, runner):
    """Run the command of ``paper/<name>.cfg``'s first line into a fresh ``--out-dir``;
    return what its call of ``cli.<runner>`` returned, and the directory."""
    path = _PAPER / f"{name}.cfg"
    _, _, command, *options = path.read_text().split("\n", 1)[0].split()
    assert options[:2] == ["--config", f"paper/{path.name}"], options
    out, got, real = tmp_path_factory.mktemp(name), [], getattr(cli, runner)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, runner, lambda *args: got.append(real(*args)) or got[0])
        assert cli.main([command, "--config", str(path), "--out-dir", str(out)]) == 0
    _RAN.add(path.name)
    return got[0], out


@pytest.fixture(scope="module")
def size_runs(tmp_path_factory):
    start = time.perf_counter()
    summaries, out = _run_paper(tmp_path_factory, "table1", "_run_experiments")
    return {s.config.model.r1: s for s in summaries}, time.perf_counter() - start, out


@pytest.fixture(scope="module")
def power_runs(tmp_path_factory):
    # Table 2: each s, and each r1 within it
    return _run_paper(tmp_path_factory, "table2", "_run_experiments")


@pytest.fixture(scope="module")
def esd_runs(tmp_path_factory):
    names = ("esd_det", "esd_sto")
    return {name: _run_paper(tmp_path_factory, name, "run_esd_figure")[0] for name in names}


@pytest.fixture(scope="module")
def qq_runs(tmp_path_factory):
    return _run_paper(tmp_path_factory, "qq", "run_qq_figure")[0]


def test_acceptance_table1_size(size_runs, capsys):
    summaries, elapsed, _ = size_runs
    failures = []
    slack = math.inf
    for level, series in _SIZE_REFS.items():
        band = 1.5 if level == 0.01 else 2.5
        for (kind, pbar), by_r1 in series.items():
            for r1, ref in by_r1.items():
                p = round(pbar * summaries[r1].config.k_n)
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
    summaries, _ = power_runs
    spread = summaries[: len(summaries) // 2]  # the smaller s, at each r1
    concentrated = summaries[len(spread)]  # the larger s, at r1 = 0
    failures = []
    lowest = 100.0
    for summary in spread:
        for level in summary.config.levels:
            for kind, p in (key for key in summary.zscores if key[0] is not TestKind.J):
                rate = 100.0 * summary.rejection_rate(kind, level, p)
                lowest = min(lowest, rate)
                if rate < 99.5:
                    failures.append(
                        f"s={summary.config.alternative.s} {kind.value} p={p} "
                        f"r1={summary.config.model.r1} level={level}: {rate:.1f}%"
                    )
    observed = {}
    p = round(0.5 * concentrated.config.k_n)
    for kind, (ref, band) in _POWER_075_REFS.items():
        rate = 100.0 * concentrated.rejection_rate(kind, 0.05, p)
        observed[kind] = rate
        if abs(rate - ref) > band:
            failures.append(
                f"s={concentrated.config.alternative.s} {kind.value} 5% level: "
                f"{rate:.1f}% vs {ref}% +/-{band}pp"
            )
    _report(
        capsys,
        "table2_power",
        not failures,
        f"s={spread[0].config.alternative.s} min power {lowest:.1f}% >= 99.5%, "
        f"s={concentrated.config.alternative.s} 5% "
        f"bjyz {observed[TestKind.BJYZ]:.1f}% (94.0+/-3), "
        f"lw {observed[TestKind.LW]:.1f}% (79.6+/-4)",
    )
    assert not failures, failures


def test_acceptance_esd_figure(esd_runs, capsys):
    limits = {34: 0.08, 102: 0.06}
    distances = {
        (name.removeprefix("esd_"), artifact.p): artifact.ks_distance
        for name, artifacts in esd_runs.items()
        for artifact in artifacts
    }
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


def test_acceptance_qq_normality(qq_runs, size_runs, capsys):
    # The Q-Q figure is Table 1's null run: each series holds its z-scores, sorted.
    null_summary = size_runs[0][0.0]
    assert {(a.kind, a.p) for a in qq_runs} == set(null_summary.zscores)
    failures = []
    min_corr, worst_mean, variances = 1.0, 0.0, []
    for artifact in qq_runs:
        kind, p, z, corr = artifact.kind, artifact.p, artifact.empirical, artifact.correlation
        if not np.array_equal(z, np.sort(null_summary.zscores[(kind, p)])):
            failures.append(f"{kind.value} p={p}: not Table 1's sorted r1 = 0 z-scores")
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
        f"{len(qq_runs)} series: min corr {min_corr:.5f} >= 0.995, worst |mean| {worst_mean:.3f} "
        f"<= 0.12, variance in [{min(variances):.3f}, {max(variances):.3f}]",
    )
    assert not failures, failures


def _lw_mean_exact(v, cfg):
    # Exact mean of lw's z-score for a Gaussian window with independent
    # entries of variance v[j, i] (coordinate j, cell i), from second and
    # fourth moments: A = c W W^T with c = (n / k_n) / base.
    p, k_n = v.shape[0], cfg.k_n
    c = (cfg.n / k_n) / cfg.model.base
    s = c * v.sum(axis=1)  # E A_jj
    q = c**2 * np.sum(v**2, axis=1)  # Var A_jj = 2 q_j
    off = c**2 * np.sum(v.sum(axis=0) ** 2) - q.sum()  # sum over j != l of E A_jl**2
    frob = np.sum(s**2 + 2.0 * q - 2.0 * s + 1.0) + off  # E ||A - I||_F**2
    trace_sq = s.sum() ** 2 + 2.0 * q.sum()  # E (tr A)**2
    z_n = p / k_n
    raw = frob / p - z_n * trace_sq / p**2 + z_n
    return (k_n * raw - p - 1.0) / 2.0


def test_lw_mean_matches_closed_form(size_runs, power_runs):
    # Every Table 1 cell and every Table 2 cell of the larger s: the Monte Carlo
    # mean of lw's z-score lies within 4 standard errors of its exact value.
    # At t = 0 the window is cells 1 .. k_n, each with its exact integral of
    # d_j + r1 * sin(2 * pi * t); under the null the mean is -1 / k_n.
    power = power_runs[0]
    summaries = list(size_runs[0].values()) + power[len(power) // 2:]
    failures = []
    for summary in summaries:
        cfg = summary.config
        model, alt, n = cfg.model, cfg.alternative, cfg.n
        i = np.arange(1, cfg.k_n + 1)
        sin_part = (np.cos(2.0 * np.pi * (i - 1) / n) - np.cos(2.0 * np.pi * i / n)) / (2.0 * np.pi)
        for p in cfg.p_list:
            d = np.full(p, model.base)
            if alt is not None:
                d[math.floor(alt.s * p):] = alt.low
            exact = _lw_mean_exact(d[:, None] / n + model.r1 * sin_part[None, :], cfg)
            z = summary.zscores[(TestKind.LW, p)]
            se = np.std(z, ddof=1) / math.sqrt(len(z))
            if abs(np.mean(z) - exact) > 4.0 * se:
                failures.append(
                    f"r1={model.r1} s={alt and alt.s} p={p}: mean {np.mean(z):+.4f}, "
                    f"exact {exact:+.4f}, se {se:.4f}"
                )
    assert not failures, failures


def _bjyz_moments_exact(p, k_n):
    # Exact mean and variance of bjyz's z for A = G G^T / k_n, G a p x k_n
    # standard normal matrix: the normalized estimate at r1 = 0.  Bartlett's
    # decomposition G G^T = T T^T has T lower triangular with independent
    # entries, T_jj**2 ~ chi2(nu_j), nu_j = k_n - j + 1, and N(0, 1) below the
    # diagonal, so tr A - log det A - p is a sum of independent terms:
    # T_jj**2 / k_n - log(T_jj**2 / k_n) - 1 per j and T_ij**2 / k_n per i > j.
    # E log chi2(nu) = psi(nu / 2) + log 2, Var log chi2(nu) = psi'(nu / 2) and
    # Cov(chi2(nu), log chi2(nu)) = 2.
    nu = k_n - np.arange(p)
    off = p * (p - 1) / 2
    mean = np.sum(nu / k_n - special.digamma(nu / 2) - math.log(2 / k_n) - 1) + off / k_n
    var = np.sum(2 * nu / k_n**2 + special.polygamma(1, nu / 2) - 4 / k_n) + 2 * off / k_n**2
    c = mp_lss_constants(p / k_n)
    return (mean - p * c.center - c.mean_shift) / math.sqrt(c.variance), var / c.variance


def test_bjyz_moments_match_bartlett_at_r1_0(size_runs):
    # The Monte Carlo mean and variance of bjyz's z lie within 4 standard
    # errors of their exact values, (-0.0014, 1.1050), (-0.0021, 1.0378) and
    # (-0.0066, 1.0426) at p = 10, 34 and 60, in Table 1's null design.
    cfg = replace(size_runs[0][0.0].config, p_list=(10, 34, 60))
    summary = run_size_experiment(cfg)
    failures = []
    for p in cfg.p_list:
        z = summary.zscores[(TestKind.BJYZ, p)]
        root_r = math.sqrt(len(z))
        observed = {  # estimate and its standard error
            "mean": (np.mean(z), np.std(z, ddof=1) / root_r),
            "variance": (np.var(z, ddof=1), np.std((z - np.mean(z)) ** 2, ddof=1) / root_r),
        }
        for (name, (got, se)), exact in zip(observed.items(), _bjyz_moments_exact(p, cfg.k_n)):
            if abs(got - exact) > 4.0 * se:
                failures.append(f"p={p}: {name} {got:.4f}, exact {exact:.4f}, se {se:.4f}")
    assert not failures, failures


def _bjyz_log_cf(tau, sigma, k_n):
    # log E exp(i tau S) of bjyz's raw statistic S = tr A - log det A - p for
    # A = D^(1/2) G G^T D^(1/2) / k_n, D = diag(sigma): the window at r1 = 0
    # divided by the null level.  By Bartlett's decomposition (as in
    # _bjyz_moments_exact), row j (from 0) adds c Y - log(c Y) - 1 with
    # Y ~ chi2(2 a), a = (k_n - j) / 2, and j terms c chi2(1), where
    # c = sigma_j / k_n; each factor of the characteristic function is a
    # Gamma-function ratio or a power.
    tau = np.asarray(tau)[..., None]
    j = np.arange(len(sigma))
    a, c, it = (k_n - j) / 2, np.asarray(sigma) / k_n, 1j * tau
    terms = (special.loggamma(a - it) - special.loggamma(a) - it * (np.log(2 * c) + 1)
             - (a - it + j / 2) * np.log(1 - 2 * it * c))
    return terms.sum(axis=-1)


def _bjyz_rate_exact(sigma, level, k_n):
    # P(|z| > Phi^-1(1 - level / 2)) from the cdf of S, inverted by Gil-Pelaez:
    # F(x) = 1/2 - (1/pi) int_0^inf Im(exp(-i tau x) phi(tau)) / tau dtau.
    p = len(sigma)
    c = mp_lss_constants(p / k_n)
    center = p * c.center + c.mean_shift
    half = NormalDist().inv_cdf(1 - level / 2) * math.sqrt(c.variance)

    def cdf(x):
        value, err = integrate.quad(
            lambda tau: np.exp(_bjyz_log_cf(tau, sigma, k_n) - 1j * tau * x).imag / tau,
            0.0, math.inf, epsabs=1e-11, limit=400,
        )
        assert err < 1e-6
        return 0.5 - value / math.pi

    return cdf(center - half) + 1.0 - cdf(center + half)


def test_bjyz_characteristic_function_gives_the_exact_moments(size_runs):
    # The mean and variance of z from the characteristic function's first two
    # derivatives at 0, read off as Taylor coefficients of log phi by Cauchy's
    # formula on the circle |tau| = 1 (the nearest singularity, a pole of
    # loggamma, lies at |tau| >= (k_n - p + 1) / 2 > 4), equal the digamma
    # and trigamma sums of _bjyz_moments_exact, at Table 1's k_n.
    k_n = size_runs[0][0.0].config.k_n
    m = 32
    tau = np.exp(2j * np.pi * np.arange(m) / m)
    for p in (10, 34, 60):
        # log phi(tau) = sum_k coef_k tau**k, coef_1 = i mean and coef_2 = -variance / 2
        coef = np.fft.fft(_bjyz_log_cf(tau, np.ones(p), k_n)) / m
        c = mp_lss_constants(p / k_n)
        mean = (coef[1].imag - p * c.center - c.mean_shift) / math.sqrt(c.variance)
        variance = -2.0 * coef[2].real / c.variance
        np.testing.assert_allclose((mean, variance), _bjyz_moments_exact(p, k_n), rtol=0, atol=1e-8)


def test_bjyz_rates_match_exact_at_r1_0(size_runs, power_runs):
    # Every bjyz rate of the Table 1 and Table 2 runs at r1 = 0 (both s, at the
    # one p < k_n) lies within 4 sqrt(e (1 - e) / R) + 1 / R of the exact rate
    # e.  The variances are divided by the null level, so the null is the
    # identity and the alternative's second block sits at low / base.
    power = power_runs[0]
    failures = []
    for summary in (size_runs[0][0.0], power[0], power[len(power) // 2]):
        cfg = summary.config
        alt, reps, p = cfg.alternative, cfg.reps, cfg.p_list[0]
        sigma = np.ones(p)
        if alt is not None:
            sigma[math.floor(alt.s * p):] = alt.low / cfg.model.base
        for level in cfg.levels:
            exact = _bjyz_rate_exact(sigma, level, cfg.k_n)
            rate = summary.rejection_rate(TestKind.BJYZ, level, p)
            bound = 4.0 * math.sqrt(exact * (1.0 - exact) / reps) + 1.0 / reps
            if abs(rate - exact) > bound:
                failures.append(f"s={alt and alt.s} level={level}: {rate:.4f}, exact "
                                f"{exact:.4f}, bound {bound:.4f}")
    assert not failures, failures


def test_table1_size_table_writes_pinned_bytes(size_runs, pinned):
    pinned("table 1 seed 8: size_table.csv", (size_runs[2] / "size_table.csv").read_bytes())


def test_table2_power_table_writes_pinned_bytes(power_runs, pinned):
    pinned("table 2 seed 8: power_table.csv", (power_runs[1] / "power_table.csv").read_bytes())


def test_readme_and_the_fixtures_run_every_paper_design(size_runs, power_runs, esd_runs, qq_runs):
    # README shows each paper/ file's first line, the command that runs it, as
    # it is; every paper/ file it names exists; and a fixture above runs each.
    readme = (_PAPER.parent / "README.md").read_text()
    files = sorted(path.name for path in _PAPER.iterdir())
    missing = [name for name in files
               if (_PAPER / name).read_text().splitlines()[0].removeprefix("# ") not in readme]
    assert not missing, f"README lacks the first-line command of {missing}"
    assert set(re.findall(r"--config paper/(\S+)", readme)) <= set(files)
    assert _RAN == set(files)


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


def test_acceptance_oracle_equivalence(size_runs, capsys, closed_form_m):
    null = size_runs[0][0.0].config  # for its seed and null level
    rng = np.random.default_rng(null.seed)
    unit = DiscreteH.point_mass(1.0)
    solver_err = 0.0
    for _ in range(50):
        z = complex(rng.uniform(-2.0, 6.0), rng.uniform(0.05, 3.0))
        y = float(rng.uniform(0.15, 1.8))
        point = solve_silverstein(z, y, unit)
        solver_err = max(solver_err, abs(point.m - closed_form_m(z, y)))

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
    path = simulate_path(GridConfig(n=n, p=p, seed=null.seed),
                         VolModel.stochastic_bm(null.model.base, 0.01))
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


def test_acceptance_invariance_suite(size_runs, capsys, monkeypatch, no_child_floor):
    null = size_runs[0][0.0].config
    p, k_n = null.p_list[0], null.k_n
    path = simulate_path(GridConfig(n=null.n, p=p, seed=null.seed), null.model)
    incr = increments(path)
    est = spot_vol(incr, null.t, k_n)
    null_est = rescale(est, 1.0 / null.model.base)

    def j_zscore(e):
        return evaluate_tests(e, [TestKind.J])[0].zscore

    def bjyz_raw(e):
        return evaluate_tests(e, [TestKind.BJYZ])[0].raw

    z_ref = j_zscore(est)
    dyadic_ok = all(j_zscore(rescale(est, factor)) == z_ref for factor in (0.25, 4.0, 1024.0))
    generic_dev = abs(j_zscore(rescale(est, 3.7)) - z_ref) / abs(z_ref)

    rng = np.random.default_rng(null.seed)
    identity = SpotEstimate(matrix=np.eye(p), t=0.0, k_n=k_n, window=(1, k_n))
    raws = [bjyz_raw(null_est)]
    for _ in range(50):
        g = rng.standard_normal((8, 20))
        sample = SpotEstimate(matrix=g @ g.T / 20, t=0.0, k_n=20, window=(1, 20))
        raws.append(bjyz_raw(sample))
    raw_ok = bjyz_raw(identity) == 0.0 and all(r > 0.0 for r in raws)

    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    rotated = spot_vol(q @ incr, null.t, k_n).matrix
    equiv_dev = float(np.max(np.abs(rotated - q @ est.matrix @ q.T)))

    # Four processes really run: three forked children take chunks of 10
    # replications of Table 1's largest r1, however few CPUs the host has.
    serial_cfg = replace(list(size_runs[0].values())[-1].config, reps=40, p_list=(p,))
    serial = run_size_experiment(serial_cfg)
    started = []
    real = harness.Process
    monkeypatch.setattr(harness, "Process", lambda **kw: started.append(kw) or real(**kw))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    parallel = run_size_experiment(replace(serial_cfg, workers=4))
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
