"""Eigenvalue extraction, empirical spectral distribution, Kolmogorov distance."""

import math

import numpy as np
import pytest

from spotspectra import (
    ConfigError,
    MCConfig,
    MPLaw,
    NumericalError,
    SpectralSample,
    eigenvalues_sym,
    esd_eval,
    kolmogorov_distance,
    mp_cdf,
    run_esd_figure,
)
from spotspectra import harness


def _random_psd(rng, dim):
    g = rng.standard_normal((dim, dim + 2))
    return g @ g.T / (dim + 2)


def test_two_by_two_closed_form():
    # [[a, b], [b, c]] has eigenvalues ((a+c) +/- sqrt((a-c)^2 + 4 b^2)) / 2
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, c = rng.uniform(0.5, 3.0, size=2)
        b = rng.uniform(-0.5, 0.5)
        m = np.array([[a, b], [b, c]])
        disc = math.sqrt((a - c) ** 2 + 4.0 * b * b)
        hi, lo = (a + c + disc) / 2.0, (a + c - disc) / 2.0
        if lo <= 0:
            continue
        sample = eigenvalues_sym(m)
        np.testing.assert_allclose(sample.eigenvalues, [hi, lo], rtol=1e-12)


def test_trace_and_determinant_invariants():
    rng = np.random.default_rng(1)
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        m = _random_psd(rng, dim)
        lam = eigenvalues_sym(m).eigenvalues
        assert abs(math.fsum(lam) - np.trace(m)) <= 1e-10 * abs(np.trace(m))
        det = np.linalg.det(m)
        if det > 1e-12:
            assert abs(float(np.prod(lam)) - det) <= 1e-10 * det


def test_descending_order_and_dim():
    m = np.diag([2.0, 5.0, 1.0])
    sample = eigenvalues_sym(m)
    np.testing.assert_array_equal(sample.eigenvalues, [5.0, 2.0, 1.0])


def test_rank_deficient_zeros_are_exact():
    # p > k outer products have p - k eigenvalues that are mathematically
    # zero; they must come out as exact zeros, not eps-size dust
    rng = np.random.default_rng(2)
    g = rng.standard_normal((12, 5))
    sample = eigenvalues_sym(g @ g.T / 5)
    assert int(np.sum(sample.eigenvalues == 0.0)) == 7
    assert np.all(sample.eigenvalues >= 0.0)


def test_negative_eigenvalue_rejected():
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    m = q @ np.diag([1.0, 0.5, -1e-6]) @ q.T
    m = 0.5 * (m + m.T)
    with pytest.raises(NumericalError, match="not positive semidefinite"):
        eigenvalues_sym(m)
    # a within-band negative is numerical zero, not an error
    m2 = q @ np.diag([1.0, 0.5, -1e-12]) @ q.T
    sample = eigenvalues_sym(0.5 * (m2 + m2.T))
    assert sample.eigenvalues[-1] == 0.0


def test_input_validation():
    with pytest.raises(ConfigError, match="square"):
        eigenvalues_sym(np.zeros((2, 3)))
    with pytest.raises(ConfigError, match="asymmetric"):
        eigenvalues_sym(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ConfigError, match="non-finite"):
        eigenvalues_sym(np.array([[np.nan]]))
    # round-off asymmetry passes through the symmetrizer
    m = _random_psd(np.random.default_rng(4), 3)
    m[0, 1] += 1e-12
    eigenvalues_sym(m)


def test_spectral_sample_validation():
    SpectralSample(eigenvalues=np.array([2.0, 1.0]))
    with pytest.raises(ConfigError, match="descending"):
        SpectralSample(eigenvalues=np.array([1.0, 2.0]))
    with pytest.raises(ConfigError, match="non-finite"):
        SpectralSample(eigenvalues=np.array([np.inf, 1.0]))
    with pytest.raises(ConfigError, match=r"nonempty 1-D array, got shape \(2, 2\)"):
        SpectralSample(eigenvalues=np.eye(2))


def test_esd_eval_step_function():
    sample = SpectralSample(eigenvalues=np.array([3.0, 2.0, 1.0]))
    assert esd_eval(sample, 0.5) == 0.0
    assert esd_eval(sample, 1.0) == pytest.approx(1 / 3)
    assert esd_eval(sample, float(np.nextafter(1.0, 0.0))) == 0.0
    assert esd_eval(sample, 2.5) == pytest.approx(2 / 3)
    assert esd_eval(sample, 3.0) == 1.0
    assert esd_eval(sample, 100.0) == 1.0


def test_esd_counts_multiplicities():
    sample = SpectralSample(eigenvalues=np.array([2.0, 2.0, 1.0, 0.0]))
    assert esd_eval(sample, 0.0) == 0.25
    assert esd_eval(sample, 1.5) == 0.5
    assert esd_eval(sample, 2.0) == 1.0


def test_esd_eval_on_an_array_equals_the_scalar_loop():
    rng = np.random.default_rng(3)
    sample = SpectralSample(eigenvalues=np.array([2.0, 2.0, 1.5, 0.25, 0.0]))
    lam = sample.eigenvalues
    xs = np.concatenate(
        [rng.uniform(-0.5, 2.5, 40), lam, np.nextafter(lam, -np.inf), np.nextafter(lam, np.inf)]
    )
    values = esd_eval(sample, xs)
    assert isinstance(values, np.ndarray) and values.shape == xs.shape
    assert values.tolist() == [esd_eval(sample, x) for x in xs.tolist()]
    assert type(esd_eval(sample, 1.5)) is float
    assert type(esd_eval(sample, np.float64(1.5))) is float


def test_ks_against_point_mass():
    # spectrum (1, 2, 3) vs a point mass at 2: sup distance is 1/3
    sample = SpectralSample(eigenvalues=np.array([3.0, 2.0, 1.0]))
    # kolmogorov_distance calls the cdf on arrays
    delta2 = lambda x: np.where(x >= 2.0, 1.0, 0.0)
    assert kolmogorov_distance(sample, delta2) == pytest.approx(1 / 3)
    # degenerate spectrum on its own point mass: distance 0
    ones = SpectralSample(eigenvalues=np.ones(3))
    delta1 = lambda x: np.where(x >= 1.0, 1.0, 0.0)
    assert kolmogorov_distance(ones, delta1) == 0.0


def test_ks_single_eigenvalue_at_median():
    # one eigenvalue placed at the reference median: ESD jumps 0 -> 1 there,
    # the reference sits at 1/2, so the distance is exactly 1/2 on each side
    median_cdf = lambda x: np.clip(0.5 + 0.25 * (x - 1.0), 0.0, 1.0)
    sample = SpectralSample(eigenvalues=np.array([1.0]))
    assert kolmogorov_distance(sample, median_cdf) == pytest.approx(0.5)


def test_ks_brute_force_oracle():
    rng = np.random.default_rng(5)

    law = MPLaw(y=0.5)
    g = rng.standard_normal((20, 40))
    sample = eigenvalues_sym(g @ g.T / 40)
    scan = kolmogorov_distance(sample, lambda x: mp_cdf(x, law))
    # dense-grid brute force with explicit left limits at the jumps
    xs = np.concatenate(
        [
            np.linspace(-0.5, law.b + 1.0, 4001),
            sample.eigenvalues,
            np.nextafter(sample.eigenvalues, -np.inf),
        ]
    )
    brute = max(abs(esd_eval(sample, float(x)) - mp_cdf(float(x), law)) for x in xs)
    assert scan >= brute - 1e-12
    assert scan == pytest.approx(brute, abs=1e-12)


def test_esd_csv(tmp_path, monkeypatch):
    # The ESD rows on file are those `run_esd_figure` writes: every eigenvalue
    # is an x, and each row holds the ESD and the MP cdf at its x.
    samples = []
    real = harness.eigenvalues_sym
    monkeypatch.setattr(
        harness, "eigenvalues_sym", lambda m: samples.append(real(m)) or samples[-1]
    )
    cfg = MCConfig(seed=6, n=400, p_list=(8,))
    (artifact,) = run_esd_figure(cfg, tmp_path)
    assert artifact.path == tmp_path / "esd_p8.csv"
    lines = artifact.path.read_bytes().decode().split("\r\n")
    assert lines[0] == "x,esd,mp_cdf" and lines[-1] == ""
    rows = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
    (sample,) = samples
    law = MPLaw(y=8 / cfg.k_n)
    xs = [row[0] for row in rows]
    assert set(sample.eigenvalues.tolist()) <= set(xs)
    assert [row[1] for row in rows] == [esd_eval(sample, x) for x in xs]
    assert [row[2] for row in rows] == [mp_cdf(x, law) for x in xs]
    assert rows[-1][1] == 1.0
