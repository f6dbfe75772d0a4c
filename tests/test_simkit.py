"""Simulation kit: substream layout, variance profiles, path plumbing."""

import io
import math
import tracemalloc

import numpy as np
import pytest

from spotspectra import simkit
from spotspectra import (
    ConfigError,
    GridConfig,
    NumericalError,
    PricePath,
    VolKind,
    VolModel,
    increments,
    read_path_csv,
    simulate_path,
    simulate_window_increments,
    write_path_csv,
)


def test_grid_config_validation():
    GridConfig(n=10, p=3, seed=0)
    with pytest.raises(ConfigError, match="n must be"):
        GridConfig(n=0, p=3, seed=0)
    with pytest.raises(ConfigError, match="p must be"):
        GridConfig(n=10, p=0, seed=0)
    with pytest.raises(ConfigError, match="seed must be"):
        GridConfig(n=10, p=3, seed=-1)
    with pytest.raises(ConfigError, match="seed must be"):
        GridConfig(n=10, p=3, seed=2**64)
    with pytest.raises(ConfigError):
        GridConfig(n=10, p=2**20, seed=0)  # coordinate id must fit the substream layout


def test_vol_model_validation():
    with pytest.raises(ConfigError, match="finite and nonnegative"):
        VolModel.deterministic_sin(-0.1)
    with pytest.raises(ConfigError, match="can go negative"):
        VolModel.deterministic_sin(0.0009, r1=0.001)
    with pytest.raises(ConfigError, match="does not use r2"):
        VolModel(kind=VolKind.DETERMINISTIC_SIN, base=1.0, r2=0.1)
    with pytest.raises(ConfigError, match="does not use r1"):
        VolModel(kind=VolKind.STOCHASTIC_BM, base=1.0, r1=0.1)
    with pytest.raises(ConfigError, match="requires a nonempty diag"):
        VolModel(kind=VolKind.PIECEWISE_DIAG)
    with pytest.raises(ConfigError, match="does not take a diag"):
        VolModel(kind=VolKind.DETERMINISTIC_SIN, base=1.0, diag=(1.0,))
    with pytest.raises(ConfigError, match="piecewise_diag does not use base"):
        VolModel(kind=VolKind.PIECEWISE_DIAG, base=0.1, diag=(0.5, 0.2))
    with pytest.raises(ConfigError, match="diag entries must be finite and nonnegative"):
        VolModel.piecewise_diag((0.5, math.inf))
    with pytest.raises(ConfigError, match="piecewise_diag does not use r2"):
        VolModel(kind=VolKind.PIECEWISE_DIAG, r2=0.1, diag=(0.5, 0.2))
    with pytest.raises(ConfigError, match="can go negative"):
        VolModel.piecewise_diag((0.5, 0.2), r1=0.3)
    # boundary: the modulation may touch zero variance but not cross it
    VolModel.piecewise_diag((0.5, 0.2), r1=0.2)


def test_two_block_layout():
    model = VolModel.two_block(p=7, split=0.45, high=9.0, low=4.0)
    assert model.diag == (9.0, 9.0, 9.0, 4.0, 4.0, 4.0, 4.0)  # floor(0.45 * 7) = 3
    # 0.29 * 100 == 28.999999999999996, but the split is 29 entries
    assert VolModel.two_block(p=100, split=0.29, high=9.0, low=4.0).diag.count(9.0) == 29
    with pytest.raises(ConfigError, match="split"):
        VolModel.two_block(p=7, split=1.0, high=9.0, low=4.0)


def test_window_shape_and_overrun():
    grid = GridConfig(n=50, p=4, seed=3)
    model = VolModel.deterministic_sin(0.25)
    assert simulate_window_increments(grid, model, 0, 50).shape == (4, 50)
    assert simulate_window_increments(grid, model, 10, 40).shape == (4, 40)
    with pytest.raises(ConfigError, match="overruns the sample"):
        simulate_window_increments(grid, model, 10, 41)
    with pytest.raises(ConfigError, match="count must be"):
        simulate_window_increments(grid, model, 0, 0)
    with pytest.raises(ConfigError, match="start must be"):
        simulate_window_increments(grid, model, -1, 10)


def test_constant_variance_is_exact():
    # with r1 == 0 every cell variance is exactly base/n, so the increments
    # are exactly sqrt(base/n) times the raw normal draws
    grid = GridConfig(n=64, p=2, seed=5)
    incr = simulate_window_increments(grid, VolModel.deterministic_sin(0.36), 0, 64)
    unit = simulate_window_increments(grid, VolModel.deterministic_sin(64.0), 0, 64)
    np.testing.assert_array_equal(incr, unit * math.sqrt(0.36 / 64.0 / 1.0))


def test_sin_cell_integrals_telescope():
    # summing the per-cell integrals of r1*sin(2*pi*t) over all n cells
    # telescopes to r1/(2*pi) * (cos(0) - cos(2*pi)): zero up to one ulp
    grid = GridConfig(n=128, p=1, seed=0)
    base, r1 = 0.0009, 0.0008
    det = simulate_window_increments(grid, VolModel.deterministic_sin(base, r1), 0, 128)
    flat = simulate_window_increments(grid, VolModel.deterministic_sin(base), 0, 128)
    cell_var = (det / (flat / math.sqrt(base / 128.0))) ** 2
    total = math.fsum(cell_var.ravel()) - base
    assert abs(total) < 1e-16


def test_window_is_prefix_of_longer_window():
    # the first k columns of a start-0 window never depend on the window length
    for model in (
        VolModel.deterministic_sin(0.0009, 0.0008),
        VolModel.stochastic_bm(0.0009, 0.02),
        VolModel.piecewise_diag((0.4, 0.9, 1.6), r1=0.0),
        VolModel.piecewise_diag((0.4, 0.9, 1.6), r1=0.1),
    ):
        for seed in range(3):
            grid = GridConfig(n=200, p=3, seed=seed)
            full = simulate_window_increments(grid, model, 0, 200, replication=7)
            head = simulate_window_increments(grid, model, 0, 30, replication=7)
            np.testing.assert_array_equal(head, full[:, :30])


def test_replications_and_seeds_are_distinct():
    grid = GridConfig(n=40, p=2, seed=11)
    model = VolModel.deterministic_sin(1.0)
    a = simulate_window_increments(grid, model, 0, 40, replication=0)
    b = simulate_window_increments(grid, model, 0, 40, replication=1)
    c = simulate_window_increments(GridConfig(n=40, p=2, seed=12), model, 0, 40)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    np.testing.assert_array_equal(
        a, simulate_window_increments(grid, model, 0, 40, replication=0)
    )


def test_coordinate_substreams_stable_under_p_extension():
    # deterministic kinds: widening the cross-section appends coordinates
    # without disturbing the draws of the existing ones
    model = VolModel.deterministic_sin(0.0009, 0.0004)
    small = simulate_window_increments(GridConfig(n=60, p=3, seed=9), model, 0, 60)
    wide = simulate_window_increments(GridConfig(n=60, p=5, seed=9), model, 0, 60)
    np.testing.assert_array_equal(small, wide[:3])


def test_stochastic_r2_zero_matches_flat_deterministic():
    grid = GridConfig(n=100, p=4, seed=21)
    sto = simulate_window_increments(grid, VolModel.stochastic_bm(0.0009), 0, 100)
    det = simulate_window_increments(grid, VolModel.deterministic_sin(0.0009), 0, 100)
    np.testing.assert_array_equal(sto, det)


def test_stochastic_vol_varies_over_time():
    grid = GridConfig(n=100, p=1, seed=21)
    sto = simulate_window_increments(grid, VolModel.stochastic_bm(0.0009, 0.02), 0, 100)
    det = simulate_window_increments(grid, VolModel.deterministic_sin(0.0009), 0, 100)
    assert sto[0, 0] == det[0, 0]  # driver starts at W_0 = 0
    assert not np.array_equal(sto[0, 1:], det[0, 1:])


def _fresh_stream(seed, rep, coord):
    key = np.array([seed, (rep << 20) | coord], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def test_stochastic_bm_uses_left_endpoint_variance():
    # Euler in the volatility: cell i has variance
    # (sqrt(base) + r2 * W_{(i-1)/n})**2 / n, with the driver path W drawn
    # from coordinate p's substream and the noise from coordinate j's
    n, p, seed, rep, base, r2 = 50, 2, 4, 3, 0.0009, 0.02
    start, count = 10, 20
    grid = GridConfig(n=n, p=p, seed=seed)
    incr = simulate_window_increments(
        grid, VolModel.stochastic_bm(base, r2), start, count, replication=rep
    )
    dw = _fresh_stream(seed, rep, p).standard_normal(start + count - 1) * math.sqrt(1.0 / n)
    w = np.concatenate(([0.0], np.cumsum(dw)))  # W at 0, 1/n, ..., (start+count-1)/n
    variance = (math.sqrt(base) + r2 * w[start : start + count]) ** 2 / n
    for j in range(p):
        expected = np.sqrt(variance) * _fresh_stream(seed, rep, j).standard_normal(count)
        np.testing.assert_allclose(incr[j], expected, rtol=1e-14, atol=0.0)


def test_stochastic_bm_volatility_overflow_is_a_numerical_error():
    # (sqrt(base) + r2 * W)**2 overflows: an error naming r2, not a numpy
    # warning and a window of inf and nan increments
    grid = GridConfig(n=10, p=2, seed=0)
    with pytest.raises(NumericalError, match=r"^volatility path at r2 1e\+200 overflows$"):
        simulate_window_increments(grid, VolModel.stochastic_bm(0.0009, 1e200), 0, 10)
    with pytest.raises(NumericalError, match="r2 1e\\+200"):
        simulate_path(grid, VolModel.stochastic_bm(0.0009, 1e200))


def test_increments_that_overflow_give_no_warning():
    # -1e308 - 1e308 is not a float: spot_vol rejects it as bad input, so
    # numpy's warning would only be noise
    grid = GridConfig(n=2, p=1, seed=0)
    path = PricePath(grid=np.array([0.0, 0.5, 1.0]), values=np.array([[0.0, 1e308, -1e308]]),
                     config=grid)
    np.testing.assert_array_equal(increments(path), [[1e308, -np.inf]])


_SUBSTREAM_MODELS = [
    VolModel.deterministic_sin(0.0009, 0.0004),
    VolModel.piecewise_diag((0.4, 0.9, 1.6), r1=0.1),
    VolModel.stochastic_bm(0.0009, 0.02),  # driver on coordinate p
]


@pytest.mark.parametrize("model", _SUBSTREAM_MODELS, ids=lambda m: m.kind.value)
@pytest.mark.parametrize("rep", [0, 2**44 - 1])
@pytest.mark.parametrize("count", [1, 3, 68])
def test_window_rows_equal_freshly_keyed_philox(model, rep, count):
    # the re-keyed generator draws exactly what a fresh Philox(key=...) draws,
    # although each coordinate follows the previous one's partly used buffer
    n, p, seed, start = 100, 3, 2**64 - 1, 5
    incr = simulate_window_increments(
        GridConfig(n=n, p=p, seed=seed), model, start, count, replication=rep
    )
    variance = np.broadcast_to(
        simkit._variance_profile(model, n, start, count, p, _fresh_stream(seed, rep, p)),
        (p, count),
    )
    for j in range(p):
        expected = np.sqrt(variance[j]) * _fresh_stream(seed, rep, j).standard_normal(count)
        np.testing.assert_array_equal(incr[j], expected)


@pytest.mark.parametrize("rep", [0, 2**44 - 1])
@pytest.mark.parametrize("count", [1, 3, 68])
def test_rekey_resets_a_dirty_generator(rep, count):
    # One source draws replications out of order, so each re-key follows a
    # generator that another row, another replication or a driver left with
    # an advanced counter and a partly used buffer.  The p = 2 driver takes
    # coordinate 2, which is also a noise row of the p = 3 cells.
    n, seed, start = 100, 2**64 - 1, 5
    cells = [
        (3, VolModel.piecewise_diag((0.4, 0.9, 1.6), r1=0.1)),
        (2, VolModel.stochastic_bm(0.0009, 0.02)),
        (3, VolModel.deterministic_sin(0.0009, 0.0004)),
        (3, VolModel.stochastic_bm(0.0004, 0.03)),
    ]
    draw = simkit._window_source(seed, n, start, count, cells)
    for r in (rep, 5, 2, rep, 5):
        for (p, model), window in zip(cells, draw(r)):
            variance = np.broadcast_to(
                simkit._variance_profile(model, n, start, count, p, _fresh_stream(seed, r, p)),
                (p, count),
            )
            for j in range(p):
                expected = np.sqrt(variance[j]) * _fresh_stream(seed, r, j).standard_normal(count)
                np.testing.assert_array_equal(window[j], expected)


def test_replication_index_must_fit_the_key():
    grid = GridConfig(n=10, p=2, seed=0)
    model = VolModel.deterministic_sin(1.0)
    top = simulate_window_increments(grid, model, 0, 3, replication=2**44 - 1)
    # numpy integers are taken at their value: np.int64(2**44 - 1) << 20
    # would overflow 64 bits
    for rep in (np.int64(2**44 - 1), np.uint64(2**44 - 1)):
        np.testing.assert_array_equal(
            simulate_window_increments(grid, model, 0, 3, replication=rep), top
        )
    for rep in (2**44, -1, np.int64(-1)):
        with pytest.raises(ConfigError, match="replication index"):
            simulate_window_increments(grid, model, 0, 3, replication=rep)
    for rep in (1.5, 2.0, np.float64(3.0), "3", None):
        with pytest.raises(ConfigError, match="replication index"):
            simulate_window_increments(grid, model, 0, 3, replication=rep)
        with pytest.raises(ConfigError, match="replication index"):
            simulate_path(grid, model, replication=rep)


@pytest.mark.parametrize("kind", ["sin", "diag", "bm"])
@pytest.mark.parametrize("p", [1, 3, 40])
def test_window_draw_builds_one_philox(monkeypatch, kind, p):
    built = []
    real = simkit.Philox
    monkeypatch.setattr(simkit, "Philox", lambda *a, **k: built.append(k) or real(*a, **k))
    model = {
        "sin": VolModel.deterministic_sin(0.0009, 0.0004),
        "diag": VolModel.piecewise_diag(np.linspace(0.4, 1.6, p), r1=0.1),
        "bm": VolModel.stochastic_bm(0.0009, 0.02),
    }[kind]
    grid = GridConfig(n=50, p=p, seed=1)
    for rep in range(3):
        simulate_window_increments(grid, model, 2, 20, replication=rep)
        assert len(built) == rep + 1



def test_window_draw_holds_one_window():
    # The last cell scales the noise buffer in place: the public draw
    # allocates one p x count window, not a second one to scale into.
    config = GridConfig(n=4680, p=102, seed=0)
    tracemalloc.start()
    try:
        window = simulate_window_increments(config, VolModel.deterministic_sin(0.0009), 0, 4680)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * window.nbytes


def test_window_moments():
    # per-cell variance of the deterministic model is the exact integral of
    # base + r1*sin(2*pi*t); pool replications and compare cell by cell
    n, count, reps = 250, 50, 400
    base, r1 = 1.0, 0.5
    model = VolModel.deterministic_sin(base, r1)
    pooled = np.empty((reps, count))
    for rep in range(reps):
        grid = GridConfig(n=n, p=1, seed=77)
        pooled[rep] = simulate_window_increments(grid, model, 40, count, replication=rep)[0]
    i = np.arange(41, 41 + count)
    expected = base / n + (r1 / (2 * np.pi)) * (
        np.cos(2 * np.pi * (i - 1) / n) - np.cos(2 * np.pi * i / n)
    )
    sample_var = pooled.var(axis=0)
    # relative error of a 400-sample variance has sd sqrt(2/400) ~ 7%
    np.testing.assert_allclose(sample_var, expected, rtol=0.35)
    assert abs(sample_var.mean() / expected.mean() - 1.0) < 0.02


def test_simulate_path_structure():
    grid = GridConfig(n=30, p=2, seed=4)
    path = simulate_path(grid, VolModel.deterministic_sin(1.0))
    assert isinstance(path, PricePath)
    assert path.values.shape == (2, 31)
    assert path.grid.shape == (31,)
    np.testing.assert_array_equal(path.values[:, 0], 0.0)
    assert path.grid[0] == 0.0 and path.grid[-1] == 1.0
    incr = increments(path)
    assert incr.shape == (2, 30)
    np.testing.assert_allclose(np.cumsum(incr, axis=1), path.values[:, 1:], rtol=1e-12)


def test_path_csv_round_trip():
    grid = GridConfig(n=12, p=3, seed=8)
    path = simulate_path(grid, VolModel.stochastic_bm(0.0009, 0.01))
    buf = io.StringIO()
    write_path_csv(path, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "t,x1,x2,x3"
    grid_back, values_back = read_path_csv(io.StringIO(text))
    np.testing.assert_array_equal(grid_back, path.grid)
    np.testing.assert_array_equal(values_back, path.values)


def test_path_csv_rejects_garbage():
    with pytest.raises(ConfigError, match="empty"):
        read_path_csv(io.StringIO(""))
    with pytest.raises(ConfigError, match="header"):
        read_path_csv(io.StringIO("a,b\n1,2\n"))
    with pytest.raises(ConfigError, match="malformed"):
        read_path_csv(io.StringIO("t,x1\n0.0,zap\n"))
