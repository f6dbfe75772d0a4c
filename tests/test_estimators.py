"""Spot and integrated covariance estimators: hand values, tiling, equivariance."""

import io
import math

import numpy as np
import pytest

from spotspectra import (
    ConfigError,
    GridConfig,
    SpotEstimate,
    VolModel,
    increments,
    read_matrix_csv,
    realized_integrated_vol,
    rescale,
    simulate_path,
    spot_vol,
    spot_vol_from_window,
    write_matrix_csv,
)
from spotspectra import estimators
from spotspectra.estimators import window_start


def test_spot_hand_example():
    # p=1, n=4, increments (0.1, -0.2, 0.3, -0.4), k_n=2:
    #   window at t=0   -> (4/2) * (0.1^2 + 0.2^2) = 0.1
    #   window at t=0.5 -> (4/2) * (0.3^2 + 0.4^2) = 0.5
    incr = np.array([[0.1, -0.2, 0.3, -0.4]])
    est0 = spot_vol(incr, 0.0, 2)
    np.testing.assert_allclose(est0.matrix, [[0.1]], rtol=1e-15)
    assert est0.window == (1, 2)
    assert est0.k_n == 2 and est0.z_n == 0.5 and est0.p == 1
    est5 = spot_vol(incr, 0.5, 2)
    np.testing.assert_allclose(est5.matrix, [[0.5]], rtol=1e-15)
    assert est5.window == (3, 4)


def test_integrated_hand_example():
    incr = np.array([[0.1, -0.2, 0.3, -0.4]])
    np.testing.assert_allclose(realized_integrated_vol(incr), [[0.3]], rtol=1e-15)


def test_integrated_equals_sum_of_outers():
    rng = np.random.default_rng(0)
    incr = rng.standard_normal((3, 20))
    manual = sum(np.outer(incr[:, i], incr[:, i]) for i in range(20))
    np.testing.assert_allclose(realized_integrated_vol(incr), manual, rtol=1e-13)


def test_spot_window_selection_matches_manual():
    rng = np.random.default_rng(1)
    incr = rng.standard_normal((4, 100))
    for t, k_n in ((0.0, 10), (0.37, 25), (0.9, 10)):
        start = int(math.floor(t * 100))
        block = incr[:, start : start + k_n]
        outer = block @ block.T
        expected = (100 / k_n) * 0.5 * (outer + outer.T)
        est = spot_vol(incr, t, k_n)
        np.testing.assert_array_equal(est.matrix, expected)
        assert est.window == (start + 1, start + k_n)


def test_anchor_time_is_not_floored_below_its_cell():
    # 0.29 * 100 == 28.999999999999996: the window must still start after
    # cell 29, not one cell early
    incr = np.random.default_rng(4).standard_normal((3, 100))
    k_n = 10
    est = spot_vol(incr, 0.29, k_n)
    assert est.window == (30, 29 + k_n)
    block = incr[:, 29 : 29 + k_n]
    np.testing.assert_array_equal(est.matrix, spot_vol_from_window(block, 100, 0.29, k_n).matrix)


@pytest.mark.parametrize("t", [math.nan, 1e308, -math.inf])
def test_nonfinite_window_start_is_a_config_error(t):
    # t * n is NaN or overflows: an error naming t and n, not a bare
    # ValueError or OverflowError from the floor
    with pytest.raises(ConfigError, match=r"t \* n is not finite: t = .*, n = 100$"):
        window_start(t, 100)
    with pytest.raises(ConfigError, match="t \\* n is not finite"):
        spot_vol_from_window(np.ones((2, 10)), 100, t, 10)


def test_negative_anchor_time_is_a_config_error():
    # the window would start before the sample: (-49, -46) at t = -0.5, n = 100
    with pytest.raises(ConfigError, match=r"^t must be finite and nonnegative, got -0\.5$"):
        window_start(-0.5, 100)
    with pytest.raises(ConfigError, match="t must be finite and nonnegative"):
        spot_vol_from_window(np.ones((2, 4)), 100, -0.5, 4)
    with pytest.raises(ConfigError, match="t must be finite and nonnegative"):
        spot_vol(np.ones((2, 100)), -0.5, 4)


def test_empty_window_is_a_config_error_not_a_division():
    with pytest.raises(ConfigError, match=r"^k_n must be a positive integer, got 0$"):
        spot_vol_from_window(np.ones((2, 0)), 100, 0.0, 0)


def test_output_is_exactly_symmetric():
    rng = np.random.default_rng(2)
    incr = rng.standard_normal((6, 50))
    est = spot_vol(incr, 0.1, 20)
    np.testing.assert_array_equal(est.matrix, est.matrix.T)
    integrated = realized_integrated_vol(incr)
    np.testing.assert_array_equal(integrated, integrated.T)


def _layouts(p, k_n, seed):
    rng = np.random.default_rng(seed)
    wide = rng.standard_normal((p, 3 * k_n))
    window = np.ascontiguousarray(wide[:, k_n : 2 * k_n])
    return {
        "C": window,
        "F": np.asfortranarray(window),
        "column slice": wide[:, k_n : 2 * k_n],
        "column stride": np.repeat(window, 2, axis=1)[:, ::2],
    }


@pytest.mark.parametrize("p", [1, 8, 34, 102, 300])
def test_gram_is_exactly_symmetric_for_every_layout(p):
    # No symmetrization pass follows the Gram: its symmetry rests on numpy
    # forming ``w @ w.T`` of a unit-stride ``w`` with BLAS syrk.  This fails if
    # a numpy or BLAS release stops doing so.
    for k_n in (20, 68):
        layouts = _layouts(p, k_n, seed=p)
        reference = estimators._gram(layouts["C"])
        for name, window in layouts.items():
            assert np.array_equal(window, layouts["C"])
            gram = estimators._gram(window)
            assert np.array_equal(gram, gram.T), f"{name} Gram is not symmetric at p = {p}"
            assert np.array_equal(gram, reference), f"{name} Gram differs from C order at p = {p}"


def test_spot_bits_do_not_depend_on_the_memory_order():
    incr = np.random.default_rng(5).standard_normal((34, 400))
    c_order = spot_vol(np.ascontiguousarray(incr), 0.3, 20).matrix
    f_order = spot_vol(np.asfortranarray(incr), 0.3, 20).matrix
    assert np.array_equal(c_order, f_order)
    np.testing.assert_array_equal(
        realized_integrated_vol(np.asfortranarray(incr)), realized_integrated_vol(incr)
    )


def test_tiling_windows_reassemble_integrated_vol():
    # with n/k_n dyadic the window anchors j*k/n are exact binary fractions,
    # so the tiles partition the sample and the weighted spot estimates must
    # reassemble the realized integrated covariance
    n, k_n, p = 256, 32, 5
    grid = GridConfig(n=n, p=p, seed=13)
    path = simulate_path(grid, VolModel.stochastic_bm(0.0009, 0.01))
    incr = increments(path)
    total = np.zeros((p, p))
    for j in range(n // k_n):
        est = spot_vol(incr, j * k_n / n, k_n)
        total += (k_n / n) * est.matrix
    expected = realized_integrated_vol(incr)
    np.testing.assert_allclose(total, expected, rtol=1e-12)


def test_orthogonal_equivariance():
    rng = np.random.default_rng(3)
    incr = rng.standard_normal((5, 40))
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    direct = spot_vol(q @ incr, 0.0, 40).matrix
    conjugated = q @ spot_vol(incr, 0.0, 40).matrix @ q.T
    scale = np.max(np.abs(direct))
    np.testing.assert_allclose(direct, conjugated, atol=1e-10 * scale)


def test_spot_window_overrun_and_bad_inputs():
    incr = np.zeros((2, 10))
    with pytest.raises(ConfigError, match="overruns the sample"):
        spot_vol(incr, 0.5, 6)
    with pytest.raises(ConfigError, match="k_n must be"):
        spot_vol(incr, 0.0, 0)
    with pytest.raises(ConfigError, match="t must be"):
        spot_vol(incr, -0.1, 5)
    with pytest.raises(ConfigError, match="2-D"):
        spot_vol(np.zeros(10), 0.0, 5)
    with pytest.raises(ConfigError, match="non-finite"):
        spot_vol(np.full((2, 10), np.nan), 0.0, 5)
    with pytest.raises(ConfigError, match="columns"):
        spot_vol_from_window(np.zeros((2, 5)), 10, 0.0, 6)


def test_rescale():
    est = spot_vol(np.array([[0.1, -0.2, 0.3, -0.4]]), 0.0, 2)
    doubled = rescale(est, 2.0)
    np.testing.assert_array_equal(doubled.matrix, est.matrix * 2.0)
    assert doubled.window == est.window and doubled.z_n == est.z_n
    with pytest.raises(ConfigError, match="scale factor"):
        rescale(est, 0.0)
    with pytest.raises(ConfigError, match="scale factor"):
        rescale(est, math.inf)


def test_spot_estimate_validation():
    good = np.eye(2)
    assert SpotEstimate(matrix=good, t=0.0, k_n=4, window=(1, 4)).z_n == 0.5
    with pytest.raises(ConfigError, match="square"):
        SpotEstimate(matrix=np.zeros((2, 3)), t=0.0, k_n=4, window=(1, 4))
    with pytest.raises(ConfigError, match="asymmetric"):
        SpotEstimate(matrix=np.array([[1.0, 0.5], [0.0, 1.0]]), t=0.0, k_n=4, window=(1, 4))
    with pytest.raises(ConfigError, match="non-finite"):
        SpotEstimate(matrix=np.array([[1.0, 0.0], [0.0, np.inf]]), t=0.0, k_n=4, window=(1, 4))
    for k_n in (0, 2.0):
        with pytest.raises(ConfigError, match="k_n must be a positive integer"):
            SpotEstimate(matrix=good, t=0.0, k_n=k_n, window=(1, 4))


def test_matrix_csv_round_trip():
    rng = np.random.default_rng(4)
    matrix = spot_vol(rng.standard_normal((3, 30)), 0.0, 10).matrix
    buf = io.StringIO()
    write_matrix_csv(matrix, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "c1,c2,c3"
    back = read_matrix_csv(io.StringIO(text))
    np.testing.assert_array_equal(back, matrix)


def test_matrix_csv_rejects_garbage():
    with pytest.raises(ConfigError):
        read_matrix_csv(io.StringIO(""))
    with pytest.raises(ConfigError):
        read_matrix_csv(io.StringIO("c1,c2\n1.0\n"))
