"""Spot and integrated covariance estimators: hand values, tiling, equivariance."""

import io
import math
import warnings

import numpy as np
import pytest

from spotspectra import (
    ConfigError,
    GridConfig,
    MCConfig,
    NumericalError,
    SpotEstimate,
    VolModel,
    eigenvalues_sym,
    increments,
    read_matrix_csv,
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


def _integrated(incr):
    # the realized integrated covariance: the spot estimate whose window is the
    # whole sample (n / n == 1.0)
    incr = np.asarray(incr)
    return spot_vol(incr, 0.0, incr.shape[1]).matrix


def test_integrated_hand_example():
    incr = np.array([[0.1, -0.2, 0.3, -0.4]])
    np.testing.assert_allclose(_integrated(incr), [[0.3]], rtol=1e-15)


def test_integrated_equals_sum_of_outers():
    rng = np.random.default_rng(0)
    incr = rng.standard_normal((3, 20))
    manual = sum(np.outer(incr[:, i], incr[:, i]) for i in range(20))
    np.testing.assert_allclose(_integrated(incr), manual, rtol=1e-13)


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
        window_start(t, 100, 10)
    with pytest.raises(ConfigError, match="t \\* n is not finite"):
        spot_vol_from_window(np.ones((2, 10)), 100, t, 10)


def test_negative_anchor_time_is_a_config_error():
    # the window would start before the sample: (-49, -46) at t = -0.5, n = 100
    with pytest.raises(ConfigError, match=r"^t must be finite and nonnegative, got -0\.5$"):
        window_start(-0.5, 100, 4)
    with pytest.raises(ConfigError, match="t must be finite and nonnegative"):
        spot_vol_from_window(np.ones((2, 4)), 100, -0.5, 4)
    with pytest.raises(ConfigError, match="t must be finite and nonnegative"):
        spot_vol(np.ones((2, 100)), -0.5, 4)


@pytest.mark.parametrize("n", [-100, 0])
def test_nonpositive_sample_size_is_a_config_error(n):
    # -100 would shift the window to (-49, -46) and scale by -100; 0 would
    # zero the estimate
    with pytest.raises(ConfigError, match=rf"^n must be a positive integer, got {n}$"):
        window_start(0.5, n, 4)
    with pytest.raises(ConfigError, match="n must be a positive integer"):
        spot_vol_from_window(np.ones((2, 4)), n, 0.5, 4)


def _config_error(call):
    with pytest.raises(ConfigError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize(
    "n, t, k_n, fragment",
    [
        (100.5, 0.5, 4, "n must be a positive integer, got 100.5"),
        (10, 0.9, 4, "window [10, 13] at t = 0.9 overruns the sample"),
        (100, 0.5, 0, "k_n must be a positive integer, got 0"),
        (100, -0.5, 4, "t must be finite and nonnegative, got -0.5"),
        (100, math.inf, 4, "window start t * n is not finite"),
    ],
    ids=["float n", "overrun", "k_n 0", "t < 0", "t*n not finite"],
)
def test_every_caller_rejects_a_bad_window_with_one_message(n, t, k_n, fragment):
    # window_start is the only check of where a window sits, so the public
    # estimators and MCConfig raise its message word for word.  A float n used
    # to shift the window to (51, 54) and scale by 100.5 / 4, and the overrun
    # returned window (10, 13) on a 10-cell sample.  spot_vol reads n from the
    # increments' shape, which is always an integer.
    message = _config_error(lambda: window_start(t, n, k_n))
    assert fragment in message
    assert _config_error(lambda: spot_vol_from_window(np.ones((2, k_n)), n, t, k_n)) == message
    assert _config_error(lambda: MCConfig(seed=0, n=n, k_n=k_n, t=t, p_list=(2,))) == message
    if isinstance(n, int):
        assert _config_error(lambda: spot_vol(np.ones((2, n)), t, k_n)) == message


def test_an_overflowing_estimate_is_a_numerical_error_without_a_warning():
    # 1e160 squared overflows; the mixed signs also make inf - inf = nan
    window = np.array([[1e160, 1e160], [1e160, -1e160]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^estimate is not finite$"):
            spot_vol_from_window(window, 100, 0.0, 2)
        with pytest.raises(NumericalError, match="^estimate is not finite$"):
            spot_vol(window, 0.0, 2)


def test_a_nonfinite_window_is_a_config_error_not_an_overflow():
    # bad input, not a numerical failure of the estimate
    with pytest.raises(ConfigError, match="^increment matrix contains non-finite entries$"):
        spot_vol_from_window(np.full((2, 4), np.nan), 100, 0.0, 4)


def test_rescale_overflow_is_a_numerical_error_without_a_warning():
    est = spot_vol(np.ones((2, 4)), 0.0, 4)  # entries 4.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^estimate is not finite$"):
            rescale(est, 1e308)


def test_empty_window_is_a_config_error_not_a_division():
    with pytest.raises(ConfigError, match=r"^k_n must be a positive integer, got 0$"):
        spot_vol_from_window(np.ones((2, 0)), 100, 0.0, 0)


def test_output_is_exactly_symmetric():
    rng = np.random.default_rng(2)
    incr = rng.standard_normal((6, 50))
    est = spot_vol(incr, 0.1, 20)
    np.testing.assert_array_equal(est.matrix, est.matrix.T)
    integrated = _integrated(incr)
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
        reference = estimators._scaled_gram(layouts["C"], k_n, k_n, 1.0)
        for name, window in layouts.items():
            assert np.array_equal(window, layouts["C"])
            gram = estimators._scaled_gram(window, k_n, k_n, 1.0)
            assert np.array_equal(gram, gram.T), f"{name} Gram is not symmetric at p = {p}"
            assert np.array_equal(gram, reference), f"{name} Gram differs from C order at p = {p}"


def test_spot_bits_do_not_depend_on_the_memory_order():
    incr = np.random.default_rng(5).standard_normal((34, 400))
    c_order = spot_vol(np.ascontiguousarray(incr), 0.3, 20).matrix
    f_order = spot_vol(np.asfortranarray(incr), 0.3, 20).matrix
    assert np.array_equal(c_order, f_order)
    np.testing.assert_array_equal(
        _integrated(np.asfortranarray(incr)), _integrated(incr)
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
    expected = _integrated(incr)
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


def test_asymmetry_that_overflows_is_a_config_error():
    # max |A - A^T| = inf: the check says asymmetric, with no numpy warning
    m = np.array([[0.0, 1e308], [-1e308, 0.0]])
    with pytest.raises(ConfigError, match="asymmetric: max [|]A - A\\^T[|] = inf"):
        SpotEstimate(matrix=m, t=0.0, k_n=4, window=(1, 4))
    with pytest.raises(ConfigError, match="asymmetric"):
        eigenvalues_sym(m)


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
