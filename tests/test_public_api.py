"""The package's public names: listed once, in their modules, and importable;
and the one rule for each kind of argument they take."""

import ast
import io
from pathlib import Path

import numpy as np
import pytest

import spotspectra
from spotspectra import (
    Alternative, ConfigError, DiscreteH, GridConfig, MCConfig, MPLaw, SpectralSample,
    SpotEstimate, TestKind, VolKind, VolModel, eigenvalues_sym, errors, estimators,
    evaluate_tests, harness, hdtests, mp_lss_constants, rescale, rmt, simkit,
    simulate_window_increments, solve_silverstein, spectra, spot_vol, spot_vol_from_window,
    write_matrix_csv,
)
from spotspectra.estimators import window_start

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = (errors, estimators, harness, hdtests, rmt, simkit, spectra)


def _names_imported_from_package(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "spotspectra"
        for alias in node.names
    }


def test_every_public_name_resolves():
    for name in spotspectra.__all__:
        assert hasattr(spotspectra, name), name


def test_package_list_is_the_union_of_the_module_lists():
    listed = [name for module in _MODULES for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert sorted(spotspectra.__all__) == sorted(listed + ["__version__"])
    for module in _MODULES:
        for name in module.__all__:
            assert getattr(spotspectra, name) is getattr(module, name), name


@pytest.mark.parametrize("script", ["tracing.py", "workloads.py"])
def test_benchmark_imports_are_public(script):
    names = _names_imported_from_package((_ROOT / "perfbench" / script).read_text())
    assert {"rescale", "spot_vol_from_window"} <= names
    assert names <= set(spotspectra.__all__)


def test_readme_example_imports_are_public():
    readme = (_ROOT / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    names = _names_imported_from_package(example)
    assert "increments" in names
    assert names <= set(spotspectra.__all__)


_GRID = GridConfig(n=10, p=2, seed=0)
_SIN = VolModel.deterministic_sin(1.0)
_EYE = SpotEstimate(matrix=np.eye(2), t=0.0, k_n=4, window=(1, 4))

# Every scalar argument: a valid Python value, and a call that passes a value in
# its place and returns what was stored there, or the call's result.
_SCALARS = {
    "GridConfig.n": (10, lambda v: GridConfig(n=v, p=2, seed=0).n),
    "GridConfig.p": (2, lambda v: GridConfig(n=10, p=v, seed=0).p),
    "GridConfig.seed": (3, lambda v: GridConfig(n=10, p=2, seed=v).seed),
    "MCConfig.seed": (3, lambda v: MCConfig(seed=v).seed),
    "MCConfig.reps": (10, lambda v: MCConfig(seed=0, reps=v).reps),
    "MCConfig.n": (400, lambda v: MCConfig(seed=0, n=v).n),
    "MCConfig.k_n": (20, lambda v: MCConfig(seed=0, n=400, k_n=v).k_n),
    "MCConfig.workers": (2, lambda v: MCConfig(seed=0, workers=v).workers),
    "MCConfig.t": (0.5, lambda v: MCConfig(seed=0, n=400, t=v).t),
    "window start": (3, lambda v: simulate_window_increments(_GRID, _SIN, v, 4)),
    "window count": (4, lambda v: simulate_window_increments(_GRID, _SIN, 3, v)),
    "window replication": (5, lambda v: simulate_window_increments(_GRID, _SIN, 0, 4, v)),
    "window_start n": (100, lambda v: window_start(0.5, v, 4)),
    "window_start k_n": (4, lambda v: window_start(0.5, 100, v)),
    "window_start t": (0.5, lambda v: window_start(v, 100, 4)),
    "SpotEstimate.k_n": (4, lambda v: SpotEstimate(matrix=np.eye(2), t=0.0, k_n=v, window=(1, 4)).k_n),
    "SpotEstimate.t": (0.5, lambda v: SpotEstimate(matrix=np.eye(2), t=v, k_n=4, window=(1, 4)).t),
    "VolModel.base": (1.0, lambda v: VolModel.deterministic_sin(v).base),
    "VolModel.r1": (0.5, lambda v: VolModel.deterministic_sin(2.0, v).r1),
    "VolModel.r2": (0.5, lambda v: VolModel.stochastic_bm(1.0, v).r2),
    "VolModel.diag": (0.5, lambda v: VolModel(kind=VolKind.PIECEWISE_DIAG, diag=(v, 0.2)).diag[0]),
    "piecewise_diag diag": (0.5, lambda v: VolModel.piecewise_diag((v, 0.2)).diag[0]),
    "two_block high": (0.5, lambda v: VolModel.two_block(4, 0.5, high=v, low=0.2).diag[0]),
    "two_block split": (0.5, lambda v: VolModel.two_block(4, v, high=0.5, low=0.2).diag),
    "Alternative.s": (0.5, lambda v: Alternative(s=v).s),
    "Alternative.low": (0.001, lambda v: Alternative(s=0.5, low=v).low),
    "MPLaw.y": (0.5, lambda v: MPLaw(y=v).y),
    "solve_silverstein y": (0.5, lambda v: solve_silverstein(1 + 1j, v, DiscreteH.point_mass(1.0)).m),
    "mp_lss_constants z_n": (0.5, lambda v: mp_lss_constants(v)),
    "DiscreteH.support": (1.0, lambda v: DiscreteH(support=(v, 2.0), weights=(0.5, 0.5)).support[0]),
    "DiscreteH.weights": (0.5, lambda v: DiscreteH(support=(1.0, 2.0), weights=(v, 0.5)).weights[0]),
    "rescale factor": (2.0, lambda v: rescale(_EYE, v).matrix),
}


@pytest.mark.parametrize("name", _SCALARS)
def test_every_scalar_argument_follows_its_kinds_rule(name):
    # An integer is what operator.index takes and a real a numbers.Real, a bool
    # neither: a numpy scalar is stored as a plain int or float, and anything
    # else is a ConfigError, never a TypeError, a truncation or a parsed string.
    good, call = _SCALARS[name]
    expected = call(good)
    stored = call(np.int64(good) if type(good) is int else np.float64(good))
    assert type(stored) is type(expected)
    np.testing.assert_array_equal(stored, expected)
    bad = [True, np.True_, str(good), "0.5"] + ([float(good)] if type(good) is int else [])
    for value in bad + ([] if name == "MCConfig.k_n" else [None]):  # k_n=None is floor(sqrt(n))
        with pytest.raises(ConfigError):
            call(value)


def test_a_complex_point_follows_the_complex_rule():
    # A numbers.Complex that is no bool: a numpy number gives the Python value's
    # solution, and a string is never parsed.
    h = DiscreteH.point_mass(1.0)
    assert solve_silverstein(np.complex128(1 + 1j), 0.5, h) == solve_silverstein(1 + 1j, 0.5, h)
    for z in ("1+1j", b"1+1j", True, np.True_, None, [1 + 1j], 10**400):
        with pytest.raises(ConfigError, match=r"^z must be a finite point with Im z > 0, got "):
            solve_silverstein(z, 0.5, h)


_SPD = np.array([[2.0, 0.5], [0.5, 1.0]])
_INCR = np.arange(8.0).reshape(2, 4)


def _matrix_csv(matrix):
    stream = io.StringIO()
    write_matrix_csv(matrix, stream)
    return stream.getvalue()


# Every sequence and array argument: a valid value, what is stored from it (or
# the call's result), the call, and what each failure's message names.
_COLLECTIONS = {
    "MCConfig.p_list": ([34, 68], (34, 68), lambda v: MCConfig(seed=0, p_list=v).p_list, "p_list"),
    "MCConfig.levels": ([0.1, 0.05], (0.1, 0.05), lambda v: MCConfig(seed=0, levels=v).levels,
                        "levels"),
    "VolModel.diag": ([0.5, 0.2], (0.5, 0.2), lambda v: VolModel.piecewise_diag(v).diag, "diag"),
    "DiscreteH.support": ([1.0, 2.0], (1.0, 2.0),
                          lambda v: DiscreteH(support=v, weights=(0.5, 0.5)).support, "support"),
    "DiscreteH.weights": ([0.25, 0.75], (0.25, 0.75),
                          lambda v: DiscreteH(support=(1.0, 2.0), weights=v).weights, "weights"),
    "evaluate_tests kinds": (["lw", "j"], [TestKind.LW, TestKind.J],
                             lambda v: [r.kind for r in evaluate_tests(_EYE, v)], "kind"),
    "spot_vol increments": (_INCR, spot_vol(_INCR, 0.0, 2).matrix,
                            lambda v: spot_vol(v, 0.0, 2).matrix, "increment matrix"),
    "spot_vol_from_window window": (_INCR[:, :2], spot_vol(_INCR, 0.0, 2).matrix,
                                    lambda v: spot_vol_from_window(v, 4, 0.0, 2).matrix,
                                    "increment matrix"),
    "SpotEstimate.matrix": (_SPD, _SPD,
                            lambda v: SpotEstimate(matrix=v, t=0.0, k_n=4, window=(1, 4)).matrix,
                            "estimate matrix"),
    "eigenvalues_sym matrix": (_SPD, eigenvalues_sym(_SPD).eigenvalues,
                               lambda v: eigenvalues_sym(v).eigenvalues, "matrix"),
    "write_matrix_csv matrix": (_SPD, _matrix_csv(_SPD), _matrix_csv, "matrix"),
    "SpectralSample.eigenvalues": (np.array([2.0, 1.0]), np.array([2.0, 1.0]),
                                   lambda v: SpectralSample(eigenvalues=v).eigenvalues,
                                   "eigenvalue vector"),
}


def _not_collections(good):
    # A str, bytes, a mapping, no entry at all, and arrays of good's shape that
    # numpy holds as bools, complex numbers, strings or objects, or cannot hold.
    ones, rows = np.ones(np.shape(good)), np.asarray(good).tolist()
    return ["ab", b"\x22D", {"a": 1}, (), ones.astype(bool), ones * 1j, ones.astype(str),
            np.full(np.shape(good), None, dtype=object), [rows[0], rows[1:]]]


@pytest.mark.parametrize("name", _COLLECTIONS)
def test_every_sequence_and_array_argument_follows_its_kinds_rule(name):
    # A sequence is any iterable but a str, bytes or mapping, with an entry, each
    # entry read by its own rule; an array is what numpy holds as integers or
    # floats in the axes it needs, none empty, all finite, kept when it is float.
    good, expected, call, named = _COLLECTIONS[name]
    if isinstance(good, np.ndarray):  # as nested lists and as exact float32 too
        same = [good, good.tolist(), good.astype(np.float32)]
    else:  # as an array of numbers or strings, and as an iterator
        same = [good, np.asarray(good), iter(good)]
    for value in same:
        stored = call(value)
        assert type(stored) is type(expected)
        assert [type(entry) for entry in stored] == [type(entry) for entry in expected]
        np.testing.assert_array_equal(stored, expected)
    for value in _not_collections(good):
        with pytest.raises(ConfigError, match=named):
            call(value)


def test_a_float_array_argument_is_stored_without_a_copy():
    estimate = SpotEstimate(matrix=_SPD, t=0.0, k_n=4, window=(1, 4))
    assert estimate.matrix is _SPD
    eigenvalues = np.array([2.0, 1.0])
    assert SpectralSample(eigenvalues=eigenvalues).eigenvalues is eigenvalues
