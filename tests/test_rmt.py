"""Marchenko-Pastur law, Silverstein solver, LSS constants.

High-precision reference constants were computed once with 40-digit
arithmetic from the closed-form density and are frozen here as literals.
"""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from spotspectra import (
    ConfigError,
    DegenerateStatisticError,
    DiscreteH,
    MPLaw,
    NumericalError,
    mp_cdf,
    mp_lss_constants,
    mp_pdf,
    solve_silverstein,
)

# cdf of the unit-scale law, 40-digit quadrature, rounded to 20 significant digits
_CDF_REFS = [
    (1.0, 0.5, 0.57600421510386856202),
    (1.0, 1.0, 0.60899778104422935809),
    (2.0, 1.5, 0.79634814109877927120),
]

# center constant of x - log(x) - 1 under the unit law, same precision
_CENTER_REFS = [
    (0.1, 0.051755359079563288952),
    (0.3, 0.16775846414295778254),
    (0.5, 0.30685281944005469058),
    (0.9, 0.74415721188955047955),
]


def test_mp_law_support_and_atom():
    law = MPLaw(y=0.5)
    assert law.a == pytest.approx((1 - math.sqrt(0.5)) ** 2, rel=1e-15)
    assert law.b == pytest.approx((1 + math.sqrt(0.5)) ** 2, rel=1e-15)
    assert law.atom == 0.0
    assert MPLaw(y=1.5).atom == pytest.approx(1 - 1 / 1.5, rel=1e-15)
    with pytest.raises(ConfigError):
        MPLaw(y=0.0)


def _quad_against_density(g, y):
    # integrate g against the bulk density sqrt((b-x)(x-a)) / (2 pi y x) with
    # the substitution x = a + (b-a) sin^2(theta), which removes the
    # square-root edge singularities and makes plain quadrature tight
    a = (1.0 - math.sqrt(y)) ** 2
    b = (1.0 + math.sqrt(y)) ** 2
    w = b - a

    def integrand(theta):
        x = a + w * math.sin(theta) ** 2
        dens = math.sqrt(max((b - x) * (x - a), 0.0)) / (2.0 * math.pi * y * x)
        return g(x) * dens * w * math.sin(2.0 * theta)

    value, err = integrate.quad(
        integrand, 0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-12, limit=200
    )
    assert err < 1e-10
    return value


def test_mp_pdf_support_and_mass():
    for y in (0.5, 1.5):
        law = MPLaw(y=y)
        assert mp_pdf(law.a - 1e-9, law) == 0.0
        assert mp_pdf(law.b + 1e-9, law) == 0.0
        xs = np.linspace(law.a, law.b, 101)
        assert np.all(np.asarray(mp_pdf(xs, law)) >= 0.0)
        mass = _quad_against_density(lambda x: 1.0, y)
        assert mass == pytest.approx(min(1.0, 1.0 / y), abs=1e-12)


def test_mp_cdf_reference_values():
    for x, y, ref in _CDF_REFS:
        assert mp_cdf(x, MPLaw(y=y)) == pytest.approx(ref, abs=5e-15)


def test_mp_cdf_shape():
    law = MPLaw(y=1.5)
    assert mp_cdf(-1e-12, law) == 0.0
    assert mp_cdf(0.0, law) == law.atom
    assert mp_cdf(law.a / 2, law) == law.atom
    assert mp_cdf(law.b, law) == 1.0
    assert mp_cdf(law.b + 5.0, law) == 1.0
    thin = MPLaw(y=0.5)
    assert mp_cdf(0.0, thin) == 0.0
    assert mp_cdf(thin.a * 0.99, thin) == 0.0
    xs = np.linspace(-0.5, thin.b + 0.5, 80)
    vals = np.array([mp_cdf(x, thin) for x in xs])
    assert np.all(np.diff(vals) >= 0.0)
    np.testing.assert_array_equal(vals, [mp_cdf(x, thin) for x in xs.tolist()])


def _scalar_mp_cdf(x, law):
    # The scalar closed form mp_cdf had before it took arrays: the oracle for
    # the array form, which must equal it bit for bit.
    u = float(x)
    y = law.y
    root = math.sqrt(y)
    ua, ub = (1.0 - root) ** 2, (1.0 + root) ** 2
    if u < 0.0:
        return 0.0
    if u >= ub:
        return 1.0
    if u <= ua:
        return law.atom
    lo, hi = u - ua, ub - u
    bulk = (
        math.sqrt(lo * hi)
        + 2.0 * (1.0 + y) * math.atan2(math.sqrt(lo), math.sqrt(hi))
        - 2.0 * abs(1.0 - y) * math.atan2(math.sqrt(ub * lo), math.sqrt(ua * hi))
    )
    return min(law.atom + bulk / (2.0 * math.pi * y), 1.0)


@pytest.mark.parametrize("y", [0.3, 1.0, 1.5, 3.0])
def test_mp_cdf_on_an_array_equals_the_scalar_formula(y):
    law = MPLaw(y=y)
    edges = np.array([0.0, law.a, law.b])
    xs = np.concatenate(
        [
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [-1.0, -1e-300, law.b * 1.5, law.b + 10.0],
            np.linspace(law.a, law.b, 201),
            np.random.default_rng(11).uniform(-0.1, 1.1, 200) * law.b,
        ]
    )
    values = mp_cdf(xs, law)
    assert isinstance(values, np.ndarray) and values.shape == xs.shape
    assert values.tolist() == [_scalar_mp_cdf(x, law) for x in xs.tolist()]
    np.testing.assert_array_equal(mp_cdf(xs.reshape(2, -1), law), values.reshape(2, -1))
    for x in (law.a, np.float64(law.b / 2), np.array(law.b / 3)):
        value = mp_cdf(x, law)
        assert type(value) is float and value == _scalar_mp_cdf(x, law)


def test_mp_cdf_matches_quadrature_of_density():
    # independent oracle: atom plus the quadrature of mp_pdf from a to x, with
    # x = a + (b - a) sin^2(theta) removing the edge singularities (and the
    # 1/sqrt(x) pole at a = 0 when y = 1); the cdf must agree to 1e-12 in
    # the bulk and within 1e-12 of either edge
    for y in (0.3, 1.0, 1.5, 3.0):
        law = MPLaw(y=y)
        w = law.b - law.a

        def integrand(theta):
            x = law.a + w * math.sin(theta) ** 2
            return float(mp_pdf(x, law)) * w * math.sin(2.0 * theta)

        xs = [law.a + 1e-12, law.b - 1e-12]
        xs += [law.a + w * f for f in (0.01, 0.25, 0.5, 0.75, 0.99)]
        for x in xs:
            theta_x = math.atan2(math.sqrt(x - law.a), math.sqrt(law.b - x))
            bulk, err = integrate.quad(
                integrand, 0.0, theta_x, epsabs=1e-14, epsrel=1e-13, limit=200
            )
            assert err < 1e-12
            assert mp_cdf(x, law) == pytest.approx(law.atom + bulk, abs=1e-12)


def test_runtime_imports_no_scipy():
    # scipy is a test dependency only: importing the package and its CLI must
    # not pull it in
    code = (
        "import spotspectra, spotspectra.cli, sys; "
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_solver_matches_closed_form(closed_form_m):
    rng = np.random.default_rng(7)
    h = DiscreteH.point_mass(1.0)
    for y in (0.3, 0.5):
        law = MPLaw(y=y)
        for _ in range(20):
            z = complex(rng.uniform(-2.0, law.b + 2.0), rng.uniform(1e-3, 2.0))
            point = solve_silverstein(z, y, h)
            assert abs(point.m - closed_form_m(z, y)) < 1e-8
            assert point.m.imag > 0.0
            assert point.residual <= 1e-10


def test_solver_scaled_point_mass_consistency():
    # m_tau(z) = m_1(z / tau) / tau
    tau, y = 0.0009, 0.5
    z = complex(0.0012, 0.0003)
    scaled = solve_silverstein(z, y, DiscreteH.point_mass(tau))
    unit = solve_silverstein(z / tau, y, DiscreteH.point_mass(1.0))
    assert abs(scaled.m - unit.m / tau) < 1e-10 / tau


def test_solver_general_h_self_consistency():
    # two-point population: check the defining equations independently
    h = DiscreteH(support=(1.0, 3.0), weights=(0.6, 0.4))
    y = 0.5
    t = np.array(h.support)
    w = np.array(h.weights)
    for z in (complex(1.0, 0.5), complex(3.5, 0.01), complex(-0.5, 0.2)):
        point = solve_silverstein(z, y, h)
        mu, m = point.m_under, point.m
        lhs = z + 1.0 / mu - y * np.sum(w * t / (1.0 + t * mu))
        assert abs(lhs) < 1e-10
        assert abs(m - (mu + (1.0 - y) / z) / y) < 1e-12
        assert m.imag > 0.0


def test_solver_density_reconstruction():
    # pdf(x) = lim Im m(x + i*eps) / pi
    y = 0.5
    law = MPLaw(y=y)
    h = DiscreteH.point_mass(1.0)
    for x in np.linspace(law.a + 0.1, law.b - 0.1, 5):
        point = solve_silverstein(complex(x, 1e-6), y, h)
        assert point.m.imag / math.pi == pytest.approx(float(mp_pdf(x, law)), abs=1e-3)


def test_solver_strip_above_support():
    y = 0.5
    law = MPLaw(y=y)
    h = DiscreteH.point_mass(1.0)
    for x in np.linspace(law.a - 1.0, law.b + 1.0, 21):
        point = solve_silverstein(complex(x, 0.01), y, h)
        assert point.m.imag > 0.0
        assert point.residual <= 1e-10


def test_solver_degenerate_inputs():
    h = DiscreteH.point_mass(1.0)
    with pytest.raises(ConfigError, match="Im z > 0"):
        solve_silverstein(complex(1.0, 0.0), 0.5, h)
    with pytest.raises(ConfigError, match="y must be"):
        solve_silverstein(complex(1.0, 1.0), -0.5, h)
    with pytest.raises(ConfigError, match="mass at zero"):
        solve_silverstein(complex(1.0, 1.0), 0.5, DiscreteH.point_mass(0.0))


def test_solver_solves_at_the_edges_and_far_away(closed_form_m):
    # next to both support edges and out to |z| = 1e4, where the residual of a
    # solution grows with |z| against the absolute bound of 1e-10
    h = DiscreteH.point_mass(1.0)
    for y in (0.3, 0.5, 1.5):
        law = MPLaw(y=y)
        points = [complex(law.a, 1e-6), complex(law.b, 1e-6)] + [
            cmath.rect(radius, angle)
            for radius in (10.0, 1e2, 1e3, 1e4)
            for angle in (math.pi / 6, math.pi / 2, 5 * math.pi / 6)
        ]
        for z in points:
            point = solve_silverstein(z, y, h)
            assert abs(point.m - closed_form_m(z, y)) <= 1e-10 * max(1.0, abs(point.m))
            assert point.residual <= 1e-10
            assert point.m.imag > 0.0


@pytest.mark.parametrize("y", [0.3, 0.5])
@pytest.mark.parametrize(
    "h",
    [DiscreteH((1.0, 4 / 9), (0.6, 0.4)), DiscreteH(tuple(0.25 * np.arange(1, 11)), (0.1,) * 10)],
    ids=["two-block", "ten-atom"],
)
def test_solver_density_has_unit_mass_and_the_population_mean(h, y):
    # Im m(x + i eps) / pi on a strip over the whole support of F^{y,H}; by
    # hand, since numpy 1.24 has no np.trapezoid
    x = np.linspace(0.0, max(h.support) * (1.0 + math.sqrt(y)) ** 2 + 0.5, 4001)
    density = np.empty_like(x)
    for i, point in enumerate(solve_silverstein(complex(u, 1e-4), y, h) for u in x):
        assert point.residual <= 1e-10
        assert point.m.imag > 0.0
        density[i] = point.m.imag / math.pi

    def trapezoid(f):
        return float(np.sum((f[1:] + f[:-1]) * np.diff(x)) / 2.0)

    assert trapezoid(density) == pytest.approx(1.0, abs=1e-3)
    mean = math.fsum(np.multiply(h.weights, h.support))
    assert trapezoid(x * density) == pytest.approx(mean, abs=1e-3)


def test_solver_failures_are_numerical_errors(monkeypatch):
    # an atom at the smallest subnormal puts -1/t = -inf in the arrowhead matrix
    with pytest.raises(NumericalError, match="eigensolve failed"):
        solve_silverstein(complex(1.0, 1.0), 0.5, DiscreteH((5e-324, 1.0), (0.5, 0.5)))
    # a NaN defect fails the residual check instead of passing it
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.array([complex(math.nan, 1.0)]))
    with pytest.raises(NumericalError, match="residual nan"):
        solve_silverstein(complex(1.0, 1.0), 0.5, DiscreteH.point_mass(1.0))


def test_discrete_h_validation():
    DiscreteH(support=(1.0, 2.0), weights=(0.5, 0.5))
    with pytest.raises(ConfigError, match="sum to 1"):
        DiscreteH(support=(1.0, 2.0), weights=(0.5, 0.6))
    with pytest.raises(ConfigError, match="nonnegative"):
        DiscreteH(support=(1.0, 2.0), weights=(1.5, -0.5))
    with pytest.raises(ConfigError, match="finite and nonnegative"):
        DiscreteH(support=(-1.0, 2.0), weights=(0.5, 0.5))
    with pytest.raises(ConfigError, match="equal length"):
        DiscreteH(support=(1.0,), weights=(0.5, 0.5))


def test_lss_constants_reference_values():
    got = mp_lss_constants(0.5)
    assert got.center == pytest.approx(0.30685281944005469058, abs=2e-16)
    assert got.mean_shift == pytest.approx(0.34657359027997264, abs=2e-16)
    assert got.variance == pytest.approx(0.3862943611198906, abs=2e-16)


def test_lss_center_matches_quadrature():
    # independent oracle: integrate (x - log x - 1) against the density
    for z_n, ref in _CENTER_REFS:
        quad_center = _quad_against_density(lambda x: x - math.log(x) - 1.0, z_n)
        got = mp_lss_constants(z_n).center
        assert got == pytest.approx(quad_center, abs=1e-8)
        assert got == pytest.approx(ref, abs=5e-15)


def test_lss_constants_reject_wide_matrices():
    with pytest.raises(DegenerateStatisticError, match="singular with probability one"):
        mp_lss_constants(1.0)
    with pytest.raises(DegenerateStatisticError):
        mp_lss_constants(1.5)
    with pytest.raises(ConfigError):
        mp_lss_constants(0.0)
