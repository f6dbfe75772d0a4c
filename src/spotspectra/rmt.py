r"""Marchenko--Pastur laws, Stieltjes transforms, and CLT constants.

Three groups of tools live here:

* the closed-form Marchenko--Pastur (MP) family with concentration index
  ``y`` and scale ``sigma2``: density, distribution function (atom at the
  origin included when ``y > 1``), and support edges;
* a damped fixed-point solver for the Stieltjes transform of the limiting
  spectral distribution when the population spectrum is a general discrete
  distribution ``H`` (Silverstein's equation), together with the companion
  transform of the singular-value ensemble;
* the centering / mean / variance constants of the linear spectral statistic
  :math:`x - \log x - 1` under the MP law, which standardize the
  log-likelihood-ratio identity test.

All distribution-function evaluations reduce internally to the unit-scale
law, so ``mp_cdf(x, MPLaw(y, s)) == mp_cdf(x / s, MPLaw(y, 1))`` holds
exactly, not just approximately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .errors import ConfigError, DegenerateStatisticError, NumericalError

__all__ = [
    "MPLaw",
    "DiscreteH",
    "StieltjesPoint",
    "LssConstants",
    "mp_pdf",
    "mp_cdf",
    "solve_silverstein",
    "mp_lss_constants",
]

# Fixed-point iteration controls for the Silverstein solver.
_FP_TOL = 1e-12
_FP_MAX_ITER = 10_000
_FP_DAMPINGS = (0.5, 0.25)
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class MPLaw:
    """Marchenko--Pastur law with concentration ``y > 0`` and scale ``sigma2 > 0``.

    Derived fields: support edges ``a = sigma2*(1 - sqrt(y))**2`` and
    ``b = sigma2*(1 + sqrt(y))**2`` and the point mass ``atom = 1 - 1/y`` at
    the origin (zero when ``y <= 1``).
    """

    y: float
    sigma2: float = 1.0
    a: float = field(init=False)
    b: float = field(init=False)
    atom: float = field(init=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.y) or self.y <= 0.0:
            raise ConfigError(f"y must be finite and positive, got {self.y!r}")
        if not math.isfinite(self.sigma2) or self.sigma2 <= 0.0:
            raise ConfigError(f"sigma2 must be finite and positive, got {self.sigma2!r}")
        root = math.sqrt(self.y)
        object.__setattr__(self, "a", self.sigma2 * (1.0 - root) ** 2)
        object.__setattr__(self, "b", self.sigma2 * (1.0 + root) ** 2)
        object.__setattr__(self, "atom", max(1.0 - 1.0 / self.y, 0.0))


def _unit_edges(y: float) -> tuple[float, float]:
    root = math.sqrt(y)
    return (1.0 - root) ** 2, (1.0 + root) ** 2


def _atan2(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # math.atan2 per element: np.arctan2 may differ from it in the last bit.
    return np.fromiter(map(math.atan2, num.tolist(), den.tolist()), float, num.size)


def mp_pdf(x: Union[float, np.ndarray], law: MPLaw) -> Union[float, np.ndarray]:
    """Density of the absolutely continuous part of the MP law at ``x``.

    Vanishes outside the open interval ``(a, b)`` (and at the origin); the
    ``y > 1`` point mass at zero is reported by ``law.atom``, not here.
    Accepts scalars or arrays.
    """
    u = np.asarray(x, dtype=float) / law.sigma2
    ua, ub = _unit_edges(law.y)
    inside = (u > ua) & (u < ub) & (u > 0.0)
    safe = np.where(inside, u, 1.0)
    dens = np.sqrt(np.maximum((ub - safe) * (safe - ua), 0.0)) / (
        2.0 * np.pi * law.y * safe
    )
    out = np.where(inside, dens, 0.0) / law.sigma2
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def mp_cdf(x: Union[float, np.ndarray], law: MPLaw) -> Union[float, np.ndarray]:
    """Distribution function of the MP law at ``x`` (atom at 0 included).

    Accepts scalars or arrays and returns a ``float`` for a scalar.  Exactly 0
    below the support, exactly 1 at and above the upper edge; in between the
    bulk mass is the closed form of Bai & Silverstein (2010, ch. 3).  With
    ``lo = u - a`` and ``hi = b - u`` at unit scale it reads

    .. math:: \\frac{\\sqrt{lo \\cdot hi} + 2(1 + y)\\operatorname{atan2}(\\sqrt{lo}, \\sqrt{hi})
              - 2|1 - y|\\operatorname{atan2}(\\sqrt{b \\cdot lo}, \\sqrt{a \\cdot hi})}{2 \\pi y},

    whose last term vanishes at ``y = 1`` (``a = 0``).  The ``atan2`` form
    keeps full precision next to both edges, where ``arcsin`` of a rounded
    ratio loses about ``1e-8``.
    """
    u = np.asarray(x, dtype=float) / law.sigma2
    y = law.y
    ua, ub = _unit_edges(y)
    flat, top = u <= ua, u >= ub
    out = np.where(top, 1.0, np.where(u < 0.0, 0.0, law.atom))
    inside = ~(flat | top)  # a NaN lands here and stays NaN
    lo, hi = u[inside] - ua, ub - u[inside]
    bulk = (
        np.sqrt(lo * hi)
        + 2.0 * (1.0 + y) * _atan2(np.sqrt(lo), np.sqrt(hi))
        - 2.0 * abs(1.0 - y) * _atan2(np.sqrt(ub * lo), np.sqrt(ua * hi))
    )
    out[inside] = np.minimum(law.atom + bulk / (2.0 * math.pi * y), 1.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DiscreteH:
    """Discrete population spectral distribution: mass ``weights[j]`` at ``support[j]``."""

    support: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        support = tuple(float(t) for t in self.support)
        weights = tuple(float(w) for w in self.weights)
        if len(support) == 0 or len(support) != len(weights):
            raise ConfigError(
                f"support and weights must be nonempty and equal length, "
                f"got {len(support)} and {len(weights)}"
            )
        if any(not math.isfinite(t) or t < 0.0 for t in support):
            raise ConfigError("support points must be finite and nonnegative")
        if any(not math.isfinite(w) or w < 0.0 for w in weights):
            raise ConfigError("weights must be finite and nonnegative")
        total = math.fsum(weights)
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"weights must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def point_mass(cls, tau: float) -> "DiscreteH":
        """All population eigenvalues equal to ``tau``."""
        return cls(support=(float(tau),), weights=(1.0,))


@dataclass(frozen=True)
class StieltjesPoint:
    """Solution of the limiting-spectrum equations at one complex point.

    ``m`` is the Stieltjes transform of the limiting spectral distribution of
    the covariance-type ensemble; ``m_under`` is the companion transform
    (the two are linked by ``m_under = y*m - (1 - y)/z``).  ``residual`` is
    the largest defect of the defining equations at the returned solution.
    """

    z: complex
    m: complex
    m_under: complex
    residual: float
    iterations: int


def solve_silverstein(z: complex, y: float, h: DiscreteH) -> StieltjesPoint:
    """Solve Silverstein's fixed-point equation at one upper-half-plane point.

    The companion transform ``m_under`` satisfies

    .. math:: z = -\\frac{1}{\\underline{m}} + y \\sum_j \\frac{w_j t_j}{1 + t_j \\underline{m}},

    which is iterated in damped fixed-point form starting from ``-1/z``.
    The map preserves the upper half-plane, so with damping the iteration is
    a contraction away from the support edges.

    Raises
    ------
    ConfigError
        If ``Im z <= 0``, ``y <= 0``, or ``h`` puts all its mass at zero
        (the ensemble degenerates to a point mass and the equation carries
        no information).
    NumericalError
        If the iteration fails to converge or the converged point does not
        satisfy the defining equations to ``1e-10``.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)) or z.imag <= 0.0:
        raise ConfigError(f"z must be a finite point with Im z > 0, got {z!r}")
    if not math.isfinite(y) or y <= 0.0:
        raise ConfigError(f"y must be finite and positive, got {y!r}")
    t = np.asarray(h.support, dtype=float)
    w = np.asarray(h.weights, dtype=float)
    if float(np.max(t * (w > 0.0))) == 0.0:
        raise ConfigError(
            "population spectrum has all mass at zero: limiting spectrum degenerate"
        )

    def fixed_point_map(mu: complex) -> complex:
        shifted = y * complex(np.sum(w * t / (1.0 + t * mu)))
        return -1.0 / (z - shifted)

    mu = None
    iterations = 0
    for damping in _FP_DAMPINGS:
        candidate = -1.0 / z
        failed = False
        for it in range(1, _FP_MAX_ITER + 1):
            nxt = (1.0 - damping) * candidate + damping * fixed_point_map(candidate)
            if not (math.isfinite(nxt.real) and math.isfinite(nxt.imag)) or nxt.imag <= 0.0:
                failed = True  # left the upper half-plane; retry more cautiously
                break
            step = abs(nxt - candidate)
            candidate = nxt
            if step < _FP_TOL:
                break
        else:
            failed = True
        if not failed:
            mu = candidate
            iterations = it
            break
    if mu is None:
        raise NumericalError(
            f"Silverstein iteration failed to converge at z = {z!r} "
            f"after {_FP_MAX_ITER} steps per damping level"
        )

    m = (mu + (1.0 - y) / z) / y
    res_under = abs(z + 1.0 / mu - y * complex(np.sum(w * t / (1.0 + t * mu))))
    res_m = abs(m - complex(np.sum(w / (t * (1.0 - y * (1.0 + z * m)) - z))))
    residual = max(res_under, res_m)
    if residual > _RESIDUAL_TOL:
        raise NumericalError(
            f"Silverstein solution at z = {z!r} has residual {residual:.3e} > "
            f"{_RESIDUAL_TOL:.1e}"
        )
    if m.imag <= 0.0:
        raise NumericalError(
            f"recovered Stieltjes transform lies outside the upper half-plane: {m!r}"
        )
    return StieltjesPoint(z=z, m=m, m_under=mu, residual=residual, iterations=iterations)


class LssConstants(NamedTuple):
    """CLT constants of the statistic ``x - log(x) - 1`` under an MP law."""

    center: float
    mean_shift: float
    variance: float


def mp_lss_constants(z_n: float) -> LssConstants:
    """Centering, mean, and variance constants at concentration ``z_n``.

    For ``g(x) = x - log(x) - 1`` under the unit-scale MP law with index
    ``z_n`` in ``(0, 1)``:

    * ``center`` -- MP expectation of ``g``:
      ``1 + (1/z_n - 1) * log(1 - z_n)``;
    * ``mean_shift`` -- asymptotic mean of the centered statistic:
      ``-log(1 - z_n) / 2``;
    * ``variance`` -- asymptotic variance: ``-2*log(1 - z_n) - 2*z_n``.

    Raises
    ------
    DegenerateStatisticError
        If ``z_n >= 1``: the log statistic does not exist because the sample
        matrix is singular with probability one.
    """
    if not math.isfinite(z_n) or z_n <= 0.0:
        raise ConfigError(f"z_n must be finite and positive, got {z_n!r}")
    if z_n >= 1.0:
        raise DegenerateStatisticError(
            f"aspect ratio z_n = {z_n!r} >= 1: estimator singular with "
            "probability one, log-spectral constants undefined"
        )
    lg = math.log1p(-z_n)
    center = 1.0 + (1.0 / z_n - 1.0) * lg
    mean_shift = -lg / 2.0
    variance = -2.0 * lg - 2.0 * z_n
    return LssConstants(center=center, mean_shift=mean_shift, variance=variance)
