r"""Marchenko--Pastur laws, Stieltjes transforms, and CLT constants.

Three groups of tools live here:

* the closed-form Marchenko--Pastur (MP) family with concentration index
  ``y`` at unit scale: density, distribution function (atom at the origin
  included when ``y > 1``), and support edges;
* a direct solver of Silverstein's equation for the Stieltjes transform of
  the limiting spectral distribution when the population spectrum is a
  general discrete distribution ``H``, together with the companion
  transform: the equation is a secular equation whose roots are the
  eigenvalues of an arrowhead matrix, and its one root in the upper
  half-plane is the solution;
* the centering / mean / variance constants of the linear spectral statistic
  :math:`x - \log x - 1` under the MP law, which standardize the
  log-likelihood-ratio identity test.

The laws are at unit scale, the scale of an estimate divided by its null
level.  The law at scale ``s`` is a change of variable: its cdf at ``x`` is
``mp_cdf(x / s, MPLaw(y))`` and its density ``mp_pdf(x / s, MPLaw(y)) / s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from ._blas import kernel_scope
from .errors import (
    ConfigError, DegenerateStatisticError, NumericalError, _complex, _real, _sequence,
)

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

_RESIDUAL_TOL = 1e-10  # absolute bound on the defect of Silverstein's equations


@dataclass(frozen=True)
class MPLaw:
    """Unit-scale Marchenko--Pastur law with concentration ``y > 0``.

    Derived fields: support edges ``a = (1 - sqrt(y))**2`` and
    ``b = (1 + sqrt(y))**2`` and the point mass ``atom = 1 - 1/y`` at the
    origin (zero when ``y <= 1``).  The real rule of :mod:`spotspectra.errors` reads ``y``.
    """

    y: float
    a: float = field(init=False)
    b: float = field(init=False)
    atom: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", _real(self.y, "y must be finite and positive", positive=True))
        root = math.sqrt(self.y)
        object.__setattr__(self, "a", (1.0 - root) ** 2)
        object.__setattr__(self, "b", (1.0 + root) ** 2)
        object.__setattr__(self, "atom", max(1.0 - 1.0 / self.y, 0.0))


def _atan2(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # math.atan2 per element: np.arctan2 may differ from it in the last bit.
    return np.fromiter(map(math.atan2, num.tolist(), den.tolist()), float, num.size)


def mp_pdf(x: Union[float, np.ndarray], law: MPLaw) -> Union[float, np.ndarray]:
    """Density of the absolutely continuous part of the MP law at ``x``.

    Vanishes outside the open interval ``(a, b)`` (and at the origin); the
    ``y > 1`` point mass at zero is reported by ``law.atom``, not here.
    Accepts scalars or arrays.
    """
    u = np.asarray(x, dtype=float)
    inside = (u > law.a) & (u < law.b) & (u > 0.0)
    safe = np.where(inside, u, 1.0)
    dens = np.sqrt(np.maximum((law.b - safe) * (safe - law.a), 0.0)) / (
        2.0 * np.pi * law.y * safe
    )
    out = np.where(inside, dens, 0.0)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def mp_cdf(x: Union[float, np.ndarray], law: MPLaw) -> Union[float, np.ndarray]:
    """Distribution function of the MP law at ``x`` (atom at 0 included).

    Accepts scalars or arrays and returns a ``float`` for a scalar.  Exactly 0
    below the support, exactly 1 at and above the upper edge; in between the
    bulk mass is the closed form of Bai & Silverstein (2010, ch. 3).  With
    ``lo = x - a`` and ``hi = b - x`` it reads

    .. math:: \\frac{\\sqrt{lo \\cdot hi} + 2(1 + y)\\operatorname{atan2}(\\sqrt{lo}, \\sqrt{hi})
              - 2|1 - y|\\operatorname{atan2}(\\sqrt{b \\cdot lo}, \\sqrt{a \\cdot hi})}{2 \\pi y},

    whose last term vanishes at ``y = 1`` (``a = 0``).  The ``atan2`` form
    keeps full precision next to both edges, where ``arcsin`` of a rounded
    ratio loses about ``1e-8``.
    """
    u = np.asarray(x, dtype=float)
    y, a, b = law.y, law.a, law.b
    flat, top = u <= a, u >= b
    out = np.where(top, 1.0, np.where(u < 0.0, 0.0, law.atom))
    inside = ~(flat | top)  # a NaN lands here and stays NaN
    lo, hi = u[inside] - a, b - u[inside]
    bulk = (
        np.sqrt(lo * hi)
        + 2.0 * (1.0 + y) * _atan2(np.sqrt(lo), np.sqrt(hi))
        - 2.0 * abs(1.0 - y) * _atan2(np.sqrt(b * lo), np.sqrt(a * hi))
    )
    out[inside] = np.minimum(law.atom + bulk / (2.0 * math.pi * y), 1.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DiscreteH:
    """Discrete population spectral distribution: mass ``weights[j]`` at ``support[j]``,
    each entry stored as a ``float`` by the real rule of :mod:`spotspectra.errors`."""

    support: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        for name, entries in (("support", "support points"), ("weights", "weights")):
            entry = f"{entries} must be finite and nonnegative"
            values = _sequence(getattr(self, name), name, lambda v: _real(v, entry))
            object.__setattr__(self, name, values)
        if len(self.support) != len(self.weights):
            raise ConfigError(f"support and weights must have equal length, "
                              f"got {len(self.support)} and {len(self.weights)}")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"weights must sum to 1 within 1e-12, got {total!r}")

    @classmethod
    def point_mass(cls, tau: float) -> "DiscreteH":
        """All population eigenvalues equal to ``tau``."""
        return cls(support=(tau,), weights=(1.0,))


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


def solve_silverstein(z: complex, y: float, h: DiscreteH) -> StieltjesPoint:
    """Solve Silverstein's equation at one upper-half-plane point.

    The companion transform ``m_under`` satisfies

    .. math:: z = -\\frac{1}{\\underline{m}} + y \\sum_j \\frac{w_j t_j}{1 + t_j \\underline{m}}.

    Over the K atoms with ``t_j > 0`` and ``w_j > 0`` (the others add no
    term), with ``s_j = -1/t_j``, ``W = sum_j w_j``, ``alpha = (yW - 1)/z``
    and ``b_j = y w_j s_j / z``, it is the secular equation
    ``m_under - alpha - sum_j b_j / (m_under - s_j) = 0``.  Its K + 1 roots
    are the eigenvalues of the arrowhead matrix with diagonal ``(s, alpha)``,
    last column ``b`` and last row ones, and for ``Im z > 0`` exactly one
    lies in the upper half-plane (Silverstein & Bai 1995, J. Multivariate
    Anal. 54): the solution is the eigenvalue with the largest imaginary part.

    Raises
    ------
    ConfigError
        If ``z`` is not a complex number by the complex rule of
        :mod:`spotspectra.errors`, ``Im z <= 0``, ``y <= 0``, or ``h`` puts all its mass at zero
        (the ensemble degenerates to a point mass and the equation carries
        no information).
    NumericalError
        If the eigenvalue solve fails (a non-finite matrix included), no
        root lies in the upper half-plane, or the root does not satisfy the
        defining equations to ``1e-10``.
    """
    point = "z must be a finite point with Im z > 0"
    z = _complex(z, point)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)) or z.imag <= 0.0:
        raise ConfigError(f"{point}, got {z!r}")
    y = _real(y, "y must be finite and positive", positive=True)
    t = np.asarray(h.support, dtype=float)
    w = np.asarray(h.weights, dtype=float)
    keep = (t > 0.0) & (w > 0.0)
    if not keep.any():
        raise ConfigError(
            "population spectrum has all mass at zero: limiting spectrum degenerate"
        )

    with kernel_scope():  # one LAPACK thread; -1/t and b overflow to inf for extreme atoms
        s = -1.0 / t[keep]
        arrow = np.diag(np.append(s, (y * math.fsum(w[keep]) - 1.0) / z))
        arrow[:-1, -1] = y * w[keep] * s / z
        arrow[-1, :-1] = 1.0
        try:
            roots = np.linalg.eigvals(arrow)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Silverstein eigensolve failed at z = {z!r}: {exc}") from None
        mu = complex(roots[np.argmax(roots.imag)])
        if not mu.imag > 0.0:
            raise NumericalError(f"Silverstein equation has no root with Im > 0 at z = {z!r}")
        m = (mu + (1.0 - y) / z) / y
        res_under = abs(z + 1.0 / mu - y * complex(np.sum(w * t / (1.0 + t * mu))))
        res_m = abs(m - complex(np.sum(w / (t * (1.0 - y * (1.0 + z * m)) - z))))
    residual = float(np.maximum(res_under, res_m))  # a NaN defect stays NaN
    if not residual <= _RESIDUAL_TOL:
        raise NumericalError(
            f"Silverstein solution at z = {z!r} has residual {residual:.3e} > "
            f"{_RESIDUAL_TOL:.1e}"
        )
    if m.imag <= 0.0:
        raise NumericalError(
            f"recovered Stieltjes transform lies outside the upper half-plane: {m!r}"
        )
    return StieltjesPoint(z=z, m=m, m_under=mu, residual=residual)


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
    z_n = _real(z_n, "z_n must be finite and positive", positive=True)
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
