"""Ladder-operator numerics for azimuthal-weight functions on a colatitude grid.

Separable angular fields on the (partial) sphere take the form
``f(theta) * exp(i m phi)`` with a real weight ``m`` fixed by the boundary
conditions on the azimuthal walls.  This module realises the so(3) ladder
algebra as numerical operators acting on sampled profiles ``f(theta)``:

* :func:`sectoral` builds the highest-weight profile ``(sin theta)**m``,
  annihilated by the raising operator for every real ``m >= 0``.
* :func:`apply_raising`, :func:`apply_lowering` and :func:`apply_casimir`
  act on an :class:`AngularFunction`, shifting its weight by +1, -1 and 0
  respectively.  Derivatives use 4th-order central finite differences with
  one-sided stencils of the same order at the grid ends.
* :func:`build_tesseral` descends ``k`` rungs from the highest-weight state
  ``sectoral(m + k)``, producing the weight-``m`` profile with Casimir
  eigenvalue ``(m + k)(m + k + 1)``.
* :func:`casimir_eigenvalue_estimate` recovers that eigenvalue as a
  sin-weighted Rayleigh quotient.
* :func:`south_pole_coefficient` integrates the weight-``m`` Legendre
  equation from regular data at the north pole and fits the two Frobenius
  branches ``(pi - theta)**(+m)`` and ``(pi - theta)**(-m)`` at the south
  pole, quantifying the regular/singular dichotomy in ``nu - m``.

Finite-difference caveat: on a uniform grid the truncation error of the
stencils scales like ``h**4 * theta**(m - 5)`` against a profile that only
opens as ``theta**m``, so the few samples nearest the poles are unreliable
for non-integer weights.  Norms and quadratures meant to certify operator
identities should therefore be evaluated on the interior window
``[POLE_MARGIN, pi - POLE_MARGIN]``.  :func:`interior_mask` selects it,
and :func:`collinearity` and :func:`casimir_eigenvalue_estimate` always
integrate over it.  Restricting the Rayleigh-quotient window is exact for
eigenfunctions, since the pointwise identity ``L^2 f = lambda f`` holds on
every subinterval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AngularFunction",
    "SingularityFit",
    "POLE_CLIP",
    "POLE_MARGIN",
    "uniform_grid",
    "interior_mask",
    "sectoral",
    "apply_raising",
    "apply_lowering",
    "apply_casimir",
    "build_tesseral",
    "casimir_eigenvalue_estimate",
    "collinearity",
    "south_pole_coefficient",
]

#: Default clipping of grid endpoints away from the coordinate poles, where
#: cot(theta) and 1/sin(theta) diverge.  Sectoral values at the clipped
#: endpoints are O(POLE_CLIP**m) and do not influence interior statistics.
POLE_CLIP = 1e-4

#: Interior window margin for norms and quadratures: finite-difference
#: truncation error grows like h**4 * theta**(m-5) towards the poles, and at
#: grid sizes of a few thousand it stays below 1e-8 only for
#: theta in [POLE_MARGIN, pi - POLE_MARGIN].
POLE_MARGIN = 0.1

_MIN_GRID = 16

# south_pole_coefficient: ODE launch point, integration terminus, and the
# least-squares fitting window (inside the Frobenius radius at theta = pi,
# outside the integration endpoint).
_ODE_START = 1e-3
_FIT_NEAR = 0.01
_FIT_FAR = 0.2
_FIT_POINTS = 50


@dataclass(frozen=True, eq=False)
class AngularFunction:
    """A sampled azimuthal-weight profile ``f(theta) * exp(i m phi)``.

    Parameters
    ----------
    m : float
        Real azimuthal weight.  The ladder operators shift it by one.
    theta_grid : numpy.ndarray
        Strictly increasing colatitude samples, contained in (0, pi).
    values : numpy.ndarray
        Real samples of the profile ``f`` on ``theta_grid``.
    """

    m: float
    theta_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.theta_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or vals.shape != grid.shape:
            raise ValueError("theta_grid and values must be 1-D arrays of equal length")
        if grid.size < _MIN_GRID:
            raise ValueError(f"grid must hold at least {_MIN_GRID} points, got {grid.size}")
        if not (grid[0] > 0.0 and grid[-1] < math.pi):
            raise ValueError("theta_grid must lie strictly inside (0, pi)")
        if not np.all(np.diff(grid) > 0.0):
            raise ValueError("theta_grid must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "theta_grid", grid)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class SingularityFit:
    """Least-squares amplitudes of the two Frobenius branches at theta = pi.

    ``a_reg`` multiplies the regular branch ``(pi - theta)**m``, ``b_sing``
    the singular branch ``(pi - theta)**(-m)``.  ``residual`` is the relative
    root-mean-square misfit of the two-branch model over the fitting window.
    """

    a_reg: float
    b_sing: float
    residual: float

    def __post_init__(self) -> None:
        if self.residual < 0.0:
            raise ValueError("residual must be non-negative")


def uniform_grid(size: int) -> np.ndarray:
    """Uniform colatitude grid on [POLE_CLIP, pi - POLE_CLIP].

    Parameters
    ----------
    size : int
        Number of samples, at least 16.
    """
    if size < _MIN_GRID:
        raise ValueError(f"grid must hold at least {_MIN_GRID} points, got {size}")
    return np.linspace(POLE_CLIP, math.pi - POLE_CLIP, size)


def _uniform_spacing(grid: np.ndarray) -> float:
    """Return the common spacing of a uniform grid, or raise."""
    steps = np.diff(grid)
    h = float(steps[0])
    if not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise ValueError("finite-difference stencils require a uniform grid")
    return h


def _derivative(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order first derivative on a uniform grid.

    Five-point central stencil in the interior; 4th-order one-sided
    five-point stencils at the two samples nearest each end.
    """
    v = values
    d = np.empty_like(v)
    d[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    d[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * h)
    d[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * h)
    d[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / (12.0 * h)
    d[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * h)
    return d


def interior_mask(grid: np.ndarray) -> np.ndarray:
    """Boolean mask selecting samples with theta in [POLE_MARGIN, pi - POLE_MARGIN]."""
    return (grid >= POLE_MARGIN) & (grid <= math.pi - POLE_MARGIN)


def sectoral(m: float, grid: np.ndarray) -> AngularFunction:
    """Highest-weight profile ``(sin theta)**m`` at weight ``m``.

    The raising operator annihilates this profile for every real
    ``m >= 0``; at ``m = 0`` it degenerates to the constant 1.
    """
    if m < 0.0:
        raise ValueError("weight m must be non-negative")
    grid = np.asarray(grid, dtype=float)
    return AngularFunction(m=m, theta_grid=grid, values=np.sin(grid) ** m)


def apply_raising(f: AngularFunction) -> AngularFunction:
    """Raising operator: profile ``f' - m cot(theta) f`` at weight ``m + 1``."""
    h = _uniform_spacing(f.theta_grid)
    cot = np.cos(f.theta_grid) / np.sin(f.theta_grid)
    out = _derivative(f.values, h) - f.m * cot * f.values
    return AngularFunction(m=f.m + 1.0, theta_grid=f.theta_grid, values=out)


def apply_lowering(f: AngularFunction) -> AngularFunction:
    """Lowering operator: profile ``-f' - m cot(theta) f`` at weight ``m - 1``."""
    h = _uniform_spacing(f.theta_grid)
    cot = np.cos(f.theta_grid) / np.sin(f.theta_grid)
    out = -_derivative(f.values, h) - f.m * cot * f.values
    return AngularFunction(m=f.m - 1.0, theta_grid=f.theta_grid, values=out)


def apply_casimir(f: AngularFunction) -> AngularFunction:
    """Casimir operator at fixed weight.

    Returns the profile ``-(1/sin)(sin(theta) f')' + (m**2/sin**2) f``,
    with both derivatives taken by the 4th-order stencils.  Eigenfunctions
    of weight ``m`` and degree ``nu`` return ``nu (nu + 1)`` times
    themselves, up to discretization error.
    """
    h = _uniform_spacing(f.theta_grid)
    sin_t = np.sin(f.theta_grid)
    flux = sin_t * _derivative(f.values, h)
    out = -_derivative(flux, h) / sin_t + (f.m**2 / sin_t**2) * f.values
    return AngularFunction(m=f.m, theta_grid=f.theta_grid, values=out)


def build_tesseral(m: float, k: int, grid: np.ndarray) -> AngularFunction:
    """Descend ``k`` rungs from the highest-weight state of degree ``m + k``.

    Starts from ``sectoral(m + k)`` and applies the lowering operator ``k``
    times, landing on the weight-``m`` profile with Casimir eigenvalue
    ``(m + k)(m + k + 1)``.  ``k = 0`` returns ``sectoral(m)`` itself.
    """
    if k < 0 or k != int(k):
        raise ValueError("k must be a non-negative integer")
    f = sectoral(m + int(k), np.asarray(grid, dtype=float))
    for _ in range(int(k)):
        f = apply_lowering(f)
    return f


def casimir_eigenvalue_estimate(f: AngularFunction) -> float:
    """Rayleigh quotient ``<f, L2 f> / <f, f>`` with sin(theta) weight.

    Trapezoidal quadrature over the interior window
    ``[POLE_MARGIN, pi - POLE_MARGIN]``.  For an eigenfunction the pointwise
    identity makes the quotient window-independent, so the window merely
    discards the pole-adjacent samples where the finite-difference Casimir
    is unreliable.
    """
    lf = apply_casimir(f)
    mask = interior_mask(f.theta_grid)
    if np.count_nonzero(mask) < 2:
        raise ValueError("interior window holds too few samples")
    theta = f.theta_grid[mask]
    weight = np.sin(theta)
    num = np.trapezoid(f.values[mask] * lf.values[mask] * weight, theta)
    den = np.trapezoid(f.values[mask] ** 2 * weight, theta)
    if den == 0.0:
        raise ValueError("cannot form a Rayleigh quotient for the zero function")
    return float(num / den)


def collinearity(f: AngularFunction, g: AngularFunction) -> float:
    """Cosine similarity of two profiles under the sin(theta) inner product.

    Both functions must share a grid.  Returns
    ``|<f, g>| / (||f|| ||g||)`` with trapezoidal quadrature over the
    interior window ``[POLE_MARGIN, pi - POLE_MARGIN]``; 1 means proportional.
    """
    if f.theta_grid.shape != g.theta_grid.shape or not np.array_equal(
        f.theta_grid, g.theta_grid
    ):
        raise ValueError("profiles must share a theta grid")
    mask = interior_mask(f.theta_grid)
    if np.count_nonzero(mask) < 2:
        raise ValueError("interior window holds too few samples")
    theta = f.theta_grid[mask]
    weight = np.sin(theta)
    fv = f.values[mask]
    gv = g.values[mask]
    cross = np.trapezoid(fv * gv * weight, theta)
    ff = np.trapezoid(fv * fv * weight, theta)
    gg = np.trapezoid(gv * gv * weight, theta)
    if ff == 0.0 or gg == 0.0:
        raise ValueError("cannot compare against the zero function")
    return float(abs(cross) / math.sqrt(ff * gg))


def south_pole_coefficient(nu: float, m: float) -> SingularityFit:
    """Launch the regular north-pole solution and fit both branches at pi.

    Integrates the weight-``m`` Legendre equation

        f'' + cot(theta) f' + (nu(nu+1) - m**2/sin**2(theta)) f = 0

    from ``theta = 1e-3`` with the regular initial data ``f = theta**m``,
    ``f' = m theta**(m-1)`` (adaptive RK45, relative tolerance 1e-10), then
    least-squares fits ``a_reg (pi-theta)**m + b_sing (pi-theta)**(-m)``
    over 50 samples of ``theta in [pi - 0.2, pi - 0.01]``.  A vanishing
    ``b_sing`` signals a solution regular at both poles, which occurs
    exactly when ``nu - m`` is a non-negative integer.

    Each Frobenius branch at theta = pi is really a power times a function
    analytic in ``(pi - theta)**2``.  Fitting the two bare powers alone
    leaves that analytic correction (a few percent across the window) to be
    absorbed by the amplitudes, polluting ``b_sing`` at the 1e-4 level and
    washing out the dichotomy; the design matrix therefore carries two
    correction orders per branch, ``w**(p+2)`` and ``w**(p+4)``, while
    ``a_reg`` and ``b_sing`` remain the leading-power amplitudes.

    Restricted to ``0 < m < 1`` so that the two exponents ``+m`` and ``-m``
    straddle zero and the branches are cleanly distinguishable on the
    fitting window.
    """
    if not 0.0 < m < 1.0:
        raise ValueError("fit basis requires 0 < m < 1")
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"degree nu must be finite and non-negative, got {nu}")
    # imported here: scipy costs more to import than the rest of the package
    from scipy.integrate import solve_ivp

    lam = nu * (nu + 1.0)

    def rhs(theta: float, y: np.ndarray) -> list[float]:
        sin_t = math.sin(theta)
        cot = math.cos(theta) / sin_t
        return [y[1], -cot * y[1] - (lam - m**2 / sin_t**2) * y[0]]

    theta_fit = np.linspace(math.pi - _FIT_FAR, math.pi - _FIT_NEAR, _FIT_POINTS)
    y0 = [_ODE_START**m, m * _ODE_START ** (m - 1.0)]
    sol = solve_ivp(
        rhs,
        (_ODE_START, math.pi - _FIT_NEAR),
        y0,
        method="RK45",
        rtol=1e-10,
        atol=1e-13,
        t_eval=theta_fit,
        dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"pole-to-pole integration failed: {sol.message}")

    w = math.pi - sol.t
    design = np.column_stack(
        (w**m, w ** (m + 2.0), w ** (m + 4.0), w ** (-m), w ** (2.0 - m), w ** (4.0 - m))
    )
    coef, *_ = np.linalg.lstsq(design, sol.y[0], rcond=None)
    misfit = design @ coef - sol.y[0]
    scale = float(np.linalg.norm(sol.y[0]))
    residual = float(np.linalg.norm(misfit)) / scale if scale > 0.0 else 0.0
    return SingularityFit(a_reg=float(coef[0]), b_sing=float(coef[3]), residual=residual)
