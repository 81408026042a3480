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
* :func:`south_pole_coefficient` returns, in closed form, the amplitudes
  of the two Frobenius branches ``(pi - theta)**(+m)`` and
  ``(pi - theta)**(-m)`` at the south pole of the solution regular at the
  north pole.  Gauss's connection formula (DLMF 15.10.21) puts a factor
  ``1/Gamma(m - nu)`` on the singular amplitude, which vanishes exactly when
  ``nu - m`` is a non-negative integer: the regular/singular dichotomy in
  ``nu - m`` is an identity, not a fit.

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

from .specfun import _check_index, ln_gamma

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
    """Amplitudes of the two Frobenius branches at theta = pi.

    ``a_reg`` multiplies the regular branch ``(pi - theta)**m``, ``b_sing``
    the singular branch ``(pi - theta)**(-m)``.
    """

    a_reg: float
    b_sing: float


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
    ``m >= 0``; at ``m = 0`` it degenerates to the constant 1.  A weight
    whose profile underflows to 0 at every grid point is refused.
    """
    if not 0.0 <= m < math.inf:
        raise ValueError("weight m must be finite and non-negative")
    grid = np.asarray(grid, dtype=float)
    values = np.sin(grid) ** m
    if not values.any():
        raise ValueError(f"weight m = {m:g} is too large: (sin theta)**m is 0 at every grid point")
    return AngularFunction(m=m, theta_grid=grid, values=values)


def _ladder(f: AngularFunction, sign: float) -> AngularFunction:
    """Profile ``sign * f' - m cot(theta) f`` at weight ``m + sign``."""
    h = _uniform_spacing(f.theta_grid)
    cot = np.cos(f.theta_grid) / np.sin(f.theta_grid)
    out = sign * _derivative(f.values, h) - f.m * cot * f.values
    return AngularFunction(m=f.m + sign, theta_grid=f.theta_grid, values=out)


def apply_raising(f: AngularFunction) -> AngularFunction:
    """Raising operator: profile ``f' - m cot(theta) f`` at weight ``m + 1``."""
    return _ladder(f, 1.0)


def apply_lowering(f: AngularFunction) -> AngularFunction:
    """Lowering operator: profile ``-f' - m cot(theta) f`` at weight ``m - 1``."""
    return _ladder(f, -1.0)


def apply_casimir(f: AngularFunction) -> AngularFunction:
    """Casimir operator at fixed weight.

    Returns the profile ``-(1/sin)(sin(theta) f')' + (m**2/sin**2) f``,
    with both derivatives taken by the 4th-order stencils.  Eigenfunctions
    of weight ``m`` and degree ``nu`` return ``nu (nu + 1)`` times
    themselves, up to discretization error.
    """
    if math.isinf(f.m * f.m):
        raise ValueError(f"weight m = {f.m:g} is too large: m**2 overflows")
    h = _uniform_spacing(f.theta_grid)
    sin_t = np.sin(f.theta_grid)
    flux = sin_t * _derivative(f.values, h)
    out = -_derivative(flux, h) / sin_t + (f.m * f.m / sin_t**2) * f.values
    return AngularFunction(m=f.m, theta_grid=f.theta_grid, values=out)


def build_tesseral(m: float, k: int, grid: np.ndarray) -> AngularFunction:
    """Descend ``k`` rungs from the highest-weight state of degree ``m + k``.

    Starts from ``sectoral(m + k)`` and applies the lowering operator ``k``
    times, landing on the weight-``m`` profile with Casimir eigenvalue
    ``(m + k)(m + k + 1)``.  ``k = 0`` returns ``sectoral(m)`` itself.
    """
    _check_index("lowering count k", k, 0)
    f = sectoral(m + int(k), np.asarray(grid, dtype=float))
    for _ in range(int(k)):
        f = apply_lowering(f)
    return f


def _interior(grid: np.ndarray, *profiles: np.ndarray) -> tuple[np.ndarray, ...]:
    """theta, its sin(theta) weight and each profile on the interior window."""
    mask = interior_mask(grid)
    if np.count_nonzero(mask) < 2:
        raise ValueError("interior window holds too few samples")
    theta = grid[mask]
    return (theta, np.sin(theta), *(p[mask] for p in profiles))


def casimir_eigenvalue_estimate(f: AngularFunction) -> float:
    """Rayleigh quotient ``<f, L2 f> / <f, f>`` with sin(theta) weight.

    Trapezoidal quadrature over the interior window
    ``[POLE_MARGIN, pi - POLE_MARGIN]``.  For an eigenfunction the pointwise
    identity makes the quotient window-independent, so the window merely
    discards the pole-adjacent samples where the finite-difference Casimir
    is unreliable.
    """
    theta, weight, fv, lv = _interior(f.theta_grid, f.values, apply_casimir(f).values)
    num = np.trapezoid(fv * lv * weight, theta)
    den = np.trapezoid(fv**2 * weight, theta)
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
    theta, weight, fv, gv = _interior(f.theta_grid, f.values, g.values)
    cross = np.trapezoid(fv * gv * weight, theta)
    ff = np.trapezoid(fv * fv * weight, theta)
    gg = np.trapezoid(gv * gv * weight, theta)
    if ff == 0.0 or gg == 0.0:
        raise ValueError("cannot compare against the zero function")
    return float(abs(cross) / math.sqrt(ff * gg))


def _rgamma(z: float) -> float:
    """``1/Gamma(z)``, exactly 0 at ``z = 0`` (and ``-0.0``).

    ``south_pole_coefficient`` only asks for ``-1 < z < 2``; elsewhere this
    holds wherever ``math.gamma`` is finite, and refuses ``z = -1, -2, ...``.
    """
    return 0.0 if z == 0.0 else 1.0 / math.gamma(z)


#: From ``1 + nu`` = 1e3 on, ``south_pole_coefficient`` differences the
#: Stirling series instead of two ``ln_gamma`` values.
_STIRLING_FROM = 1e3


def _ln_gamma_ratio(z: float, m: float) -> float:
    """``ln Gamma(z - m) - ln Gamma(z + m)`` for ``0 < m < 1 <= z``.

    Two ``ln_gamma`` values of size ``z ln z`` cancel to ``-2 m ln z``, so
    from ``z = _STIRLING_FROM`` on the Stirling series (DLMF 5.11.1) is
    differenced term by term instead, with ``ln(z -+ m) = ln z + log1p(-+m/z)``:

        -2 m ln z + (z - 1/2) (l_- - l_+) - m (l_- + l_+) + 2 m
            + S(z - m) - S(z + m),    l_-+ = log1p(-+m / z),

    where ``S(w) = 1/(12 w) - 1/(360 w**3) + 1/(1260 w**5)`` omits terms
    below 1e-24.
    """
    if z < _STIRLING_FROM:
        return ln_gamma(z - m) - ln_gamma(z + m)

    def tail(w: float) -> float:
        r = 1.0 / (w * w)
        return (1.0 / 12.0 - r * (1.0 / 360.0 - r / 1260.0)) / w

    lo, hi = math.log1p(-m / z), math.log1p(m / z)
    return (-2.0 * m * math.log(z) + (z - 0.5) * (lo - hi) - m * (lo + hi) + 2.0 * m
            + tail(z - m) - tail(z + m))


def south_pole_coefficient(nu: float, m: float) -> SingularityFit:
    """Amplitudes at theta = pi of the solution regular at the north pole.

    ``legendre_theta(nu, m, theta)`` is ``(sin theta)**m F(a, b; c; u)``
    with ``a = m - nu``, ``b = m + nu + 1``, ``c = m + 1`` and
    ``u = sin**2(theta/2)``.  Gauss's connection formula (DLMF 15.8(ii),
    15.10.21) continues ``F`` to ``u = 1``, where ``c - a - b = -m``; with
    ``w = pi - theta`` and ``1 - u ~ w**2 / 4`` it gives

        f ~ a_reg w**m + b_sing w**(-m),
        a_reg  = Gamma(m+1) Gamma(-m) / (Gamma(nu+1) Gamma(-nu)),
        b_sing = 4**m Gamma(m+1) Gamma(m) / (Gamma(m-nu) Gamma(m+nu+1)).

    ``1/Gamma(m - nu)`` vanishes exactly when ``nu - m`` is a non-negative
    integer, which is the paper's condition for the series to terminate:
    the solution is then regular at both poles, and otherwise it diverges
    like ``w**(-m)``.  Each pair ``1/(Gamma(z) Gamma(1 - z)) =
    sin(pi z) / pi`` (DLMF 5.5.3) only changes sign when ``z`` moves by one,
    so it is taken at the fractional part of ``nu`` and no gamma function
    of a large argument overflows.  The ratio ``Gamma(1+nu-m) /
    Gamma(1+nu+m)`` that remains comes from :func:`_ln_gamma_ratio`, which
    keeps the relative error of ``b_sing`` near 1e-14 for every finite
    ``nu``.

    Restricted to ``0 < m < 1``, where neither ``c`` nor ``c - a - b`` is
    an integer and no branch is logarithmic.
    """
    if not 0.0 < m < 1.0:
        raise ValueError(f"weight m must lie in (0, 1), got {m}")
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"degree nu must be finite and non-negative, got {nu}")
    n = math.floor(nu)
    r = nu - n
    sign = -1.0 if n % 2 else 1.0
    gamma_m1 = math.gamma(m + 1.0)
    # 1/(Gamma(nu+1) Gamma(-nu)) = (-1)**n / (Gamma(1+r) Gamma(-r))
    a_reg = sign * gamma_m1 * math.gamma(-m) * _rgamma(1.0 + r) * _rgamma(-r)
    # 1/Gamma(m-nu) = (-1)**n Gamma(1+nu-m) / (Gamma(m-r) Gamma(1-m+r))
    b = sign * gamma_m1 * math.gamma(m) * _rgamma(m - r) * _rgamma(1.0 - m + r)
    b *= math.exp(_ln_gamma_ratio(1.0 + nu, m))
    return SingularityFit(a_reg=a_reg, b_sing=4.0**m * b)
