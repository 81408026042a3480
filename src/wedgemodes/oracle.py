"""Independent brute-force checks for the analytic machinery.

Two deliberately-simple cross-checks that share no code path with the
primary implementations:

* ``legendre_spectrum_fd`` -- a second-order finite-difference
  Sturm-Liouville eigensolver for the theta-equation, confirming that the
  eigenvalue ladder sits at nu = m + k without any ladder-operator or
  hypergeometric machinery.
* ``bessel_series_reference`` -- the ascending Bessel series accumulated
  in the standard library's ``decimal`` at 40 significant digits,
  certifying series values to well beyond double precision so
  cancellation bugs in the fast path cannot hide.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import ln_gamma

__all__ = ["EigenResult", "legendre_spectrum_fd", "bessel_series_reference"]


# ---------------------------------------------------------------------------
# Finite-difference eigensolver for the theta-equation
# ---------------------------------------------------------------------------

_FD_EPS = 1e-3  # Dirichlet truncation distance from the poles


@dataclass(frozen=True)
class EigenResult:
    """Lowest eigenvalues of the theta-equation at azimuthal weight m."""

    m: float
    lambdas: tuple[float, ...]
    grid_size: int

    @property
    def nus(self) -> tuple[float, ...]:
        """Eigen-indices nu, recovered from lambda = nu (nu + 1)."""
        return tuple(0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * lam)) for lam in self.lambdas)


def legendre_spectrum_fd(m: float, grid_size: int, count: int) -> EigenResult:
    """Lowest `count` eigenvalues of the singular Sturm-Liouville problem.

    Discretizes -(1/sin t)(sin t u')' + (m^2/sin^2 t) u = lambda u on
    [eps, pi - eps] with eps = 1e-3 and homogeneous Dirichlet ends (the
    regular solutions vanish like t^m for m > 0).  Conservative central
    differences in flux form give a generalized symmetric problem
    A u = lambda B u with diagonal B = sin(t); the similarity transform
    B^(-1/2) A B^(-1/2) keeps it symmetric tridiagonal.
    """
    if grid_size < 500:
        raise ValueError(f"grid_size must be >= 500, got {grid_size}")
    if not 1 <= count <= grid_size:
        raise ValueError(f"count must lie in [1, grid_size = {grid_size}], got {count}")
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError(f"m must be finite and > 0 on the truncated interval, got {m}")
    n = int(grid_size)
    h = (math.pi - 2.0 * _FD_EPS) / (n + 1)
    # the end nodes carry the largest diagonal entry, about m^2 / sin^2(theta_1);
    # keeping it far below overflow keeps every lambda and nu finite
    if not m * m / math.sin(_FD_EPS + h) ** 2 <= 1e300:
        raise ValueError(f"m = {m:g} overflows the finite-difference operator")
    # imported here so that importing this module, or a refusal, loads no scipy
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    theta = _FD_EPS + h * np.arange(1, n + 1)
    sin_t = np.sin(theta)
    s_minus = np.sin(theta - 0.5 * h)
    s_plus = np.sin(theta + 0.5 * h)

    diag_a = (s_minus + s_plus) / h**2 + m**2 / sin_t
    off_a = -s_plus[:-1] / h**2  # couples node i to node i+1

    diag = diag_a / sin_t
    off = off_a / np.sqrt(sin_t[:-1] * sin_t[1:])

    lambdas = eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, count - 1)
    )
    return EigenResult(m=float(m), lambdas=tuple(float(v) for v in lambdas), grid_size=n)


# ---------------------------------------------------------------------------
# 40-digit decimal series reference for Bessel J
# ---------------------------------------------------------------------------


def bessel_series_reference(nu: float, x: float, terms: int) -> float:
    """Ascending Bessel series accumulated in 40-digit decimal arithmetic.

    Evaluates the same series as the fast path, but q = (x/2)^2, each
    divisor k (k + nu), every term and the running sum are ``Decimal``
    values at 40 significant digits, so the alternating-sum cancellation
    that limits the double-precision path (about 7 digits at x = 20) costs
    nothing visible; one ``float()`` rounds the result.  The leading
    coefficient (x/2)^nu / Gamma(nu+1) is taken in working precision: it
    scales the whole series uniformly and is shared with the fast path, so
    the comparison isolates accumulation error.  Used to certify series
    values recorded in the test fixtures.
    """
    if terms < 40:
        raise ValueError(f"terms must be >= 40, got {terms}")
    if not 0.0 < x <= 20.0:
        raise ValueError(f"reference domain is 0 < x <= 20, got x={x}")
    half_x = 0.5 * x
    t0 = math.exp(nu * math.log(half_x) - ln_gamma(nu + 1.0))
    # imported here so that no CLI command loads decimal
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 40
        q = Decimal(half_x) * Decimal(half_x)
        order = Decimal(nu)
        stop = Decimal("1e-34")
        term = total = Decimal(t0)
        for k in range(1, terms + 1):
            term = -term * q / (k * (k + order))
            total += term
            if abs(term) < stop * abs(total):
                break
        return float(total)
