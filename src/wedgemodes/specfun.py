"""Real-order special functions built from power series.

Everything the mode solver needs is evaluated from scratch in double
precision: log-gamma, the cylinder Bessel function J of real order, the
spherical Bessel function j_nu, the Riccati-Bessel derivative d/dx[x j_nu],
and the associated-Legendre theta-solution regular at the north pole.

Both power series stop once a term falls below 1e-15 of the partial sum
and raise ConvergenceError if that takes more than 200 terms.

Public surface:
    ConvergenceError   -- raised when a series fails to settle
    ln_gamma(z)
    bessel_j(order, x)
    spherical_j(nu, x)
    riccati_derivative(nu, x)
    legendre_theta(nu, m, theta)
"""
from __future__ import annotations

import math

__all__ = [
    "ConvergenceError",
    "ln_gamma",
    "bessel_j",
    "spherical_j",
    "riccati_derivative",
    "legendre_theta",
]

BESSEL_X_MAX = 40.0

_SERIES_MAX_TERMS = 200
_SERIES_REL_TOL = 1e-15


class ConvergenceError(ArithmeticError):
    """A power series did not reach its tolerance within its term limit."""


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------

# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LN_2PI = 0.91893853320467274178
_EULER_GAMMA = 0.57721566490153286061

# zeta(k) - 1 for k = 2..26; coefficients of the shifted Taylor series of
# ln Gamma around its zeros at z = 1 and z = 2.
_ZETA_M1 = (
    0.64493406684822643647,
    0.2020569031595942854,
    0.082323233711138191516,
    0.036927755143369926331,
    0.017343061984449139715,
    0.0083492773819228268398,
    0.0040773561979443393787,
    0.0020083928260822144179,
    0.00099457512781808533715,
    0.0004941886041194645587,
    0.00024608655330804829864,
    0.00012271334757848914675,
    0.000061248135058704829259,
    0.000030588236307020493552,
    0.000015282259408651871733,
    7.6371976378997622736e-6,
    3.8172932649998398565e-6,
    1.9082127165539389257e-6,
    9.5396203387279611315e-7,
    4.7693298678780646312e-7,
    2.3845050272773299e-7,
    1.1921992596531107307e-7,
    5.9608189051259479612e-8,
    2.9803503514652280186e-8,
    1.4901554828365041235e-8,
)


def _lgamma_taylor_sum(eps: float) -> float:
    """sum_{k>=2} (-1)^k (zeta(k)-1) eps^k / k, |eps| <= 0.25."""
    total = 0.0
    p = -eps
    for k, z in enumerate(_ZETA_M1, start=2):
        p *= -eps
        # p = (-1)^k eps^k
        total += z * p / k
    return total


def _lanczos_ln_gamma(z: float) -> float:
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (z - 1.0 + i)
    t = z - 0.5 + _LANCZOS_G
    return _HALF_LN_2PI + (z - 0.5) * math.log(t) - t + math.log(acc)


def ln_gamma(z: float) -> float:
    """Natural log of the gamma function for finite z > 0.

    Relative error below 1e-12 across (0, 50].  A Lanczos approximation
    covers the generic range; shifted Taylor series take over near the
    zeros of ln Gamma at z = 1 and z = 2, where the Lanczos form alone
    loses relative accuracy to cancellation.
    """
    if not (z > 0.0 and math.isfinite(z)):
        raise ValueError(f"ln_gamma requires finite z > 0, got {z}")
    if abs(z - 1.0) <= 0.25:
        eps = z - 1.0
        # ln Gamma(1+e) = -ln(1+e) + e(1-gamma) + sum_k (-1)^k (zeta(k)-1) e^k / k
        return -math.log1p(eps) + eps * (1.0 - _EULER_GAMMA) + _lgamma_taylor_sum(eps)
    if abs(z - 2.0) <= 0.25:
        eps = z - 2.0
        # the ln(1+e) terms of Gamma(2+e) = (1+e)Gamma(1+e) cancel exactly
        return eps * (1.0 - _EULER_GAMMA) + _lgamma_taylor_sum(eps)
    if z < 0.75:
        return ln_gamma(z + 1.0) - math.log(z)
    return _lanczos_ln_gamma(z)


# ---------------------------------------------------------------------------
# Bessel J of real order, ascending series
# ---------------------------------------------------------------------------


def bessel_j(order: float, x: float) -> float:
    """J_order(x) by the ascending power series with compensated summation.

    J_a(x) = sum_k (-1)^k (x/2)^(2k+a) / (k! Gamma(k+a+1)), valid for any
    real order > -1; callers use order >= 0.  Terms are generated by the
    two-step recurrence t_{k} = -t_{k-1} * (x/2)^2 / (k (k+a)) and summed
    with Kahan compensation until |term| < 1e-15 * |sum|.
    """
    if not 0.0 < x <= BESSEL_X_MAX:
        raise ValueError(f"bessel_j domain is 0 < x <= {BESSEL_X_MAX}, got x={x}")
    if not order > -1.0:
        raise ValueError(f"bessel_j requires order > -1, got {order}")
    half_x = 0.5 * x
    q = half_x * half_x
    term = math.exp(order * math.log(half_x) - ln_gamma(order + 1.0))
    total = term
    comp = 0.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = -term * q / (k * (k + order))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) < _SERIES_REL_TOL * abs(total):
            return total
    raise ConvergenceError(
        f"J_{order}({x}) did not converge within {_SERIES_MAX_TERMS} terms"
    )


def spherical_j(nu: float, x: float) -> float:
    """Spherical Bessel function j_nu(x) = sqrt(pi/(2x)) J_{nu+1/2}(x)."""
    if not 0.0 < x <= BESSEL_X_MAX:
        raise ValueError(f"spherical_j domain is 0 < x <= {BESSEL_X_MAX}, got x={x}")
    return math.sqrt(math.pi / (2.0 * x)) * bessel_j(nu + 0.5, x)


def riccati_derivative(nu: float, x: float) -> float:
    """d/dx [x j_nu(x)], whose zeros give the TM resonance condition.

    For nu >= 1 the downward recurrence d/dx[x j_nu] = x j_{nu-1} - nu j_nu
    keeps every order non-negative.  For nu < 1 the same quantity is
    rewritten through the cylinder functions,

        d/dx[x j_nu] = sqrt(pi/(2x)) ((nu+1) J_{nu+1/2}(x) - x J_{nu+3/2}(x)),

    which is j_nu + x j_nu' with j_nu' = j_{nu-1} - ((nu+1)/x) j_nu reduced
    so that only orders >= 1/2 are evaluated.
    """
    if not nu >= 0.0:
        raise ValueError(f"riccati_derivative requires nu >= 0, got {nu}")
    if not 0.0 < x <= BESSEL_X_MAX:
        raise ValueError(
            f"riccati_derivative domain is 0 < x <= {BESSEL_X_MAX}, got x={x}"
        )
    if nu >= 1.0:
        return x * spherical_j(nu - 1.0, x) - nu * spherical_j(nu, x)
    pref = math.sqrt(math.pi / (2.0 * x))
    return pref * ((nu + 1.0) * bessel_j(nu + 0.5, x) - x * bessel_j(nu + 1.5, x))


# ---------------------------------------------------------------------------
# Regular associated-Legendre theta-solution
# ---------------------------------------------------------------------------


def legendre_theta(nu: float, m: float, theta: float) -> float:
    """The solution of the theta-equation regular at the north pole.

    Solves (1/sin t)(sin t f')' + [nu(nu+1) - m^2/sin^2 t] f = 0 for the
    branch behaving like (sin t)^m as t -> 0+, normalized so that
    f/(sin t)^m -> 1.  Written as (sin t)^m * g(u) with u = sin^2(t/2),
    g is a hypergeometric-type series

        g(u) = sum_j c_j u^j,  c_0 = 1,
        c_{j+1} = c_j (j + m - nu)(j + m + nu + 1) / ((j + m + 1)(j + 1)),

    which terminates after nu - m + 1 terms exactly when nu - m is a
    non-negative integer and otherwise converges for u < 1 (slowly as
    theta -> pi; a ConvergenceError is raised rather than returning a
    partial sum).
    """
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta must lie in (0, pi), got {theta}")
    if not (0.0 <= m < math.inf and 0.0 <= nu < math.inf):
        raise ValueError(f"nu and m must be finite and >= 0, got nu={nu}, m={m}")
    sin_half = math.sin(0.5 * theta)
    u = sin_half * sin_half
    a = m - nu
    b = m + nu + 1.0
    c = m + 1.0
    term = 1.0
    total = 1.0
    comp = 0.0
    for j in range(_SERIES_MAX_TERMS):
        term *= (j + a) * (j + b) * u / ((j + c) * (j + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) < _SERIES_REL_TOL * abs(total):
            return math.sin(theta) ** m * total
    raise ConvergenceError(
        f"legendre_theta(nu={nu}, m={m}) series did not converge at "
        f"theta={theta} within {_SERIES_MAX_TERMS} terms"
    )
