"""Real-order special functions built from power series.

The cylinder Bessel function J of real order and the associated-Legendre
theta-solution regular at the north pole are plain double-precision sums
of their power series; the spherical Bessel function j_nu and the
Riccati-Bessel derivative d/dx[x j_nu] are one or two J values each, and
log-gamma is the standard library's ``math.lgamma``.

Both power series stop once a term falls below 1e-15 of the partial sum
(``bessel_j`` also once both have underflowed to zero) and raise
ConvergenceError if that takes more than 200 terms, unless for
``legendre_theta`` the tail left is below 1e-15 of its first term, 1 (next
to a zero).  ``legendre_theta`` also raises it once a term passes 1e5,
where its alternating sum would cancel away more digits than a profile
value can spare.  ``bessel_j`` iterates float term indices built once from
the 200-term cap; ``legendre_theta`` iterates its series factors, built
once per (nu, m) from those indices.

Public surface:
    ConvergenceError   -- raised when a series fails to settle
    ln_gamma(z)
    bessel_j(order, x)
    spherical_j(nu, x)
    riccati_derivative(nu, x)
    legendre_theta(nu, m, theta)
"""
from __future__ import annotations

import functools
import math
import operator
import sys

__all__ = [
    "ConvergenceError",
    "ln_gamma",
    "bessel_j",
    "spherical_j",
    "riccati_derivative",
    "legendre_theta",
]

BESSEL_X_MAX = 40.0
# the least positive normal float: a product below it lost digits to underflow
_FLOAT_MIN = sys.float_info.min
# below this x the factor sqrt(pi/2) / sqrt(x) exceeds 1, so it can lift an
# underflowed J.  A root may lie below it (tm_root(0.0, 1) is 3.8e-13 under
# pi/2), but the refold replaces only 0 or subnormal values, which no root
# bracket evaluates, so no root float depends on it
_FOLD_X_MAX = 0.5 * math.pi

_SERIES_MAX_TERMS = 200
_SERIES_REL_TOL = 1e-15
# the term indices of the two series loops as floats, built once: each sum
# in a term is then float + float, which the interpreter adds faster than
# int + float; an integer up to 200 is exact, so the values are the same
_BESSEL_INDICES = tuple(float(k) for k in range(1, _SERIES_MAX_TERMS + 1))
_LEGENDRE_INDICES = tuple(float(j) for j in range(_SERIES_MAX_TERMS))
# the legendre_theta series sums terms of both signs, so its absolute error
# is about eps times its largest term; past this bound that error exceeds
# ~1e-11 and the value is refused
_LEGENDRE_TERM_MAX = 1e5


class ConvergenceError(ArithmeticError):
    """A power series did not reach its tolerance within its term limit."""


def _check_index(name: str, value: object, least: int) -> None:
    """Refuse ``value`` unless it is an integer (not ``2.0``) >= ``least``:
    the one index rule of ``modes``, ``angular`` and ``oracle``."""
    try:
        if operator.index(value) >= least:
            return
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------


def ln_gamma(z: float) -> float:
    """Natural log of the gamma function for finite z > 0.

    The value is the standard library's ``math.lgamma``.  This wrapper adds
    the refusals callers rely on: ValueError for z <= 0, inf and nan, and
    from z ~ 2.6e305 on, where the value overflows a float.
    """
    if not (z > 0.0 and math.isfinite(z)):
        raise ValueError(f"ln_gamma requires finite z > 0, got {z}")
    try:
        return math.lgamma(z)
    except OverflowError:
        raise ValueError(f"ln_gamma({z}) overflows a float") from None


# ---------------------------------------------------------------------------
# Bessel J of real order, ascending series
# ---------------------------------------------------------------------------


def bessel_j(order: float, x: float) -> float:
    """J_order(x) by the ascending power series, summed term by term.

    J_a(x) = sum_k (-1)^k (x/2)^(2k+a) / (k! Gamma(k+a+1)), valid for any
    finite order > -1; callers use order >= 0.  Terms are generated by the
    two-step recurrence t_{k} = -t_{k-1} * (x/2)^2 / (k (k+a)) and added
    in order until |term| <= 1e-15 * |sum|, which also stops a sum that
    has underflowed to zero (|J| below about 5e-324).
    """
    if not 0.0 < x <= BESSEL_X_MAX:
        raise ValueError(f"bessel_j domain is 0 < x <= {BESSEL_X_MAX}, got x={x}")
    if not -1.0 < order < math.inf:
        raise ValueError(f"bessel_j requires finite order > -1, got {order}")
    return _bessel_series(order, x, 0.0)


def _bessel_series(order: float, x: float, log_scale: float) -> float:
    """exp(log_scale) J_order(x), the scale taken into the leading term, so
    that a product whose J alone underflows keeps its digits; at
    ``log_scale = 0.0`` the sum is ``bessel_j``'s, bit for bit."""
    half_x = 0.5 * x
    q = half_x * half_x
    # half of x = 5e-324 rounds to 0, so its logarithm is taken from x there
    log_half_x = math.log(half_x) if half_x > 0.0 else math.log(x) - math.log(2.0)
    term = math.exp(order * log_half_x - ln_gamma(order + 1.0) + log_scale)
    total = term
    for k in _BESSEL_INDICES:
        term = -term * q / (k * (k + order))
        total += term
        if abs(term) <= _SERIES_REL_TOL * abs(total):
            return total
    raise ConvergenceError(
        f"J_{order}({x}) did not converge within {_SERIES_MAX_TERMS} terms"
    )


def _scaled_bessel(order: float, x: float) -> float:
    """sqrt(pi/2) / sqrt(x) * J_order(x) with the factor in the series'
    leading term: used only where the plain product is 0 or subnormal
    below x = pi/2, because J underflowed before the factor multiplied it."""
    return _bessel_series(order, x, 0.5 * (math.log(0.5 * math.pi) - math.log(x)))


def spherical_j(nu: float, x: float) -> float:
    """Spherical Bessel function j_nu(x) = sqrt(pi/(2x)) J_{nu+1/2}(x)."""
    j = bessel_j(nu + 0.5, x)  # refuses x outside (0, 40] before 1/x is formed
    # sqrt(pi/2) / sqrt(x) stays finite at subnormal x, where pi/(2x) overflows
    value = math.sqrt(0.5 * math.pi) / math.sqrt(x) * j
    if x < _FOLD_X_MAX and abs(value) < _FLOAT_MIN:
        return _scaled_bessel(nu + 0.5, x)
    return value


def riccati_derivative(nu: float, x: float) -> float:
    """d/dx [x j_nu(x)], whose zeros give the TM resonance condition.

    For every nu >= 0 it is j_nu + x j_nu' with j_nu' = (nu/x) j_nu - j_{nu+1}
    (DLMF 10.51.2), written through the cylinder functions,

        d/dx[x j_nu] = sqrt(pi/(2x)) ((nu+1) J_{nu+1/2}(x) - x J_{nu+3/2}(x)),

    so only orders >= 1/2 are evaluated, with the factor formed as in
    ``spherical_j``.
    """
    if not nu >= 0.0:
        raise ValueError(f"riccati_derivative requires nu >= 0, got {nu}")
    j_lo = bessel_j(nu + 0.5, x)  # refuses x outside (0, 40] before 1/x is formed
    j_hi = bessel_j(nu + 1.5, x)
    value = math.sqrt(0.5 * math.pi) / math.sqrt(x) * ((nu + 1.0) * j_lo - x * j_hi)
    if x < _FOLD_X_MAX and abs(value) < _FLOAT_MIN:
        return (nu + 1.0) * _scaled_bessel(nu + 0.5, x) - x * _scaled_bessel(nu + 1.5, x)
    return value


# ---------------------------------------------------------------------------
# Regular associated-Legendre theta-solution
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _legendre_factors(nu: float, m: float) -> tuple[tuple[float, float], ...]:
    """``legendre_theta``'s term ratios at (nu, m) as (numerator, denominator)
    pairs, from floats (``2`` and ``2.0`` are one key), up to the first 0."""
    a = float(m) - float(nu)
    b = float(m) + float(nu) + 1.0
    c = float(m) + 1.0
    stop = 1 - int(a) if a <= 0.0 and a.is_integer() else _SERIES_MAX_TERMS
    return tuple(((j + a) * (j + b), (j + c) * (j + 1.0))
                 for j in _LEGENDRE_INDICES[:stop])


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
    partial sum whose tail is not negligible).  At moderate degree its
    terms grow far beyond the sum and cancel; a ConvergenceError is raised
    once a term passes 1e5 rather than returning the cancelled remainder.

    The series factors are computed once per (nu, m), and the 16 most
    recent (nu, m) pairs are kept; a one-shot call pays that build.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta must lie in (0, pi), got {theta}")
    if not (0.0 <= m < math.inf and 0.0 <= nu < math.inf):
        raise ValueError(f"nu and m must be finite and >= 0, got nu={nu}, m={m}")
    sin_half = math.sin(0.5 * theta)
    u = sin_half * sin_half
    term = 1.0
    total = 1.0
    for num, den in _legendre_factors(nu, m):
        term *= num * u / den
        size = abs(term)
        if size > _LEGENDRE_TERM_MAX:
            raise ConvergenceError(
                f"legendre_theta(nu={nu}, m={m}) series cancels at theta={theta}: "
                f"a term reached {size:.3g} > {_LEGENDRE_TERM_MAX:g}"
            )
        total += term
        if size < _SERIES_REL_TOL * abs(total):
            return math.sin(theta) ** m * total
    # next to a zero the relative stop cannot be met; the sum is kept if its
    # tail, last * ratio / (1 - ratio) at the larger of the next term ratio
    # and its limit u, is below 1e-15 of the first term, 1, which bounds the
    # largest term from below without a per-term running maximum
    a = m - nu
    b = m + nu + 1.0
    c = m + 1.0
    n = float(_SERIES_MAX_TERMS)
    ratio = max(u, abs((n + a) * (n + b) / ((n + c) * (n + 1.0))) * u)
    if abs(term) * ratio <= _SERIES_REL_TOL * (1.0 - ratio):
        return math.sin(theta) ** m * total
    raise ConvergenceError(
        f"legendre_theta(nu={nu}, m={m}) series did not converge at "
        f"theta={theta} within {_SERIES_MAX_TERMS} terms"
    )
