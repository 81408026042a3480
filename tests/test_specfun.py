"""Unit tests for the power-series special functions."""

from __future__ import annotations

import hashlib
import math
import random

import mpmath as mp
import numpy as np
import pytest

from wedgemodes import angular, specfun
from wedgemodes.modes import te_field_shape
from wedgemodes.specfun import (
    BESSEL_X_MAX,
    ConvergenceError,
    bessel_j,
    legendre_theta,
    ln_gamma,
    riccati_derivative,
    spherical_j,
)

mp.mp.dps = 40


class TestSeriesControl:
    def test_defaults(self):
        assert specfun._SERIES_MAX_TERMS == 200
        assert specfun._SERIES_REL_TOL == 1e-15


class TestLnGamma:
    def test_value_at_one_is_zero(self):
        assert ln_gamma(1.0) == 0.0

    def test_value_at_two_is_zero(self):
        assert ln_gamma(2.0) == 0.0

    def test_half_integer_closed_form(self):
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)

    def test_factorial_closed_form(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    def test_lattice_against_high_precision_reference(self):
        zs = list(np.linspace(0.05, 50.0, 120)) + [0.3, 0.99, 1.001, 1.25, 1.999, 2.01]
        # around the zeros at z = 1 and 2, where cancellation is hardest
        zs += list(np.random.default_rng(10).uniform(0.75, 2.25, 200))
        for z in zs:
            ref = float(mp.loggamma(mp.mpf(float(z))))
            got = ln_gamma(float(z))
            # near the zeros at z = 1, 2 the comparison is reference-limited,
            # so measure against a 1e-3 floor there
            assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-3)

    # from z ~ 2.6e305 ln Gamma(z) overflows a float
    @pytest.mark.parametrize("z", [0.0, -1.0, -0.5, math.inf, math.nan, 1e308])
    def test_rejects_non_positive_argument(self, z):
        with pytest.raises(ValueError):
            ln_gamma(z)


class TestReciprocalGamma:
    # angular._rgamma is 1/math.gamma away from z = 0; these points reach
    # past the (-1, 2) that south_pole_coefficient asks for, near poles too
    @pytest.mark.parametrize("z", [-0.3, -1.7, -5.5, -0.999, -3.001, 0.3, 1.0, 2.5, 7.2, 30.0])
    def test_agrees_with_math_gamma(self, z):
        assert angular._rgamma(z) == pytest.approx(1.0 / math.gamma(z), rel=1e-13)
        assert angular._rgamma(z) == pytest.approx(float(mp.rgamma(mp.mpf(z))), rel=1e-13)


class TestBesselJ:
    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin(x); at x = pi/2 this is 2/pi
        assert bessel_j(0.5, math.pi / 2.0) == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_small_argument_limit(self):
        assert bessel_j(0.0, 1e-8) == pytest.approx(1.0, abs=1e-15)

    def test_certified_fractional_order_value(self):
        # frozen from the double-double series reference at build time
        assert bessel_j(7.0 / 6.0, 2.0) == pytest.approx(0.5596944240156067, rel=1e-14)

    def test_negative_half_order_closed_form(self):
        # the series is valid for order > -1: J_{-1/2}(x) = sqrt(2/(pi x)) cos(x)
        ref = math.sqrt(2.0 / math.pi) * math.cos(1.0)
        assert bessel_j(-0.5, 1.0) == pytest.approx(ref, rel=1e-12)

    def test_spot_values_against_high_precision_reference(self):
        for order, x in ((2.0 / 3.0, 7.3), (1.5, 12.0), (0.0, 19.7)):
            ref = float(mp.besselj(mp.mpf(order), mp.mpf(x)))
            # the alternating series loses absolute accuracy as x grows
            # (cancellation floor near 1e-9 relative at x ~ 20)
            assert bessel_j(order, x) == pytest.approx(ref, rel=1e-7)

    @pytest.mark.parametrize("x", [0.0, -1.0, BESSEL_X_MAX + 1e-3])
    def test_rejects_argument_outside_domain(self, x):
        with pytest.raises(ValueError):
            bessel_j(0.5, x)

    def test_rejects_order_at_or_below_minus_one(self):
        for order in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="order > -1"):
                bessel_j(order, 1.0)

    def test_non_convergence_is_reported(self, monkeypatch):
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 5)
        monkeypatch.setattr(specfun, "_BESSEL_INDICES", specfun._BESSEL_INDICES[:5])
        with pytest.raises(ConvergenceError, match="within 5 terms"):
            bessel_j(0.0, 20.0)


class TestSphericalJ:
    def test_order_zero_closed_form(self):
        assert spherical_j(0.0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-12)

    def test_order_one_closed_form(self):
        ref = math.sin(2.0) / 4.0 - math.cos(2.0) / 2.0
        assert spherical_j(1.0, 2.0) == pytest.approx(ref, rel=1e-12)

    def test_two_thirds_order_near_tabulated_root(self):
        assert abs(spherical_j(2.0 / 3.0, 4.0548)) < 1e-4

    def test_domain_error_propagates(self):
        with pytest.raises(ValueError):
            spherical_j(0.0, 0.0)

    def test_subnormal_values_against_high_precision_reference(self):
        # the series' stop test must hold once the sum has left the normal
        # floats: j_150(1) ~ 8.8e-310 is subnormal, j_200(1) ~ 4.9e-437 is 0
        ref = float(mp.sqrt(mp.pi / 2) * mp.besselj(mp.mpf(150.5), 1))
        assert 0.0 < ref < 1e-308
        assert spherical_j(150.0, 1.0) == pytest.approx(ref, rel=1e-11)
        assert spherical_j(200.0, 1.0) == 0.0


class TestRiccatiDerivative:
    def test_order_zero_closed_form(self):
        # x j_0 = sin x, so the derivative at pi is cos(pi) = -1
        assert riccati_derivative(0.0, math.pi) == pytest.approx(-1.0, rel=1e-12)

    def test_vanishes_near_integer_order_root(self):
        assert abs(riccati_derivative(1.0, 2.7437)) < 1e-3

    def test_vanishes_near_fractional_order_root(self):
        assert abs(riccati_derivative(2.0 / 3.0, 2.3600)) < 1e-3

    def test_rejects_negative_order(self):
        for nu in (-0.1, math.nan):
            with pytest.raises(ValueError, match="nu >= 0"):
                riccati_derivative(nu, 1.0)

    def test_agrees_with_finite_difference_of_x_j(self):
        h = 1e-3
        for nu in (0.54, 2.0 / 3.0, 1.0, 5.0 / 3.0):
            for x in np.linspace(0.5, 10.0, 20):
                x = float(x)

                def g(t: float) -> float:
                    return t * spherical_j(nu, t)

                fd = (g(x - 2 * h) - 8 * g(x - h) + 8 * g(x + h) - g(x + 2 * h)) / (12 * h)
                assert riccati_derivative(nu, x) == pytest.approx(fd, rel=1e-8)

    def test_sweep_against_high_precision_reference(self):
        # 300 seeded points with nu in [0, 3], across nu = 1, and x in
        # (0, 12], against (nu+1) J_{nu+1/2} - x J_{nu+3/2} in mpmath,
        # relative to max(|ref|, 1/sqrt(x)); measured worst 4.7e-12 with
        # a downward recurrence for nu >= 1, 2.0e-12 with one formula
        rng = random.Random(14)
        worst = 0.0
        for _ in range(300):
            nu, x = rng.uniform(0.0, 3.0), 12.0 * (1.0 - rng.random())
            n, t = mp.mpf(nu), mp.mpf(x)
            ref = mp.sqrt(mp.pi / (2 * t)) * (
                (n + 1) * mp.besselj(n + 0.5, t) - t * mp.besselj(n + 1.5, t)
            )
            err = abs(riccati_derivative(nu, x) - ref) / max(abs(ref), 1 / mp.sqrt(t))
            worst = max(worst, float(err))
        assert worst < 2e-11


@pytest.mark.parametrize("x", [5e-324, 1e-320, 1e-310])
@pytest.mark.parametrize("nu", [0.0, 0.25, 1.0, 5.0])
def test_subnormal_argument_against_high_precision_reference(nu, x):
    # pi/(2x) overflows below x ~ 8.7e-309, which once gave inf and
    # inf * 0 = nan, and half of x = 5e-324 rounds to 0.  Each value must be
    # mpmath's to 1e-12 (the leading term exp((nu + 1/2) ln(x/2) - ...)
    # carries about 560 eps here; measured worst 1.2e-13), or within 1e-322,
    # twenty subnormal steps of 5e-324, where it is itself subnormal: there
    # J_{nu+1/2}(x) underflows before the factor multiplies it, so the factor
    # goes into the series' leading term, and j_1(1e-310) = 3.3e-311 no
    # longer reads 0
    n, t = mp.mpf(nu), mp.mpf(x)
    factor = mp.sqrt(mp.pi / (2 * t))
    j_lo, j_hi = mp.besselj(n + 0.5, t), mp.besselj(n + 1.5, t)
    assert spherical_j(nu, x) == pytest.approx(float(factor * j_lo), rel=1e-12, abs=1e-322)
    assert riccati_derivative(nu, x) == pytest.approx(
        float(factor * ((n + 1) * j_lo - t * j_hi)), rel=1e-12, abs=1e-322)


def test_a_zero_sum_is_refolded_only_below_half_pi(monkeypatch):
    # at and above x = pi/2 a sum that comes out 0.0, as next to a root, is
    # returned as it is; below it a 0.0 is an underflow and is refolded
    # (test_modes checks that no root bracket evaluates such a value)
    below = spherical_j(1.0, 1.5), riccati_derivative(1.0, 1.5)
    monkeypatch.setattr(specfun, "bessel_j", lambda order, x: 0.0)
    assert spherical_j(1.0, 1.6) == 0.0
    assert riccati_derivative(1.0, 1.6) == 0.0
    assert (spherical_j(1.0, 1.5), riccati_derivative(1.0, 1.5)) == pytest.approx(
        below, rel=1e-14)


# x and theta are refused by the series that own them, bessel_j and
# legendre_theta, before any caller divides by x or sin(theta)
_REFUSING_CALLS = {
    "spherical_j": lambda x: spherical_j(1.5, x),
    "riccati_derivative": lambda x: riccati_derivative(1.5, x),
    "te_field_shape-x": lambda x: te_field_shape(1.5, 0.5, x, 1.0),
    "te_field_shape-theta": lambda theta: te_field_shape(1.5, 0.5, 2.0, theta),
}
_BAD_X = (0.0, -1.0, BESSEL_X_MAX + 0.5, math.nan, math.inf)
_BAD_THETA = (0.0, math.pi, math.nan)


@pytest.mark.parametrize(
    "call, value",
    [(name, v) for name in _REFUSING_CALLS
     for v in (_BAD_THETA if name.endswith("theta") else _BAD_X)],
)
def test_domain_refusal_is_a_value_error(call, value):
    # a ZeroDivisionError here would mean a prefactor was formed first
    with pytest.raises(ValueError):
        _REFUSING_CALLS[call](value)


class TestLegendreTheta:
    def test_sectoral_value_at_equator(self):
        assert legendre_theta(2.0 / 3.0, 2.0 / 3.0, math.pi / 2.0) == pytest.approx(
            1.0, rel=1e-13
        )

    def test_axisymmetric_degree_one_is_cosine(self):
        assert legendre_theta(1.0, 0.0, math.pi / 3.0) == pytest.approx(0.5, rel=1e-13)

    @pytest.mark.parametrize("m", [0.5405, 2.0 / 3.0, 1.0])
    def test_sectoral_closed_form_across_grid(self, m):
        for theta in np.linspace(0.05, 3.0, 40):
            theta = float(theta)
            assert legendre_theta(m, m, theta) == pytest.approx(
                math.sin(theta) ** m, rel=1e-12
            )

    @pytest.mark.parametrize("nu,m", [(5.0 / 3.0, 2.0 / 3.0), (7.0 / 6.0, 2.0 / 3.0), (1.0, 0.0)])
    def test_satisfies_its_differential_equation(self, nu, m):
        # residual of f'' + cot(t) f' + (nu(nu+1) - m^2/sin^2 t) f via
        # 4th-order finite differences, inside the series' convergence region
        h = 1e-4
        worst = 0.0
        peak = 0.0
        for t in np.linspace(0.1, 2.2, 60):
            t = float(t)
            f0 = legendre_theta(nu, m, t)
            fm2, fm1 = legendre_theta(nu, m, t - 2 * h), legendre_theta(nu, m, t - h)
            fp1, fp2 = legendre_theta(nu, m, t + h), legendre_theta(nu, m, t + 2 * h)
            fp = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
            fpp = (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)
            res = fpp + math.cos(t) / math.sin(t) * fp + (
                nu * (nu + 1.0) - m * m / math.sin(t) ** 2
            ) * f0
            worst = max(worst, abs(res))
            peak = max(peak, abs(f0))
        assert worst < 1e-6 * peak

    def test_collinear_with_ladder_built_tesseral(self):
        grid = angular.uniform_grid(2048)
        profile = angular.AngularFunction(
            m=2.0 / 3.0,
            theta_grid=grid,
            values=np.array([legendre_theta(5.0 / 3.0, 2.0 / 3.0, float(t)) for t in grid]),
        )
        ladder = angular.build_tesseral(2.0 / 3.0, 1, grid)
        assert angular.collinearity(profile, ladder) >= 1.0 - 1e-8

    @pytest.mark.parametrize("theta", [0.0, math.pi, -0.5, 4.0])
    def test_rejects_theta_outside_open_interval(self, theta):
        with pytest.raises(ValueError):
            legendre_theta(1.0, 0.5, theta)

    def test_rejects_negative_indices(self):
        for nu, m in ((-0.5, 0.5), (0.5, -0.5), (1.0, math.nan), (math.nan, 0.5),
                      (math.inf, 0.5), (1.0, math.inf)):
            with pytest.raises(ValueError):
                legendre_theta(nu, m, 1.0)

    @pytest.mark.parametrize("nu,m,theta", [(30.3, 0.5, 1.5), (50.3, 0.5, 2.0), (40.0, 0.0, 1.5)])
    def test_refuses_catastrophic_cancellation(self, nu, m, theta):
        # the terms grow to 1e14..1e30 and cancel down to values below one,
        # which double precision returned 16 % off, as 2.9e14 and as -8534
        with pytest.raises(ConvergenceError, match="cancels"):
            legendre_theta(nu, m, theta)

    def test_moderate_degree_against_high_precision_reference(self):
        # below the cancellation guard the value keeps its digits
        nu, m, theta = 10.3, 0.5, 1.0
        u = mp.sin(mp.mpf(theta) / 2) ** 2
        ref = mp.sin(mp.mpf(theta)) ** m * mp.hyp2f1(m - nu, m + nu + 1, m + 1, u)
        assert legendre_theta(nu, m, theta) == pytest.approx(float(ref), rel=1e-13)

    def test_north_domain_sweep_against_high_precision_reference(self):
        # 300 seeded points of the domain certify draws from: m in
        # [0.3, 2.5], nu - m in [0.05, 2.95], theta in (0.05, 2.2], against
        # mpmath's 2F1, relative to max(1, |ref|); none is refused; measured
        # worst 1.7e-15 with compensated summation, 2.0e-15 without
        rng = random.Random(15)
        worst = 0.0
        for _ in range(300):
            m = rng.uniform(0.3, 2.5)
            nu = m + rng.uniform(0.05, 2.95)
            theta = 0.05 + 2.15 * (1.0 - rng.random())
            u = mp.sin(mp.mpf(theta) / 2) ** 2
            ref = mp.sin(mp.mpf(theta)) ** m * mp.hyp2f1(m - nu, m + nu + 1, m + 1, u)
            err = abs(legendre_theta(nu, m, theta) - ref) / max(1, abs(ref))
            worst = max(worst, float(err))
        assert worst < 1e-14

    def test_value_next_to_a_zero_of_the_profile(self):
        # the sum is close to 0, so its relative stop cannot be met, but the
        # terms fall like 0.79**j and the 200-term sum is exact to rounding
        nu, m, theta = 2.1510933942076775, 1.9101235221860728, 2.2
        u = mp.sin(mp.mpf(theta) / 2) ** 2
        ref = mp.sin(mp.mpf(theta)) ** m * mp.hyp2f1(m - nu, m + nu + 1, m + 1, u)
        assert legendre_theta(nu, m, theta) == pytest.approx(float(ref), abs=1e-14)

    def test_non_terminating_series_reports_divergence(self):
        # non-integer nu - m close to the south pole: the series cannot
        # settle within the term budget and must say so
        with pytest.raises(ConvergenceError):
            legendre_theta(7.0 / 6.0, 2.0 / 3.0, 3.05)


def test_series_values_are_frozen():
    # the bits of both power series at seeded points: bessel_j at order in
    # [0, 40] and x in (0, 40], legendre_theta at m in [0, 12] with nu - m
    # an integer up to 12 for half the points and fractional for the rest,
    # theta in (0.01, pi - 0.01); a refusal hashes as its exception name.
    # A change to how the series loops run must leave every value the same
    # float
    rng = random.Random(2615)
    digest = hashlib.sha256()

    def put(func, *args):
        try:
            value = func(*args).hex()
        except (ValueError, ConvergenceError) as exc:
            value = type(exc).__name__
        digest.update(f"{value}\n".encode())

    for _ in range(1500):
        put(bessel_j, 40.0 * rng.random(), 40.0 * (1.0 - rng.random()))
    for i in range(1500):
        m = 12.0 * rng.random()
        nu = m + (rng.randint(0, 12) if i % 2 else 12.0 * rng.random())
        put(legendre_theta, nu, m, rng.uniform(0.01, math.pi - 0.01))
    assert digest.hexdigest().startswith("7a50024db1b66b4c")
