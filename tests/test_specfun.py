"""Unit tests for the power-series special functions."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from wedgemodes import angular, specfun
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
        for z in zs:
            ref = float(mp.loggamma(mp.mpf(float(z))))
            got = ln_gamma(float(z))
            # near the zeros at z = 1, 2 the comparison is reference-limited,
            # so measure against a 1e-3 floor there
            assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-3)

    @pytest.mark.parametrize("z", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_rejects_non_positive_argument(self, z):
        with pytest.raises(ValueError):
            ln_gamma(z)


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
        for order in (-1.0, math.nan):
            with pytest.raises(ValueError, match="order > -1"):
                bessel_j(order, 1.0)

    def test_non_convergence_is_reported(self, monkeypatch):
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 5)
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

    def test_non_terminating_series_reports_divergence(self):
        # non-integer nu - m close to the south pole: the series cannot
        # settle within the term budget and must say so
        with pytest.raises(ConvergenceError):
            legendre_theta(7.0 / 6.0, 2.0 / 3.0, 3.05)
