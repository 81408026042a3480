"""Unit tests for the independent cross-check machinery."""

from __future__ import annotations

import math
import random

import mpmath as mp
import pytest

from wedgemodes import angular
from wedgemodes.oracle import bessel_series_reference, legendre_spectrum_fd
from wedgemodes.specfun import ln_gamma

mp.mp.dps = 40


class TestBesselSeriesReference:
    def test_half_order_closed_form(self):
        assert bessel_series_reference(0.5, math.pi / 2.0, 60) == pytest.approx(
            2.0 / math.pi, abs=1e-12
        )

    def test_small_argument_limit(self):
        assert bessel_series_reference(0.0, 1e-8, 60) == pytest.approx(1.0, abs=1e-15)

    def test_certified_fractional_order_value(self):
        assert bessel_series_reference(7.0 / 6.0, 2.0, 60) == pytest.approx(
            0.5596944240156067, abs=5e-16
        )

    def test_matches_high_precision_reference_deep_into_cancellation(self):
        # the 40-digit accumulation keeps full relative accuracy even at
        # x = 20, where the plain double series has lost ~7 digits; at
        # fractional orders a double divisor k (k + nu) alone would leave
        # errors near 1e-8 here
        for nu, x in (
            (2.0 / 3.0, 7.3),
            (1.5, 12.0),
            (0.0, 19.7),
            (7.0 / 6.0, 19.9),
            (2.702703, 19.5),
            (3.247629951983236, 19.905390122512127),
        ):
            ref = float(mp.besselj(mp.mpf(nu), mp.mpf(x)))
            assert bessel_series_reference(nu, x, 200) == pytest.approx(ref, rel=1e-13)

    def test_correctly_rounds_the_series_it_sums(self):
        # against the exact sum of the same series with the same float
        # leading term: only the final float() rounding may remain
        rng = random.Random(20)
        for _ in range(60):
            nu, x = rng.uniform(0.0, 30.0), rng.uniform(0.01, 20.0)
            with mp.workdps(80):
                term = mp.mpf(math.exp(nu * math.log(0.5 * x) - ln_gamma(nu + 1.0)))
                q = (mp.mpf(x) / 2) ** 2
                total = term
                for k in range(1, 200):
                    term = -term * q / (k * (k + mp.mpf(nu)))
                    total += term
                want = float(total)
            assert bessel_series_reference(nu, x, 200) == want, (nu, x)

    def test_rejects_insufficient_terms(self):
        with pytest.raises(ValueError):
            bessel_series_reference(0.5, 1.0, 39)
        with pytest.raises(ValueError, match="integer"):
            bessel_series_reference(0.5, 1.0, 60.0)

    @pytest.mark.parametrize("x", [0.0, -1.0, 20.5])
    def test_rejects_argument_outside_reference_domain(self, x):
        with pytest.raises(ValueError):
            bessel_series_reference(0.5, x, 60)


class TestLegendreSpectrumFd:
    def test_fractional_weight_ladder(self):
        result = legendre_spectrum_fd(2.0 / 3.0, 4000, 3)
        for i, nu in enumerate(result.nus):
            expected = 2.0 / 3.0 + i
            assert abs(nu - expected) / expected < 0.01

    def test_integer_weight_ladder(self):
        result = legendre_spectrum_fd(1.0, 4000, 3)
        for i, nu in enumerate(result.nus):
            expected = 1.0 + i
            assert abs(nu - expected) / expected < 0.01

    def test_smallest_tabulated_weight_ladder(self):
        result = legendre_spectrum_fd(0.540541, 4000, 2)
        for i, nu in enumerate(result.nus):
            expected = 0.540541 + i
            assert abs(nu - expected) / expected < 0.01

    def test_eigenvalues_ascend_and_stay_positive(self):
        result = legendre_spectrum_fd(0.75, 1500, 4)
        assert all(lam > 0.0 for lam in result.lambdas)
        assert list(result.lambdas) == sorted(result.lambdas)

    def test_result_carries_inputs(self):
        result = legendre_spectrum_fd(0.75, 1500, 2)
        assert result.m == 0.75
        assert result.grid_size == 1500
        assert len(result.lambdas) == len(result.nus) == 2

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            legendre_spectrum_fd(0.75, 499, 1)
        with pytest.raises(ValueError, match="grid_size must be an integer"):
            legendre_spectrum_fd(0.7, 1000.7, 2)

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            legendre_spectrum_fd(0.75, 1000, 0)
        with pytest.raises(ValueError, match="count must be an integer"):
            legendre_spectrum_fd(0.75, 1000, 2.0)

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError):
            legendre_spectrum_fd(0.0, 1000, 1)

    def test_rejects_more_eigenvalues_than_grid_points(self):
        with pytest.raises(ValueError, match="count"):
            legendre_spectrum_fd(0.7, 1000, 1001)
        assert len(legendre_spectrum_fd(0.7, 500, 500).lambdas) == 500

    @pytest.mark.parametrize("m", [math.inf, math.nan])
    def test_rejects_non_finite_weight(self, m):
        with pytest.raises(ValueError, match="finite"):
            legendre_spectrum_fd(m, 1000, 1)

    def test_rejects_weight_that_overflows_the_operator(self):
        with pytest.raises(ValueError, match="overflows"):
            legendre_spectrum_fd(1e300, 1000, 1)
        with pytest.raises(ValueError, match="overflows"):
            legendre_spectrum_fd(1e148, 1000, 1)
        # weights just below the refusal still give finite degrees
        result = legendre_spectrum_fd(1e146, 1000, 1000)
        assert all(math.isfinite(nu) for nu in result.nus)

    def test_agrees_with_ladder_built_eigenvalue_estimates(self):
        m = 2.0 / 3.0
        fd = legendre_spectrum_fd(m, 4000, 3)
        grid = angular.uniform_grid(4096)
        for k, nu_fd in enumerate(fd.nus):
            quotient = angular.casimir_eigenvalue_estimate(
                angular.build_tesseral(m, k, grid)
            )
            nu_ladder = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * quotient))
            assert abs(nu_fd - nu_ladder) < 0.01 * nu_ladder

    @pytest.mark.parametrize("wedge", [27, 47, 73, 90, 180])
    def test_eigenvalue_errors_shrink_when_grid_doubles(self, wedge):
        # with the Dirichlet ends on the poles the error falls as h**(2m)
        # below m = 1 and as h**2 from it: a ratio of 2.10-4.00 per doubling
        # at the table weights
        m = 180.0 / (360.0 - wedge)  # the wedge's fundamental weight
        coarse, fine = (
            legendre_spectrum_fd(m, grid, 3).lambdas for grid in (2000, 4000)
        )
        for k, (lam_coarse, lam_fine) in enumerate(zip(coarse, fine)):
            exact = (m + k) * (m + k + 1.0)
            assert abs(lam_coarse - exact) >= 1.8 * abs(lam_fine - exact), k

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the regular profile opens like theta**m at each pole, so below "
            "m = 1 the error falls as h**(2m), not h**2: the measured ratio "
            "per grid doubling at m = 2/3 is 2.51"
        ),
    )
    def test_eigenvalue_error_shrinks_fourfold_when_grid_doubles(self):
        m = 2.0 / 3.0
        exact = m * (m + 1.0)
        errors = [
            abs(legendre_spectrum_fd(m, grid, 1).lambdas[0] - exact)
            for grid in (2000, 4000)
        ]
        assert 3.0 < errors[0] / errors[1] < 5.0

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "at m = 0.1 the profile theta**m is nearly a step at each pole and "
            "the h**(2m) error is large at n = 4000: nu_0 reads 0.133416, "
            "33 % off (nu_1 3.7 %, nu_2 2.2 %); the 1 % bar holds from m ~ 0.3"
        ),
    )
    def test_small_weight_ladder_within_one_percent(self):
        m = 0.1
        result = legendre_spectrum_fd(m, 4000, 3)
        for k, nu in enumerate(result.nus):
            assert abs(nu - (m + k)) <= 0.01 * (m + k), k
