"""Unit tests for the ladder-operator numerics."""

from __future__ import annotations

import math
import random
import re

import mpmath as mp
import numpy as np
import pytest

from wedgemodes import angular
from wedgemodes.angular import (
    POLE_CLIP,
    POLE_MARGIN,
    AngularFunction,
    apply_casimir,
    apply_lowering,
    apply_raising,
    build_tesseral,
    casimir_eigenvalue_estimate,
    collinearity,
    interior_mask,
    sectoral,
    south_pole_coefficient,
    uniform_grid,
)
from wedgemodes.specfun import legendre_theta


@pytest.fixture(scope="module")
def grid():
    return uniform_grid(4096)


@pytest.fixture(scope="module")
def mask(grid):
    return interior_mask(grid)


class TestAngularFunction:
    def test_rejects_short_grid(self):
        g = np.linspace(0.1, 3.0, 8)
        with pytest.raises(ValueError):
            AngularFunction(m=1.0, theta_grid=g, values=np.sin(g))

    def test_rejects_mismatched_lengths(self):
        g = np.linspace(0.1, 3.0, 32)
        with pytest.raises(ValueError):
            AngularFunction(m=1.0, theta_grid=g, values=np.ones(31))

    def test_rejects_grid_touching_poles(self):
        g = np.linspace(0.0, 3.0, 32)
        with pytest.raises(ValueError):
            AngularFunction(m=1.0, theta_grid=g, values=np.ones(32))

    def test_rejects_non_increasing_grid(self):
        g = np.linspace(0.1, 3.0, 32)
        g[10] = g[9]
        with pytest.raises(ValueError):
            AngularFunction(m=1.0, theta_grid=g, values=np.ones(32))

    def test_rejects_non_finite_values(self):
        g = np.linspace(0.1, 3.0, 32)
        v = np.ones(32)
        v[3] = np.inf
        with pytest.raises(ValueError):
            AngularFunction(m=1.0, theta_grid=g, values=v)


class TestGrids:
    def test_uniform_grid_endpoints_and_size(self):
        g = uniform_grid(101)
        assert g.size == 101
        assert g[0] == POLE_CLIP
        assert g[-1] == math.pi - POLE_CLIP

    def test_uniform_grid_rejects_small_size(self):
        with pytest.raises(ValueError):
            uniform_grid(8)

    def test_interior_mask_bounds(self, grid):
        mask = interior_mask(grid)
        sel = grid[mask]
        assert sel.min() >= POLE_MARGIN
        assert sel.max() <= math.pi - POLE_MARGIN
        # everything left out lies within the margin of a pole
        assert np.all(np.minimum(grid[~mask], math.pi - grid[~mask]) < POLE_MARGIN)


class TestSectoral:
    def test_weight_one_is_sine(self, grid):
        f = sectoral(1.0, grid)
        assert f.m == 1.0
        np.testing.assert_allclose(f.values, np.sin(grid), rtol=1e-14)

    def test_fractional_weight_equator_value(self):
        g = uniform_grid(1025)
        f = sectoral(2.0 / 3.0, g)
        assert f.values[512] == pytest.approx(1.0, rel=1e-12)

    def test_weight_zero_is_constant_one(self, grid):
        f = sectoral(0.0, grid)
        np.testing.assert_array_equal(f.values, np.ones_like(grid))

    def test_rejects_negative_weight(self, grid):
        with pytest.raises(ValueError):
            sectoral(-0.5, grid)

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_rejects_non_finite_weight(self, grid, m):
        # sin(theta) ** inf is an all-zero profile, which the ladder
        # operators would carry on as weight inf
        with pytest.raises(ValueError, match="finite and non-negative"):
            sectoral(m, grid)

    @pytest.mark.parametrize("m", [1e12, 1e154, 2e154])
    def test_rejects_a_weight_whose_profile_underflows(self, grid, m):
        # on the 4096-point grid sin(theta) <= 1 - 7e-8, so (sin theta)**m
        # is 0 everywhere from m ~ 1e10 on, and the ladder would divide 0 by 0
        with pytest.raises(ValueError, match=re.escape(f"weight m = {m:g} is too large")):
            sectoral(m, grid)


class TestRaising:
    def test_annihilates_highest_weight_profile(self, grid, mask):
        f = sectoral(2.0 / 3.0, grid)
        raised = apply_raising(f)
        assert raised.m == 2.0 / 3.0 + 1.0
        assert np.max(np.abs(raised.values[mask])) <= 1e-8 * np.max(np.abs(f.values))

    def test_constant_at_weight_zero_maps_to_zero(self, grid):
        f = AngularFunction(m=0.0, theta_grid=grid, values=np.ones_like(grid))
        raised = apply_raising(f)
        assert np.max(np.abs(raised.values)) < 1e-12

    def test_cosine_at_weight_zero_gives_minus_sine(self):
        g = uniform_grid(2048)
        f = AngularFunction(m=0.0, theta_grid=g, values=np.cos(g))
        raised = apply_raising(f)
        assert raised.m == 1.0
        assert np.max(np.abs(raised.values + np.sin(g))) < 1e-9

    def test_rejects_non_uniform_grid(self):
        g = np.cumsum(np.linspace(0.01, 0.02, 64))
        f = AngularFunction(m=1.0, theta_grid=g, values=np.sin(g))
        with pytest.raises(ValueError):
            apply_raising(f)

    @pytest.mark.parametrize("m", [0.0, 2.0 / 3.0, 0.540541, 1.5])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_raises_legendre_profile_to_next_weight(self, grid, mask, m, k):
        # L+ Theta_nu^m = (m - nu)(m + nu + 1) / (2 (m + 1)) Theta_nu^(m+1),
        # the closed form te_field_shape differentiates with; zero at k = 0
        nu = m + k
        f = AngularFunction(
            m=m, theta_grid=grid, values=np.array([legendre_theta(nu, m, t) for t in grid])
        )
        raised = apply_raising(f)
        coef = (m - nu) * (m + nu + 1.0) / (2.0 * (m + 1.0))
        want = np.array([coef * legendre_theta(nu, m + 1.0, t) if k else 0.0 for t in grid])
        err = np.max(np.abs(raised.values[mask] - want[mask]))
        assert err <= 1e-8 * np.max(np.abs(f.values))


class TestLowering:
    def test_weight_one_sectoral_gives_minus_two_cosine(self, grid, mask):
        low = apply_lowering(sectoral(1.0, grid))
        assert low.m == 0.0
        assert np.max(np.abs(low.values[mask] + 2.0 * np.cos(grid[mask]))) < 1e-9

    def test_fractional_weight_sectoral_closed_form(self, grid, mask):
        low = apply_lowering(sectoral(5.0 / 3.0, grid))
        assert low.m == pytest.approx(2.0 / 3.0)
        target = -(10.0 / 3.0) * np.cos(grid[mask]) * np.sin(grid[mask]) ** (2.0 / 3.0)
        assert np.max(np.abs(low.values[mask] - target)) < 1e-9

    def test_constant_at_weight_zero_maps_to_zero(self, grid):
        f = AngularFunction(m=0.0, theta_grid=grid, values=np.ones_like(grid))
        low = apply_lowering(f)
        assert np.max(np.abs(low.values)) < 1e-12


class TestCasimir:
    def test_sectoral_is_pointwise_eigenfunction(self, grid, mask):
        f = sectoral(2.0 / 3.0, grid)
        target = (10.0 / 9.0) * f.values[mask]
        got = apply_casimir(f).values[mask]
        assert np.max(np.abs(got - target) / np.abs(target)) < 1e-6

    def test_constant_at_weight_zero_maps_to_zero(self, grid, mask):
        f = AngularFunction(m=0.0, theta_grid=grid, values=np.ones_like(grid))
        out = apply_casimir(f)
        assert np.max(np.abs(out.values[mask])) < 1e-9

    def test_refuses_a_weight_whose_square_overflows(self, grid):
        # m**2 of a float raises OverflowError from m ~ 1.34e154 on
        f = AngularFunction(m=1e200, theta_grid=grid, values=np.ones_like(grid))
        with pytest.raises(ValueError, match="m\\*\\*2 overflows"):
            apply_casimir(f)

    @pytest.mark.filterwarnings("error")
    def test_refuses_a_weight_whose_term_overflows_at_the_poles(self):
        # the sectoral profile of m = 1e154 on an odd grid, whose middle
        # sample has sin theta = 1: one 1 among zeros.  m**2 is finite, but
        # m**2 / sin**2 overflows near the poles; it is refused before numpy
        # can warn of the overflow
        grid = uniform_grid(4097)
        values = np.zeros_like(grid)
        values[2048] = 1.0
        f = AngularFunction(m=1e154, theta_grid=grid, values=values)
        with pytest.raises(ValueError, match="m\\*\\*2 overflows"):
            apply_casimir(f)

    @pytest.mark.filterwarnings("error")
    def test_refuses_a_grid_whose_smallest_sin_squared_underflows(self):
        # sin(1e-170)**2 underflows to 0, so m**2 / sin**2 is infinite for
        # any weight m != 0
        grid = 1e-170 + 1e-3 * np.arange(100)
        f = AngularFunction(m=1.0, theta_grid=grid, values=np.ones_like(grid))
        with pytest.raises(ValueError, match="m\\*\\*2 overflows"):
            apply_casimir(f)

    def test_tesseral_eigenvalue(self, grid):
        q = casimir_eigenvalue_estimate(build_tesseral(2.0 / 3.0, 1, grid))
        assert q == pytest.approx(40.0 / 9.0, rel=1e-5)

    def test_factorizes_through_the_ladder(self, grid, mask):
        # L^2 = (lowering after raising) + m(m+1) on weight-m profiles
        m = 2.0 / 3.0
        f = AngularFunction(m=m, theta_grid=grid, values=np.sin(3.0 * grid))
        lhs = apply_casimir(f).values
        rhs = apply_lowering(apply_raising(f)).values + (m * m + m) * f.values
        assert np.max(np.abs(lhs[mask] - rhs[mask])) < 1e-8 * np.max(np.abs(f.values))


class TestCommutator:
    def test_ladder_commutator_is_twice_the_weight(self):
        # (raising after lowering) - (lowering after raising) = 2m, verified
        # to converge at 4th order under grid refinement
        m = 2.0 / 3.0
        sups = []
        for size in (1024, 2048, 4096):
            g = uniform_grid(size)
            sel = interior_mask(g)
            f = AngularFunction(m=m, theta_grid=g, values=np.sin(3.0 * g))
            comm = (
                apply_raising(apply_lowering(f)).values
                - apply_lowering(apply_raising(f)).values
            )
            sups.append(np.max(np.abs(comm[sel] - 2.0 * m * f.values[sel])))
        assert sups[2] < 1e-8
        assert sups[0] / sups[1] >= 12.0
        assert sups[1] / sups[2] >= 12.0


class TestBuildTesseral:
    def test_matches_analytic_tesseral_profile(self, grid):
        built = build_tesseral(2.0 / 3.0, 1, grid)
        target = AngularFunction(
            m=2.0 / 3.0,
            theta_grid=grid,
            values=np.cos(grid) * np.sin(grid) ** (2.0 / 3.0),
        )
        assert collinearity(built, target) >= 1.0 - 1e-8

    def test_integer_weight_classical_profile(self, grid):
        built = build_tesseral(1.0, 1, grid)
        target = AngularFunction(
            m=1.0, theta_grid=grid, values=np.sin(grid) * np.cos(grid)
        )
        assert collinearity(built, target) >= 1.0 - 1e-8

    def test_single_descent_to_axisymmetric_profile(self, grid):
        built = build_tesseral(0.0, 1, grid)
        assert built.m == 0.0
        target = AngularFunction(m=0.0, theta_grid=grid, values=np.cos(grid))
        assert collinearity(built, target) >= 1.0 - 1e-8

    @pytest.mark.parametrize("m", [0.0, 2.0 / 3.0, 0.540541, 1.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_legendre_profile_of_the_same_degree(self, grid, m, k):
        built = build_tesseral(m, k, grid)
        target = AngularFunction(
            m=m, theta_grid=grid, values=np.array([legendre_theta(m + k, m, t) for t in grid])
        )
        assert collinearity(built, target) >= 1.0 - 1e-12

    def test_zero_steps_returns_sectoral(self, grid):
        built = build_tesseral(0.75, 0, grid)
        np.testing.assert_array_equal(built.values, sectoral(0.75, grid).values)

    def test_rejects_negative_steps(self, grid):
        with pytest.raises(ValueError):
            build_tesseral(0.75, -1, grid)

    @pytest.mark.parametrize("k", [2.0, np.float64(2.0), 0.5, "2"],
                             ids=["float", "float64", "fraction", "str"])
    def test_rejects_non_integer_steps(self, grid, k):
        # the integer-index rule of ModeId and te_root: 2.0 is not an index
        with pytest.raises(ValueError, match="lowering count k must be an integer"):
            build_tesseral(0.75, k, grid)

    def test_numpy_integer_steps_match_int(self, grid):
        got = build_tesseral(0.75, np.int64(2), grid)
        np.testing.assert_array_equal(got.values, build_tesseral(0.75, 2, grid).values)


class TestEigenvalueEstimate:
    def test_sectoral_quotient(self, grid):
        q = casimir_eigenvalue_estimate(sectoral(2.0 / 3.0, grid))
        assert q == pytest.approx(10.0 / 9.0, rel=1e-6)

    def test_constant_profile_quotient_is_zero(self, grid):
        f = AngularFunction(m=0.0, theta_grid=grid, values=np.ones_like(grid))
        assert abs(casimir_eigenvalue_estimate(f)) < 1e-12

    def test_rejects_zero_function(self, grid):
        f = AngularFunction(m=1.0, theta_grid=grid, values=np.zeros_like(grid))
        with pytest.raises(ValueError):
            casimir_eigenvalue_estimate(f)

    def test_rejects_grid_without_interior_window(self):
        # all 16 samples lie below POLE_MARGIN, so no quadrature window is left
        f = sectoral(0.5, np.linspace(0.01, 0.09, 16))
        with pytest.raises(ValueError, match="interior window holds too few samples"):
            casimir_eigenvalue_estimate(f)


class TestCollinearity:
    def test_orthogonal_profiles_score_zero(self):
        g = uniform_grid(2048)
        assert collinearity(sectoral(1.0, g), build_tesseral(1.0, 1, g)) < 1e-12

    def test_sign_flip_is_still_collinear(self, grid):
        f = sectoral(1.0, grid)
        g = AngularFunction(m=1.0, theta_grid=grid, values=-f.values)
        assert collinearity(f, g) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_mismatched_grids(self):
        f = sectoral(1.0, uniform_grid(64))
        g = sectoral(1.0, uniform_grid(65))
        with pytest.raises(ValueError):
            collinearity(f, g)

    def test_rejects_zero_function(self, grid):
        f = sectoral(1.0, grid)
        z = AngularFunction(m=1.0, theta_grid=grid, values=np.zeros_like(grid))
        with pytest.raises(ValueError):
            collinearity(f, z)


def shoot_and_fit(nu: float, m: float) -> tuple[float, float, float]:
    """Independent numerical estimate of the two south-pole amplitudes.

    Integrates the weight-``m`` Legendre equation

        f'' + cot(theta) f' + (nu(nu+1) - m**2/sin**2(theta)) f = 0

    from ``theta = 1e-3`` with the regular initial data ``f = theta**m``,
    ``f' = m theta**(m-1)`` (adaptive RK45, relative tolerance 1e-10), then
    least-squares fits ``a_reg (pi-theta)**m + b_sing (pi-theta)**(-m)``
    over 50 samples of ``theta in [pi - 0.2, pi - 0.01]``.  Each Frobenius
    branch is a power times a function analytic in ``(pi - theta)**2``, so
    the design matrix carries two correction orders per branch,
    ``w**(p+2)`` and ``w**(p+4)``, while ``a_reg`` and ``b_sing`` remain
    the leading-power amplitudes.  Returns ``(a_reg, b_sing, residual)``,
    the last being the relative root-mean-square misfit over the window.
    Accurate to a few 1e-5 relative for ``nu`` below about 3.5; the window
    is too wide for the oscillation once ``nu`` reaches about 20.
    """
    from scipy.integrate import solve_ivp

    ode_start, fit_near, fit_far, fit_points = 1e-3, 0.01, 0.2, 50
    lam = nu * (nu + 1.0)

    def rhs(theta: float, y: np.ndarray) -> list[float]:
        sin_t = math.sin(theta)
        cot = math.cos(theta) / sin_t
        return [y[1], -cot * y[1] - (lam - m**2 / sin_t**2) * y[0]]

    theta_fit = np.linspace(math.pi - fit_far, math.pi - fit_near, fit_points)
    y0 = [ode_start**m, m * ode_start ** (m - 1.0)]
    sol = solve_ivp(
        rhs,
        (ode_start, math.pi - fit_near),
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
    return float(coef[0]), float(coef[3]), residual


class TestReciprocalGamma:
    def test_agrees_with_high_precision_reference(self):
        # south_pole_coefficient only asks for arguments in (-1, 2)
        rng = random.Random(16)
        zs = [rng.uniform(-1.0, 2.0) for _ in range(2000)]
        zs += [s * 10.0**-e for e in range(1, 300, 7) for s in (1.0, -1.0)]
        zs += [edge + s * 10.0**-e for e in range(1, 16) for edge, s in ((-1.0, 1.0), (2.0, -1.0))]
        with mp.workdps(40):
            for z in zs:
                ref = mp.rgamma(mp.mpf(z))
                assert abs(angular._rgamma(z) - ref) <= 1e-15 * abs(ref), z

    @pytest.mark.parametrize("z", [0.0, -0.0])
    def test_exact_zero_at_zero(self, z):
        assert angular._rgamma(z) == 0.0


class TestSouthPole:
    def test_sectoral_degree_is_regular(self):
        fit = south_pole_coefficient(2.0 / 3.0, 2.0 / 3.0)
        assert abs(fit.b_sing) < 1e-6 * abs(fit.a_reg)

    def test_integer_offset_degree_is_regular(self):
        fit = south_pole_coefficient(5.0 / 3.0, 2.0 / 3.0)
        assert abs(fit.b_sing) < 1e-5 * abs(fit.a_reg)

    def test_fractional_offset_degree_is_singular(self):
        fit = south_pole_coefficient(7.0 / 6.0, 2.0 / 3.0)
        assert abs(fit.b_sing) > 1e-2 * abs(fit.a_reg)

    @pytest.mark.parametrize("dk", [0, 1, 2])
    def test_integer_offset_cancels_singular_branch_to_rounding(self, dk):
        m = 2.0 / 3.0
        fit = south_pole_coefficient(m + dk, m)
        assert abs(fit.b_sing) <= 1e-15 * abs(fit.a_reg)

    @pytest.mark.parametrize("nu, m", [(7.0 / 6.0, 2.0 / 3.0), (1.3, 0.4), (2.9, 0.55)])
    def test_matches_shooting_fit(self, nu, m):
        a_fit, b_fit, _ = shoot_and_fit(nu, m)
        fit = south_pole_coefficient(nu, m)
        assert fit.a_reg == pytest.approx(a_fit, rel=1e-4)
        assert fit.b_sing == pytest.approx(b_fit, rel=1e-4)

    def test_fit_residual_is_small(self):
        for nu in (2.0 / 3.0, 7.0 / 6.0, 5.0 / 3.0):
            assert shoot_and_fit(nu, 2.0 / 3.0)[2] < 1e-6

    @pytest.mark.parametrize("nu, m", [(20.3, 0.5), (200.3, 0.5), (1234.56, 0.25),
                                       (1e7 + 0.3, 0.5), (1e11 + 0.3, 0.5), (1e300, 0.5)])
    def test_large_degree_against_high_precision_reference(self, nu, m):
        # m - nu must keep its fractional part: 20 digits beyond log10(nu)
        with mp.workdps(max(40, int(math.log10(nu)) + 25)):
            nu_mp, m_mp = mp.mpf(nu), mp.mpf(m)
            a_ref = mp.gamma(m_mp + 1) * mp.gamma(-m_mp) * mp.rgamma(nu_mp + 1) * mp.rgamma(-nu_mp)
            b_ref = (mp.power(4, m_mp) * mp.gamma(m_mp + 1) * mp.gamma(m_mp)
                     * mp.rgamma(m_mp - nu_mp) * mp.rgamma(m_mp + nu_mp + 1))
        fit = south_pole_coefficient(nu, m)
        # abs=0: b_sing ~ nu**(-2 m) falls below approx's default 1e-12 floor
        assert fit.a_reg == pytest.approx(float(a_ref), rel=1e-11, abs=0.0)
        assert fit.b_sing == pytest.approx(float(b_ref), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("m", [0.0, 1.0, 1.5, -0.3])
    def test_rejects_weight_outside_open_unit_interval(self, m):
        with pytest.raises(ValueError):
            south_pole_coefficient(1.0, m)

    def test_rejects_negative_degree(self):
        for nu in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="degree nu"):
                south_pole_coefficient(nu, 0.5)
