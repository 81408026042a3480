"""Unit tests for the ladder-operator numerics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from wedgemodes.angular import (
    POLE_CLIP,
    POLE_MARGIN,
    AngularFunction,
    SingularityFit,
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

    def test_zero_steps_returns_sectoral(self, grid):
        built = build_tesseral(0.75, 0, grid)
        np.testing.assert_array_equal(built.values, sectoral(0.75, grid).values)

    def test_rejects_negative_steps(self, grid):
        with pytest.raises(ValueError):
            build_tesseral(0.75, -1, grid)


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

    def test_fit_residual_is_small(self):
        for nu in (2.0 / 3.0, 7.0 / 6.0, 5.0 / 3.0):
            fit = south_pole_coefficient(nu, 2.0 / 3.0)
            assert fit.residual < 1e-6

    @pytest.mark.parametrize("m", [0.0, 1.0, 1.5, -0.3])
    def test_rejects_weight_outside_open_unit_interval(self, m):
        with pytest.raises(ValueError):
            south_pole_coefficient(1.0, m)

    def test_rejects_negative_degree(self):
        # a NaN degree would send the integrator into an endless step loop
        for nu in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="degree nu"):
                south_pole_coefficient(nu, 0.5)

    def test_fit_record_rejects_negative_residual(self):
        with pytest.raises(ValueError):
            SingularityFit(a_reg=1.0, b_sing=0.0, residual=-1e-3)
