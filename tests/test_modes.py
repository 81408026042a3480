"""Unit tests for mode enumeration and the resonance-root solvers."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest

from wedgemodes import modes
from wedgemodes.modes import (
    SPEED_OF_LIGHT,
    ModeId,
    ModeRecord,
    RootNotFoundError,
    WedgeConfig,
    azimuthal_index,
    classify,
    enumerate_spectrum,
    frequency,
    null_field_check,
    te_field_shape,
    te_root,
    tm_root,
)
from wedgemodes.specfun import riccati_derivative, spherical_j


RADIUS = 0.015  # 15 mm sphere used throughout the reference data


class TestWedgeConfig:
    def test_from_degrees_derives_domain(self):
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        assert cfg.wedge_angle == pytest.approx(math.pi / 2.0, rel=1e-15)
        assert cfg.domain_phi == pytest.approx(1.5 * math.pi, rel=1e-15)

    def test_full_sphere_has_full_domain(self):
        cfg = WedgeConfig(radius_a=RADIUS, wedge_angle=0.0)
        assert cfg.domain_phi == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_rejects_non_positive_radius(self):
        for radius in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                WedgeConfig(radius_a=radius, wedge_angle=1.0)

    def test_rejects_wedge_of_full_circle(self):
        with pytest.raises(ValueError):
            WedgeConfig(radius_a=RADIUS, wedge_angle=2.0 * math.pi)

    def test_rejects_negative_wedge(self):
        with pytest.raises(ValueError):
            WedgeConfig(radius_a=RADIUS, wedge_angle=-0.1)


class TestModeId:
    def test_rejects_unknown_polarisation(self):
        with pytest.raises(ValueError):
            ModeId(polarisation="TX", n=1, k=0, s=1, m=1.0)

    def test_rejects_azimuthally_constant_tm(self):
        with pytest.raises(ValueError):
            ModeId(polarisation="TM", n=0, k=0, s=1, m=0.0)

    def test_te_admits_harmonic_zero(self):
        mode = ModeId(polarisation="TE", n=0, k=1, s=1, m=0.0)
        assert mode.nu == 1.0

    def test_rejects_zero_radial_index(self):
        with pytest.raises(ValueError):
            ModeId(polarisation="TM", n=1, k=0, s=0, m=1.0)

    def test_rejects_negative_lowering_count(self):
        with pytest.raises(ValueError):
            ModeId(polarisation="TM", n=1, k=-1, s=1, m=1.0)


class TestModeRecord:
    def _mode(self):
        return ModeId(polarisation="TM", n=1, k=0, s=1, m=1.0)

    def test_rejects_non_positive_root(self):
        with pytest.raises(ValueError):
            ModeRecord(id=self._mode(), x=0.0, freq_hz=1e9)


class TestAzimuthalIndex:
    def test_quarter_wedge(self):
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        assert azimuthal_index(1, cfg) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_narrow_wedge(self):
        cfg = WedgeConfig.from_degrees(47.0, RADIUS)
        assert azimuthal_index(2, cfg) == pytest.approx(1.1502, abs=1e-4)

    def test_half_sphere_indices_are_integers(self):
        cfg = WedgeConfig.from_degrees(180.0, RADIUS)
        assert azimuthal_index(1, cfg) == pytest.approx(1.0, rel=1e-15)

    def test_rejects_negative_harmonic(self):
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        with pytest.raises(ValueError):
            azimuthal_index(-1, cfg)


class TestRoots:
    def test_first_zonal_te_root_is_pi(self):
        assert te_root(0.0, 1) == pytest.approx(math.pi, rel=1e-10)

    def test_higher_zonal_te_roots_are_integer_multiples_of_pi(self):
        for s in (2, 3):
            assert te_root(0.0, s) == pytest.approx(s * math.pi, rel=1e-10)

    def test_first_te_root_of_degree_one(self):
        assert te_root(1.0, 1) == pytest.approx(4.493409, abs=1e-5)

    def test_first_te_root_of_fractional_degree(self):
        assert te_root(2.0 / 3.0, 1) == pytest.approx(4.0548, abs=5e-4)

    def test_first_zonal_tm_root_is_half_pi(self):
        assert tm_root(0.0, 1) == pytest.approx(math.pi / 2.0, rel=1e-10)

    def test_first_tm_root_of_degree_one(self):
        assert tm_root(1.0, 1) == pytest.approx(2.7437, abs=5e-4)

    def test_first_tm_root_of_fractional_degree(self):
        assert tm_root(2.0 / 3.0, 1) == pytest.approx(2.3600, abs=5e-4)

    def test_root_beyond_window_raises(self):
        with pytest.raises(RootNotFoundError):
            te_root(35.0, 1)

    def test_rejects_negative_order(self):
        for nu in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="order nu"):
                te_root(nu, 1)
            with pytest.raises(ValueError, match="order nu"):
                tm_root(nu, 1)

    def test_order_at_or_above_the_window_has_no_root(self):
        # every zero of j_nu and of d/dx[x j_nu] lies above nu, so these
        # towers are empty below x = 40; for nu >~ 110 the series' first
        # term underflows, which must not surface as a ConvergenceError
        for nu in (40.0, 120.0, 400.0):
            with pytest.raises(RootNotFoundError):
                te_root(nu, 1)
            with pytest.raises(RootNotFoundError):
                tm_root(nu, 1)

    def test_rejects_zero_radial_index(self):
        with pytest.raises(ValueError):
            te_root(1.0, 0)

    def test_first_roots_increase_with_degree(self):
        orders = np.arange(0.0, 3.05, 0.1)
        te = [te_root(float(nu), 1) for nu in orders]
        tm = [tm_root(float(nu), 1) for nu in orders]
        assert all(b > a for a, b in zip(te, te[1:]))
        assert all(b > a for a, b in zip(tm, tm[1:]))

    def test_roots_increase_with_radial_index(self):
        assert te_root(1.0, 2) > te_root(1.0, 1)
        assert tm_root(1.0, 2) > tm_root(1.0, 1)

    def test_listing_a_tower_resumes_one_scan(self, monkeypatch):
        # restarting the scan from x = 0.05 for every radial index costs
        # 4091 evaluations here; one resumed scan costs under a thousand
        calls = 0

        def counted(nu, x):
            nonlocal calls
            calls += 1
            return spherical_j(nu, x)

        monkeypatch.setattr(modes, "_TOWERS", {})
        monkeypatch.setattr(modes, "spherical_j", counted)
        s = 1
        while te_root(1.0, s) < 30.0:
            s += 1
        assert s == 10
        assert calls <= 1100

    def test_root_is_the_same_float_before_and_after_enumeration(self, monkeypatch):
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        nu = azimuthal_index(1, cfg) + 1.0  # the n = 1, k = 1 tower
        monkeypatch.setattr(modes, "_TOWERS", {})
        cold = [te_root(nu, s) for s in (1, 2, 3)]
        monkeypatch.setattr(modes, "_TOWERS", {})
        records = enumerate_spectrum(cfg, 31.8e9)
        scanned = sorted(
            rec.x for rec in records
            if rec.id.polarisation == "TE" and rec.id.n == 1 and rec.id.k == 1
        )
        # the cap (x = 10) stops the scan below the third root, so the
        # request for it resumes the enumeration's scan
        assert scanned == cold[:2]
        assert te_root(nu, 3) == cold[2]

    @pytest.mark.parametrize("nu", [1.5, 2.5, 3.5])
    def test_concurrent_requests_resume_one_scan(self, monkeypatch, nu):
        monkeypatch.setattr(modes, "_TOWERS", {})
        want = [te_root(nu, s) for s in range(1, 9)]
        monkeypatch.setattr(modes, "_TOWERS", {})
        got = {}

        def request(i):
            order = range(1, 9) if i % 2 else range(8, 0, -1)
            got[i] = sorted(te_root(nu, s) for s in order)

        threads = [threading.Thread(target=request, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(got[i] == want for i in range(8))
        assert modes._TOWERS[("TE", nu)].roots == want

    def test_residuals_vanish_at_reported_roots(self):
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        for rec in enumerate_spectrum(cfg, 13.69e9):
            if rec.id.polarisation == "TE":
                residual = spherical_j(rec.id.nu, rec.x)
            else:
                residual = riccati_derivative(rec.id.nu, rec.x)
            assert abs(residual) < 1e-9


class TestFrequency:
    def test_zonal_te_frequency_from_pi_root(self):
        assert frequency(math.pi, RADIUS) == pytest.approx(9.9931e9, rel=1e-4)

    def test_degree_one_te_frequency(self):
        assert frequency(4.493409, RADIUS) == pytest.approx(14.293e9, rel=1e-4)

    def test_scaling_matches_exact_light_speed(self):
        x = 2.35998
        expected = SPEED_OF_LIGHT * x / (2.0 * math.pi * RADIUS)
        assert frequency(x, RADIUS) == expected

    def test_rejects_non_positive_arguments(self):
        with pytest.raises(ValueError):
            frequency(0.0, RADIUS)
        with pytest.raises(ValueError):
            frequency(2.0, 0.0)
        with pytest.raises(ValueError):
            frequency(2.0, math.nan)


class TestClassify:
    def test_sectoral(self):
        mode = ModeId(polarisation="TM", n=1, k=0, s=1, m=2.0 / 3.0)
        assert classify(mode) == "sectoral"

    def test_tesseral(self):
        mode = ModeId(polarisation="TM", n=1, k=1, s=1, m=2.0 / 3.0)
        assert classify(mode) == "tesseral"

    def test_zonal(self):
        mode = ModeId(polarisation="TE", n=0, k=1, s=1, m=0.0)
        assert classify(mode) == "zonal"


class TestNullFieldCheck:
    def test_only_the_doubly_zero_mode_is_null(self):
        assert null_field_check(0.0, 0.0) is True
        assert null_field_check(1.0, 0.0) is False
        assert null_field_check(2.0 / 3.0, 2.0 / 3.0) is False


class TestEnumerate:
    def test_quarter_wedge_sequence(self):
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        records = enumerate_spectrum(cfg, 13.69e9)
        expected = [
            ("TM", 1, 0, 1, 7.5068, "sectoral"),
            ("TM", 2, 0, 1, 9.9330, "sectoral"),
            ("TM", 1, 1, 1, 11.1267, "tesseral"),
            ("TM", 3, 0, 1, 12.3108, "sectoral"),
            ("TE", 1, 0, 1, 12.8981, "sectoral"),
            ("TM", 2, 1, 1, 13.4870, "tesseral"),
        ]
        assert len(records) == len(expected)
        for rec, (pol, n, k, s, freq_ghz, family) in zip(records, expected):
            assert rec.id.polarisation == pol
            assert (rec.id.n, rec.id.k, rec.id.s) == (n, k, s)
            assert rec.freq_hz / 1e9 == pytest.approx(freq_ghz, abs=5e-4)
            assert rec.family == family
            assert rec.freq_hz == frequency(rec.x, RADIUS)

    def test_half_sphere_sequence_with_degeneracies(self):
        cfg = WedgeConfig.from_degrees(180.0, RADIUS)
        records = enumerate_spectrum(cfg, 14.5e9)
        expected = [
            ("TM", 1, 0, 1, 8.7274, "sectoral"),
            ("TM", 1, 1, 1, 12.3108, "tesseral"),
            ("TM", 2, 0, 1, 12.3108, "sectoral"),
            ("TE", 0, 1, 1, 14.2931, "zonal"),
            ("TE", 1, 0, 1, 14.2931, "sectoral"),
        ]
        assert len(records) == len(expected)
        for rec, (pol, n, k, s, freq_ghz, family) in zip(records, expected):
            assert rec.id.polarisation == pol
            assert (rec.id.n, rec.id.k, rec.id.s) == (n, k, s)
            assert rec.freq_hz / 1e9 == pytest.approx(freq_ghz, abs=5e-4)
            assert rec.family == family
        # the two degenerate pairs share a dimensionless root exactly
        assert records[1].x == records[2].x
        assert records[3].x == records[4].x

    def test_cap_below_first_mode_gives_empty_spectrum(self):
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        assert enumerate_spectrum(cfg, 1.0) == []

    def test_non_positive_cap_gives_empty_spectrum(self):
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        assert enumerate_spectrum(cfg, 0.0) == []

    def test_rejects_unknown_polarisation(self):
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        with pytest.raises(ValueError):
            enumerate_spectrum(cfg, 1e10, polarisations={"TM", "TX"})

    def test_rejects_cap_beyond_root_window(self):
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        for cap in (400e9, math.inf, math.nan):
            with pytest.raises(ValueError):
                enumerate_spectrum(cfg, cap)

    def test_te_only_filter(self):
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        records = enumerate_spectrum(cfg, 14e9, polarisations={"TE"})
        assert len(records) == 1
        assert records[0].id.polarisation == "TE"
        assert records[0].freq_hz / 1e9 == pytest.approx(12.8981, abs=5e-4)

    def test_repeated_calls_are_identical(self):
        cfg = WedgeConfig.from_degrees(47.0, RADIUS)
        assert enumerate_spectrum(cfg, 13.04e9) == enumerate_spectrum(cfg, 13.04e9)


class TestTeFieldShape:
    def test_axisymmetric_mode_has_no_theta_component(self):
        e_theta, e_phi = te_field_shape(1.0, 0.0, 2.0, 0.7)
        assert e_theta == 0.0
        # profile cos(theta) differentiates to -sin(theta)
        expected_phi = spherical_j(1.0, 2.0) * (-math.sin(0.7))
        assert e_phi == pytest.approx(expected_phi, rel=1e-9)

    def test_sectoral_mode_components(self):
        e_theta, e_phi = te_field_shape(1.0, 1.0, 2.0, 0.7)
        radial = spherical_j(1.0, 2.0)
        # (m/sin) * sin profile cancels to the bare radial factor
        assert e_theta == pytest.approx(radial, rel=1e-12)
        assert e_phi == pytest.approx(radial * math.cos(0.7), rel=1e-8)

    def test_null_mode_yields_zero_field(self):
        assert te_field_shape(0.0, 0.0, 2.0, 1.1) == (0.0, 0.0)

    @pytest.mark.parametrize("theta", [0.0, math.pi, -1.0])
    def test_rejects_polar_angles(self, theta):
        with pytest.raises(ValueError):
            te_field_shape(1.0, 1.0, 2.0, theta)
