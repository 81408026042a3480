"""Unit tests for mode enumeration and the resonance-root solvers."""

from __future__ import annotations

import hashlib
import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest

from wedgemodes import modes, specfun
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


def fresh_memos(monkeypatch):
    """Empty tower and wedge-plan memos for the rest of the test: a plan
    built earlier would serve an enumeration without touching a tower."""
    monkeypatch.setattr(modes, "_TOWERS", {})
    monkeypatch.setattr(modes, "_PLANS", {})


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

    @pytest.mark.parametrize("field", ["n", "k", "s"])
    @pytest.mark.parametrize("value", [1.5, 2.0, math.nan])
    def test_rejects_non_integral_indices(self, field, value):
        indices = {"n": 1, "k": 1, "s": 1, field: value}
        with pytest.raises(ValueError, match="must be an integer"):
            ModeId(polarisation="TE", m=1.0, **indices)

    @pytest.mark.parametrize("m", [-0.5, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_azimuthal_index(self, m):
        # classify called m = nan and m = inf "sectoral"
        with pytest.raises(ValueError, match="azimuthal index m must be finite"):
            ModeId(polarisation="TE", n=1, k=0, s=1, m=m)

    def test_accepts_numpy_integer_indices(self):
        mode = ModeId(polarisation="TE", n=np.int64(1), k=np.int64(2), s=np.int64(1), m=1.0)
        assert mode.nu == 3.0


class TestModeRecord:
    def _mode(self):
        return ModeId(polarisation="TM", n=1, k=0, s=1, m=1.0)

    def test_rejects_non_positive_root(self):
        with pytest.raises(ValueError):
            ModeRecord(id=self._mode(), x=0.0, freq_hz=1e9)

    @pytest.mark.parametrize("x, freq_hz", [(math.nan, 1e9), (math.inf, 1e9),
                                            (1.0, math.nan), (1.0, math.inf)])
    def test_rejects_non_finite_root_or_frequency(self, x, freq_hz):
        with pytest.raises(ValueError, match="positive and finite"):
            ModeRecord(id=self._mode(), x=x, freq_hz=freq_hz)


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

    def test_rejects_non_integral_harmonic(self):
        # m = n pi / Phi is quantised only at integer n
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        for n in (1.5, 2.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="must be an integer"):
                azimuthal_index(n, cfg)
        assert azimuthal_index(np.int64(2), cfg) == azimuthal_index(2, cfg)


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
        # every zero of j_nu and of d/dx[x j_nu] lies above the turning
        # point sqrt(nu (nu + 1)) > 40, so these towers are empty below the
        # x = 40 window and are not scanned
        for nu in (40.0, 120.0, 400.0):
            with pytest.raises(RootNotFoundError):
                te_root(nu, 1)
            with pytest.raises(RootNotFoundError):
                tm_root(nu, 1)

    def test_rejects_zero_radial_index(self):
        with pytest.raises(ValueError):
            te_root(1.0, 0)

    def test_rejects_non_integral_radial_index(self):
        # refused before the memo is touched; integer calls are unaffected
        first = te_root(1.0, 1)
        memo = {key: (list(roots), i) for key, (roots, i) in modes._TOWERS.items()}
        for root in (te_root, tm_root):
            for s in (1.5, 2.0, math.nan, math.inf, "2"):
                with pytest.raises(ValueError, match="root index s must be an integer"):
                    root(1.0, s)
        assert {key: (list(roots), i) for key, (roots, i) in modes._TOWERS.items()} == memo
        assert te_root(1.0, np.int64(1)) == first

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
        # 4091 evaluations here; one resumed scan of every grid point from
        # the turning point costs 953, and skipping the pi - 0.05 after
        # each root where no root can lie leaves 384 when stepping.  Halving
        # each window costs more here (399): each next root of nu = 1 lies
        # one or two points past the skip, where halving a 62-point window
        # takes about 7 evaluations and stepping 1 or 2.  Evaluating the scan
        # point when a request resumes, not storing its value when one stops,
        # saves the evaluation after the tenth root (398)
        calls = 0

        def counted(nu, x):
            nonlocal calls
            calls += 1
            return spherical_j(nu, x)

        fresh_memos(monkeypatch)
        monkeypatch.setattr(modes, "spherical_j", counted)
        s = 1
        while te_root(1.0, s) < 30.0:
            s += 1
        assert s == 10
        assert calls == 398

    def test_root_is_the_same_float_before_and_after_enumeration(self, monkeypatch):
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        nu = azimuthal_index(1, cfg) + 1.0  # the n = 1, k = 1 tower
        fresh_memos(monkeypatch)
        cold = [te_root(nu, s) for s in (1, 2, 3)]
        fresh_memos(monkeypatch)
        records = enumerate_spectrum(cfg, 31.8e9)
        scanned = sorted(
            rec.x for rec in records
            if rec.id.polarisation == "TE" and rec.id.n == 1 and rec.id.k == 1
        )
        # the cap (x = 10) stops the scan below the third root, so the
        # request for it resumes the enumeration's scan
        assert scanned == cold[:2]
        assert te_root(nu, 3) == cold[2]

    @pytest.mark.parametrize("pol, func", [("TE", "spherical_j"),
                                           ("TM", "riccati_derivative")])
    def test_scan_starts_at_the_turning_point(self, monkeypatch, pol, func):
        # from x = 0.05 the nu = 10 tower costs 464 evaluations up to x = 20;
        # starting below sqrt(110) ~ 10.49 (TM) or sqrt(110) + pi/2 (TE) and
        # skipping pi - 0.05 after each root leaves 139 and 146 when
        # stepping, and halving each window of pi leaves 80 and 81.  The
        # resume point after the second root lies above the cap, and it is
        # no longer evaluated there (79 and 80)
        calls = 0
        plain = getattr(modes, func)

        def counted(nu, x):
            nonlocal calls
            calls += 1
            return plain(nu, x)

        fresh_memos(monkeypatch)
        monkeypatch.setattr(modes, func, counted)
        roots = modes._tower_roots(pol, 10.0, math.inf, 20.0)
        assert len(roots) == 2
        assert calls == {"TE": 80, "TM": 79}[pol]

    @pytest.mark.parametrize("pol", ["TE", "TM"])
    def test_skipping_keeps_the_floats_of_a_plain_scan(self, monkeypatch, pol):
        # the engine evaluates only where a root can be; a plain scan of every
        # point of the same accumulated 0.05 grid from x = 0.05, bisected by
        # the same routine, must give the same floats below x = 34.  Above it
        # the characteristic values are too inaccurate for that (phantom and
        # misplaced roots), and the engine may only have dropped roots
        func = spherical_j if pol == "TE" else riccati_derivative

        def plain_scan(nu):
            roots = []
            x, f_x = 0.05, func(nu, 0.05)
            while x + 0.05 <= 40.0:
                x_next = x + 0.05
                f_next = func(nu, x_next)
                if f_next == 0.0:
                    roots.append(x_next)
                elif (f_x < 0.0) != (f_next < 0.0):
                    roots.append(modes._bisect(func, nu, x, f_x, x_next))
                x, f_x = x_next, f_next
            return roots

        rng = np.random.default_rng(12 if pol == "TE" else 13)
        for nu in [0.0, 1.0, *rng.uniform(0.0, 30.0, 14)]:
            nu = float(nu)
            fresh_memos(monkeypatch)
            got = list(modes._tower_roots(pol, nu, math.inf, 40.0))
            want = plain_scan(nu)
            assert [x for x in got if x < 34.0] == [x for x in want if x < 34.0], nu
            assert set(got) <= set(want), nu

    @pytest.mark.parametrize("pol", ["TE", "TM"])
    def test_halving_finds_the_brackets_that_stepping_finds(self, monkeypatch, pol):
        # a window (g, g + pi] from a scan point g below the next root holds
        # at most one root, so halving it finds the grid pair that stepping
        # every point finds.  With the halving bound at x = 0 every window is
        # one step; the default lists, requested as one root, then up to a
        # random cap, then to x = 40, must be the same floats
        rng = np.random.default_rng(14 if pol == "TE" else 15)
        orders = [0.0, *map(float, rng.uniform(0.0, 39.5, 15))]
        caps = rng.uniform(0.5, 40.0, len(orders))
        fresh_memos(monkeypatch)
        halved = {}
        for nu, cap in zip(orders, caps):
            modes._tower_roots(pol, nu, 1, 40.0)
            modes._tower_roots(pol, nu, math.inf, float(cap))
            halved[nu] = list(modes._tower_roots(pol, nu, math.inf, 40.0))
        fresh_memos(monkeypatch)
        monkeypatch.setattr(modes, "_HALVING_MAX_X", 0.0)
        stepped = {nu: list(modes._tower_roots(pol, nu, math.inf, 40.0)) for nu in orders}
        assert halved == stepped
        assert sum(map(len, halved.values())) > 2 * len(orders)

    def test_returned_roots_are_a_copy(self, monkeypatch):
        # the engine hands out a new list each time, so a caller that edits
        # one changes neither the memo nor any later answer
        fresh_memos(monkeypatch)
        got = modes._tower_roots("TE", 2.5, 3, 40.0)
        want = list(got)
        got[0] = -1.0
        got.append(99.0)
        assert modes._tower_roots("TE", 2.5, 3, 40.0) == want
        got = modes._tower_roots("TE", 2.5, math.inf, 20.0)
        below = list(got)
        got.clear()
        assert [te_root(2.5, s) for s in (1, 2, 3)] == want == below[:3]
        assert modes._tower_roots("TE", 2.5, math.inf, 20.0) == below
        assert modes._TOWERS[("TE", 2.5)][0] == below

    def test_an_interrupted_scan_leaves_no_partial_tower(self, monkeypatch):
        # a scan that raises puts its tower back neither with roots appended
        # nor with a stale scan index, so the next request lists each root
        # once, as a request to an empty memo does
        fresh_memos(monkeypatch)
        calls = 0

        def interrupted(nu, x):
            nonlocal calls
            calls += 1
            if calls == 60:
                raise KeyboardInterrupt
            return spherical_j(nu, x)

        monkeypatch.setattr(modes, "spherical_j", interrupted)
        with pytest.raises(KeyboardInterrupt):
            modes._tower_roots("TE", 1.5, 10, 30.0)
        monkeypatch.setattr(modes, "spherical_j", spherical_j)
        got = modes._tower_roots("TE", 1.5, 10, 30.0)
        fresh_memos(monkeypatch)
        assert got == modes._tower_roots("TE", 1.5, 10, 30.0)
        assert len(set(got)) == len(got) == 8

    @pytest.mark.parametrize("pol", ["TE", "TM"])
    def test_any_order_of_counts_and_caps_gives_the_same_floats(self, monkeypatch, pol):
        # every request returns the first `count` roots at or below its cap
        # of the list one full scan finds, whatever was asked before it
        rng = np.random.default_rng(16 if pol == "TE" else 17)
        orders = [0.0, 1.0, *map(float, rng.uniform(0.0, 30.0, 10))]
        fresh_memos(monkeypatch)
        full = {nu: modes._tower_roots(pol, nu, math.inf, 40.0) for nu in orders}
        fresh_memos(monkeypatch)
        root = te_root if pol == "TE" else tm_root
        for _ in range(300):
            nu = orders[rng.integers(len(orders))]
            count = [math.inf, *range(6)][rng.integers(7)]
            cap = float(rng.uniform(0.0, 40.0))
            want = [x for i, x in enumerate(full[nu]) if i < count and x <= cap]
            assert modes._tower_roots(pol, nu, count, cap) == want, (nu, count, cap)
            s = int(rng.integers(1, len(full[nu]) + 1))
            assert root(nu, s) == full[nu][s - 1], (nu, s)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="above x ~ 34 the Bessel values are inaccurate: the 11th root "
        "comes out at 36.728 (mpmath 36.676), the skip after it resumes the "
        "scan at 39.82, and the 12th root at 39.821 is lost",
    )
    def test_skip_after_a_misplaced_root_keeps_the_next_one(self, monkeypatch):
        nu = 1.3773128604344242
        fresh_memos(monkeypatch)
        got = modes._tower_roots("TE", nu, math.inf, 40.0)
        with mp.workdps(30):
            mu = mp.mpf(nu) + mp.mpf(1) / 2
            want = 0
            while mp.besseljzero(mu, want + 1) < 40:
                want += 1
        assert len(got) == want

    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.0 / 3.0, 2.7027027027027026, 10.0, 17.3, 29.6])
    def test_pruefer_bounds_hold_for_mpmath_zeros(self, nu):
        # the scan skips where the Pruefer angle of u = x j_nu rules out a
        # root: consecutive TE zeros (u = 0) and consecutive TM zeros (u' = 0)
        # are at least pi apart, with equality at nu = 0 (k pi and (k + 1/2) pi),
        # and the first TE zero lies above sqrt(nu (nu + 1)) + pi / 2
        with mp.workdps(30):
            mu = mp.mpf(nu) + mp.mpf(1) / 2
            te = []
            while not te or te[-1] < 40:
                te.append(mp.besseljzero(mu, len(te) + 1))

            def du(x):  # d/dx [x j_nu(x)], up to a positive factor
                return (nu + 1) * mp.besselj(mu, x) - x * mp.besselj(mu + 1, x)

            # u' has exactly one zero between the turning point, where u and
            # u' are positive (just above it at nu = 0, where u(0) = 0), and
            # the first zero of u, and one between consecutive zeros of u
            turn = mp.sqrt(mp.mpf(nu) * (nu + 1))
            ends = [turn + mp.mpf(10) ** -3, *te]
            tm = [mp.findroot(du, (lo, hi), solver="anderson") for lo, hi in zip(ends, ends[1:])]
            assert all(lo < x < hi for x, lo, hi in zip(tm, ends, ends[1:]))
            assert te[0] > turn + mp.pi / 2
            for zeros in (te, tm):
                gaps = [b - a for a, b in zip(zeros, zeros[1:])]
                if nu == 0.0:
                    assert all(abs(g - mp.pi) < mp.mpf(10) ** -25 for g in gaps)
                else:
                    assert all(g > mp.pi for g in gaps)
            if nu == 0.0:
                assert abs(te[0] - mp.pi) < mp.mpf(10) ** -25
                assert abs(tm[0] - mp.pi / 2) < mp.mpf(10) ** -25

    def test_memo_keeps_the_most_recent_towers(self, monkeypatch):
        fresh_memos(monkeypatch)
        first = [te_root(1.5, s) for s in (1, 2)]
        # an empty request creates the tower but evaluates nothing
        orders = [2.0 + 1e-3 * i for i in range(modes._TOWERS_MAX + 10)]
        for nu in orders:
            modes._tower_roots("TE", nu, 0, 20.0)
        assert len(modes._TOWERS) == modes._TOWERS_MAX
        assert ("TE", 1.5) not in modes._TOWERS
        assert ("TE", orders[-1]) in modes._TOWERS
        assert [te_root(1.5, s) for s in (1, 2)] == first
        assert len(modes._TOWERS) == modes._TOWERS_MAX
        # a request moves its tower to the young end of the memo
        modes._tower_roots("TE", orders[-modes._TOWERS_MAX + 1], 0, 20.0)
        modes._tower_roots("TE", 1.25, 0, 20.0)
        assert ("TE", orders[-modes._TOWERS_MAX + 1]) in modes._TOWERS

    def test_roots_at_wide_caps_are_frozen(self, monkeypatch):
        # digest of the root floats as the scan from x = 0.05 found them:
        # a 300-degree wedge of radius 30 mm up to x = 30, and the root
        # lists to x = 40 of the window-edge order 5 pi / Phi(27 degrees),
        # of nu = 10, and of orders whose turning point lies just below or
        # above the window.
        # The last bits of these roots are set by the rounding noise of the
        # ascending series, so the digest moved when ln Gamma(order + 1)
        # came to be math.lgamma: 438 of the 674 roots present in both
        # moved, and the worst error below x = 20 against mpmath, 1.71e-10,
        # did not change.  It moved again when the scan came to skip the
        # pi - 0.05 after each root: the 620 records kept their floats, and
        # the x = 40 lists lost only phantom roots above x = 36 (TE and TM
        # at the window-edge order 19 -> 11 and 17 -> 11, TE at nu = 10
        # 12 -> 8, each now mpmath's count below 40); every root kept is the
        # same float.  It moved again when the series came to be summed
        # without compensation and riccati_derivative to use one formula for
        # every nu: 316 of the 659 roots kept their floats, every band of x
        # kept its count, and the worst error against mpmath went
        # 1.71e-10 -> 7.5e-11 below x = 20, 1.08e-6 -> 1.06e-6 at 20-30,
        # 8.2e-6 -> 4.7e-5 at 30-34 (one TM root of the window-edge order;
        # rounding noise, see CHANGES.md) and 1.421e-3 -> 1.424e-3 at 34-40.
        # It moved again when degrees equal but for rounding came to share
        # one tower: 273 of the 620 records took the float of the same mode
        # in the degree's smallest-n tower (351 -> 189 distinct floats), the
        # x = 40 lists kept theirs, and no band's worst error moved
        fresh_memos(monkeypatch)
        digest = hashlib.sha256()
        radius = 0.03
        cfg = WedgeConfig.from_degrees(300.0, radius)
        records = enumerate_spectrum(cfg, 30.0 * SPEED_OF_LIGHT / (2.0 * math.pi * radius))
        assert len(records) == 620
        for r in records:
            digest.update(f"{r.id.polarisation} {r.id.n} {r.id.k} {r.id.s} {r.x.hex()}\n".encode())
        edge = azimuthal_index(5, WedgeConfig.from_degrees(27.0, RADIUS))
        for pol, nu in (("TE", edge), ("TM", edge), ("TE", 10.0), ("TM", 10.0),
                        ("TM", 33.3), ("TE", 39.4), ("TE", 120.0)):
            for x in modes._tower_roots(pol, nu, math.inf, 40.0):
                digest.update(f"{pol} {nu.hex()} {x.hex()}\n".encode())
        assert digest.hexdigest().startswith("eb61e12aed16eb5c")

    @pytest.mark.parametrize("nu", [1.5, 2.5, 3.5])
    def test_concurrent_requests_resume_one_scan(self, monkeypatch, nu):
        fresh_memos(monkeypatch)
        want = [te_root(nu, s) for s in range(1, 9)]
        fresh_memos(monkeypatch)
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
        assert modes._TOWERS[("TE", nu)][0] == want

    def test_residuals_vanish_at_reported_roots(self):
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        for rec in enumerate_spectrum(cfg, 13.69e9):
            if rec.id.polarisation == "TE":
                residual = spherical_j(rec.id.nu, rec.x)
            else:
                residual = riccati_derivative(rec.id.nu, rec.x)
            assert abs(residual) < 1e-9

    def test_no_root_bracket_reaches_the_refold(self, monkeypatch):
        # a root may lie just below pi/2 (the first TM root of degree 0 is
        # 3.8e-13 under it), but the refold of an underflowed j_nu or
        # (x j_nu)' serves only 0 or subnormal values, which no bracket
        # evaluates; so no root float depends on the refold
        assert tm_root(0.0, 1) < 0.5 * math.pi

        def refuse(order, x):
            raise AssertionError(f"refold reached at order {order}, x = {x}")

        monkeypatch.setattr(specfun, "_scaled_bessel", refuse)
        fresh_memos(monkeypatch)
        for nu in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0):
            for pol in ("TE", "TM"):
                assert modes._tower_roots(pol, nu, math.inf, 40.0)
        for wedge_deg in (0.0, 27.0, 90.0, 180.0, 300.0):
            assert enumerate_spectrum(WedgeConfig.from_degrees(wedge_deg, 0.03), 20e9)


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
        with pytest.raises(ValueError):
            frequency(2.0, math.inf)
        with pytest.raises(ValueError):
            frequency(math.inf, RADIUS)


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

    def test_rejects_unknown_polarisation_at_any_cap(self):
        # the refusal comes before the walk, which yields no tower at a
        # cap at or below zero
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        for cap in (0.0, -1e9):
            assert enumerate_spectrum(cfg, cap) == []
            with pytest.raises(ValueError, match="unknown polarisations"):
                enumerate_spectrum(cfg, cap, polarisations={"TX"})

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
        assert e_phi == pytest.approx(expected_phi, rel=1e-13)

    def test_sectoral_mode_components(self):
        e_theta, e_phi = te_field_shape(1.0, 1.0, 2.0, 0.7)
        radial = spherical_j(1.0, 2.0)
        # (m/sin) * sin profile cancels to the bare radial factor
        assert e_theta == pytest.approx(radial, rel=1e-12)
        assert e_phi == pytest.approx(radial * math.cos(0.7), rel=1e-13)

    def test_null_mode_yields_zero_field(self):
        assert te_field_shape(0.0, 0.0, 2.0, 1.1) == (0.0, 0.0)

    def test_derivative_against_high_precision_reference(self):
        # e_phi / j_nu is d Theta / d theta; the reference differentiates
        # sin^m * 2F1(m - nu, m + nu + 1; m + 1; sin^2(theta/2)) in mpmath
        def profile(nu, m, t):
            return mp.sin(t) ** m * mp.hyp2f1(m - nu, m + nu + 1, m + 1, mp.sin(t / 2) ** 2)

        rng = np.random.default_rng(11)
        samples = np.linspace(0.05, 2.4, 8)
        with mp.workdps(30):
            for _ in range(100):
                m = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.05, 6.0))
                nu = m + int(rng.integers(0, 7))
                x = float(rng.uniform(0.5, 12.0))
                theta = float(rng.uniform(0.05, 2.4))
                _, e_phi = te_field_shape(nu, m, x, theta)
                size = max(abs(profile(nu, m, float(t))) for t in samples)
                want = mp.diff(lambda t: profile(nu, m, t), theta)
                err = abs(e_phi / spherical_j(nu, x) - want)
                assert err <= 1e-11 * size * (nu + 1.0), (nu, m, x, theta)

    @pytest.mark.parametrize("theta", [0.0, math.pi, -1.0])
    def test_rejects_polar_angles(self, theta):
        with pytest.raises(ValueError):
            te_field_shape(1.0, 1.0, 2.0, theta)


def test_equal_degrees_share_one_tower(monkeypatch):
    # m_n = n pi / Phi rounds differently for each n: on a 300 degree wedge
    # m_1 = 3.000000000000001 and m_2 = 6.000000000000002, so its degrees
    # 3n + k came in several floats each, were scanned as 111 towers and
    # got roots that differ by rounding noise.  Scanned once per degree,
    # they are one tower per degree whose bound lies below the cap (51, the
    # null-field TE nu = 0 excepted), equal modes share their root float,
    # and rows that agree to print precision follow the (TM, n, k, s) rule
    fresh_memos(monkeypatch)
    records = enumerate_spectrum(WedgeConfig.from_degrees(300.0, 0.03), 45e9)
    assert len(records) == 530
    keys = sorted(modes._TOWERS)
    assert not any(p == q and nu_b - nu_a <= 1e-9
                   for (p, nu_a), (q, nu_b) in zip(keys, keys[1:]))
    # the degrees 3n + k are the integers from 3 for TM and from 0 for TE,
    # whose null-field nu = 0 tower is not scanned
    x_cap = 2.0 * math.pi * 0.03 * 45e9 / SPEED_OF_LIGHT
    degrees = {(pol, d) for pol, low in (("TM", 3), ("TE", 1)) for d in range(low, 40)
               if modes._root_bound(pol, d) < x_cap}
    assert len(keys) == len(degrees)
    assert {(pol, round(nu)) for pol, nu in keys} == degrees
    groups: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for r in records:
        groups.setdefault((r.id.polarisation, r.id.s), []).append((r.id.nu, r.x))
    shared = 0
    for key, same in groups.items():
        same.sort()
        for (nu_a, x_a), (nu_b, x_b) in zip(same, same[1:]):
            if nu_b - nu_a <= 1e-9:
                assert x_a == x_b, (key, nu_a, nu_b)
                shared += 1
    assert shared == 362

    def order(r):
        return (r.id.polarisation != "TM", r.id.n, r.id.k, r.id.s)

    ties = [(a, b) for a, b in zip(records, records[1:])
            if math.isclose(a.x, b.x, rel_tol=1e-6)]
    assert len(ties) == 362
    assert all(order(a) < order(b) for a, b in ties)


def walk_without_plan(config, f_max_hz, polarisations):
    """The records of ``enumerate_spectrum`` as it was before wedge plans:
    every tower requested at the call's own cap, sorted by the full key."""
    x_cap = 2.0 * math.pi * config.radius_a * f_max_hz / SPEED_OF_LIGHT
    records = []
    for pol in polarisations:
        n = 1 if pol == "TM" else 0
        weights = []
        while True:
            m = azimuthal_index(n, config)
            base, shift = m, 0
            for w in weights:
                j = round(m - w)
                if abs(m - w - j) <= modes._SAME_DEGREE_TOL:
                    base, shift = w, j
                    break
            weights.append(m)
            k = 0
            while xs := modes._tower_roots(pol, base + (k + shift), math.inf, x_cap):
                if not (pol == "TE" and null_field_check(m + k, m)):
                    records += [ModeRecord(ModeId(pol, n, k, s, m), x,
                                           frequency(x, config.radius_a))
                                for s, x in enumerate(xs, 1)]
                k += 1
            if k == 0:
                break
            n += 1
    records.sort(key=lambda r: (r.freq_hz, r.id.polarisation != "TM", r.id.n, r.id.k, r.id.s))
    return records


def plan_requests(seed, count_per_opening):
    """Seeded (opening in degrees, radius, f_max, polarisations) requests in
    random order: the openings 0, 27, 90, 180 and 300 degrees and random
    ones, random radii, x caps up to 40 where the opening's towers are few
    enough to scan to 40 quickly, and some caps above x = 34."""
    rng = np.random.default_rng(seed)
    top = {0.0: 16.0, 27.0: 14.0, 90.0: 36.0, 180.0: 40.0, 300.0: 40.0}
    top.update((float(d), 36.0) for d in rng.uniform(100.0, 350.0, 2))
    pols = (frozenset(("TM", "TE")), frozenset(("TM", "TE")), frozenset(("TE",)),
            frozenset(("TM",)))
    requests = []
    for deg, x_top in top.items():
        for _ in range(count_per_opening):
            radius = float(rng.uniform(0.005, 0.04))
            x_cap = float(rng.uniform(0.5, x_top)) * (1.0 - 1e-12)
            f_max = x_cap * SPEED_OF_LIGHT / (2.0 * math.pi * radius)
            requests.append((deg, radius, f_max, pols[rng.integers(len(pols))]))
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


class TestWedgePlans:
    def test_plan_served_records_equal_a_walk_without_plan(self, monkeypatch):
        # the same ids, x floats, frequency floats and order at every cap up
        # to 40, above x = 34 too, whether the plan serving a request was
        # built at its cap, at a wider one, or after both memos were emptied
        fresh_memos(monkeypatch)
        requests = plan_requests(18, 6)
        # each request is followed by one at a lower cap and another radius,
        # which an existing plan serves
        rng = np.random.default_rng(20)
        requests = [req for deg, radius, f_max, pols in requests
                    for req in ((deg, radius, f_max, pols),
                                (deg, 0.02, f_max * radius / 0.02 * rng.random(), pols))]
        served = above_34 = 0
        for i, (deg, radius, f_max, pols) in enumerate(requests):
            if i in (len(requests) // 3, 2 * len(requests) // 3):
                fresh_memos(monkeypatch)
            config = WedgeConfig.from_degrees(deg, radius)
            x_cap = 2.0 * math.pi * radius * f_max / SPEED_OF_LIGHT
            plan = modes._PLANS.get((config.wedge_angle, pols))
            served += plan is not None and plan[0] >= x_cap
            got = enumerate_spectrum(config, f_max, set(pols))
            assert got == walk_without_plan(config, f_max, pols), (deg, radius, f_max, pols)
            above_34 += sum(r.x > 34.0 for r in got)
        assert len(requests) == 84
        assert served >= 42 and above_34 > 0, (served, above_34)

    @pytest.mark.parametrize("pol", ["TE", "TM"])
    def test_first_roots_lie_above_the_bound_below_which_no_tower_is_scanned(
            self, monkeypatch, pol):
        # a walk requests the towers whose Pruefer bound lies below its cap,
        # and a plan built at a wider cap is cut at that cap by x; the two
        # list the same modes only because every root lies above its
        # tower's bound, the one premise of a plan cut
        fresh_memos(monkeypatch)
        rng = np.random.default_rng(21 if pol == "TE" else 22)
        found = 0
        for nu in [0.0, *map(float, rng.uniform(0.0, 39.5, 300))]:
            bound = modes._root_bound(pol, nu)
            first = modes._tower_roots(pol, nu, 1, 40.0)
            assert not first or first[0] > bound, nu
            found += bool(first)
        assert found > 200

    def test_the_walk_requests_every_tower_whose_bound_lies_below_the_cap(
            self, monkeypatch):
        # first roots that do not rise with nu, each above its tower's bound:
        # a walk requests every tower whose bound lies below its cap, empty
        # or not, so at cap 3 it lists 2.5 and 2.9 behind the empty towers
        # 2/3 and 4/3, and a fresh walk lists what a wider plan's cut lists
        fake = {2.0 / 3.0: [3.5], 5.0 / 3.0: [2.5], 4.0 / 3.0: [4.0], 7.0 / 3.0: [2.9]}
        requested = set()

        def tower_roots(pol, nu, count, x_cap):
            requested.add((pol, round(3.0 * nu)))
            xs = next((v for key, v in fake.items() if abs(nu - key) < 1e-9 and pol == "TM"), [])
            assert all(x > modes._root_bound(pol, nu) for x in xs)
            return [x for i, x in enumerate(xs) if i < count and x <= x_cap]

        monkeypatch.setattr(modes, "_tower_roots", tower_roots)
        config = WedgeConfig.from_degrees(90.0, RADIUS)  # m_n = 2n / 3
        listed = {}
        for x_cap in (5.0, 3.0, 2.0):
            f_max = x_cap * SPEED_OF_LIGHT / (2.0 * math.pi * RADIUS)
            fresh_memos(monkeypatch)
            requested.clear()
            fresh = enumerate_spectrum(config, f_max)
            # the degrees 2n / 3 + k in thirds, but the null-field TE nu = 0
            assert requested == {
                (pol, d) for pol, first in (("TM", 1), ("TE", 0))
                for d in (2 * n + 3 * k for n in range(first, 30) for k in range(30))
                if d > 0 and modes._root_bound(pol, d / 3.0) < x_cap}
            fresh_memos(monkeypatch)
            enumerate_spectrum(config, 5.0 * SPEED_OF_LIGHT / (2.0 * math.pi * RADIUS))
            assert enumerate_spectrum(config, f_max) == fresh
            assert len(modes._PLANS) == 1
            listed[x_cap] = [r.x for r in fresh]
        assert listed == {5.0: [2.5, 2.9, 3.5, 4.0], 3.0: [2.5, 2.9], 2.0: []}

    def test_equal_frequencies_from_distinct_roots_keep_the_walk_order(self, monkeypatch):
        # TM nu = 2/3 and TE nu = 1 have distinct roots, each above its
        # tower's bound, that give one frequency float at this radius; the
        # TE mode has the lower x, so a list ordered by x alone would put it
        # first
        fake = {("TM", 2.0 / 3.0): [math.nextafter(3.5, 4.0)], ("TE", 1.0): [3.5]}

        def tower_roots(pol, nu, count, x_cap):
            xs = next((v for (p, key), v in fake.items() if p == pol and abs(nu - key) < 1e-9),
                      [])
            assert all(x > modes._root_bound(pol, nu) for x in xs)
            return [x for i, x in enumerate(xs) if i < count and x <= x_cap]

        monkeypatch.setattr(modes, "_tower_roots", tower_roots)
        config = WedgeConfig.from_degrees(90.0, 0.01082)
        for x_cap in (5.0, 3.6):
            f_max = x_cap * SPEED_OF_LIGHT / (2.0 * math.pi * config.radius_a)
            fresh_memos(monkeypatch)
            fresh = enumerate_spectrum(config, f_max)
            fresh_memos(monkeypatch)
            enumerate_spectrum(config, 5.0 * SPEED_OF_LIGHT / (2.0 * math.pi * config.radius_a))
            got = enumerate_spectrum(config, f_max)  # the plan built at 5, cut
            assert got == fresh and len(modes._PLANS) == 1
            assert [(r.id.polarisation, r.id.n, r.id.k, r.id.s) for r in got] == [
                ("TM", 1, 0, 1), ("TE", 0, 1, 1)]
            assert got[0].freq_hz == got[1].freq_hz and got[0].x > got[1].x

    def test_a_plan_serves_any_radius_at_or_below_its_cap(self, monkeypatch):
        # the plan holds no radius, and serving it evaluates nothing and
        # requests no tower
        fresh_memos(monkeypatch)
        wide = enumerate_spectrum(WedgeConfig.from_degrees(73.0, 0.03), 30e9)
        requests = [(WedgeConfig.from_degrees(73.0, radius), f_max)
                    for radius, f_max in ((0.03, 30e9), (0.01, 80e9), (0.045, 13e9))]
        want = [walk_without_plan(config, f_max, ("TM", "TE")) for config, f_max in requests]

        def refuse(*args):
            raise AssertionError("a served request scanned a tower")

        monkeypatch.setattr(modes, "_tower_roots", refuse)
        assert [enumerate_spectrum(config, f_max) for config, f_max in requests] == want
        assert want[0] == wide and 0 < len(want[2]) < len(want[1]) < len(wide)
        assert list(modes._PLANS) == [(math.radians(73.0), frozenset(("TM", "TE")))]

    def test_memo_keeps_the_most_recent_plans(self, monkeypatch):
        fresh_memos(monkeypatch)
        openings = [10.0 * (i + 1) for i in range(modes._PLANS_MAX + 2)]
        for deg in openings:
            enumerate_spectrum(WedgeConfig.from_degrees(deg, RADIUS), 9e9)
        keys = [(math.radians(deg), frozenset(("TM", "TE"))) for deg in openings]
        assert list(modes._PLANS) == keys[2:]
        # a served request moves its plan to the young end; a wider cap
        # rebuilds it in place of the old one
        enumerate_spectrum(WedgeConfig.from_degrees(openings[2], 0.01), 9e9)
        assert list(modes._PLANS)[-1] == keys[2]
        enumerate_spectrum(WedgeConfig.from_degrees(openings[3], RADIUS), 12e9)
        assert list(modes._PLANS)[-1] == keys[3]
        assert len(modes._PLANS) == modes._PLANS_MAX
        assert modes._PLANS[keys[3]][0] == 2.0 * math.pi * RADIUS * 12e9 / SPEED_OF_LIGHT

    def test_threads_sharing_plans_get_the_records_of_a_walk_without_plan(self, monkeypatch):
        requests = plan_requests(19, 3)
        fresh_memos(monkeypatch)
        want = [walk_without_plan(WedgeConfig.from_degrees(deg, radius), f_max, pols)
                for deg, radius, f_max, pols in requests]
        fresh_memos(monkeypatch)
        got = {}

        def serve(order):
            got[order] = {i: enumerate_spectrum(WedgeConfig.from_degrees(*requests[i][:2]),
                                                *requests[i][2:])
                          for i in (range(len(requests)) if order > 0
                                    else reversed(range(len(requests))))}

        threads = [threading.Thread(target=serve, args=(order,)) for order in (1, -1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for order in (1, -1):
            assert [got[order][i] for i in range(len(requests))] == want


class TestPlanCut:
    def test_a_cap_equal_to_a_modes_x_keeps_the_mode(self, monkeypatch):
        # a plan is cut by x, so a cap equal to a mode's x keeps the mode,
        # whether the plan is built at the cap or built wider and cut there,
        # and the next cap below drops it
        config = WedgeConfig.from_degrees(27.0, RADIUS)

        def x_cap(f_max):
            return 2.0 * math.pi * RADIUS * f_max / SPEED_OF_LIGHT

        exact = 0
        for record in enumerate_spectrum(config, 14e9):
            # step f_max an ulp at a time from the quotient towards the float x
            f_max = record.x * SPEED_OF_LIGHT / (2.0 * math.pi * RADIUS)
            for _ in range(64):
                if x_cap(f_max) == record.x:
                    break
                f_max = math.nextafter(f_max, math.inf if x_cap(f_max) < record.x else 0.0)
            if x_cap(f_max) != record.x:
                continue
            exact += 1
            below = f_max
            while x_cap(below) == record.x:
                below = math.nextafter(below, 0.0)
            for wider in (False, True):
                fresh_memos(monkeypatch)
                if wider:
                    enumerate_spectrum(config, 14e9)
                got = enumerate_spectrum(config, f_max)
                assert record in got, (record, wider)
                assert got == walk_without_plan(config, f_max, ("TM", "TE"))
                assert record not in enumerate_spectrum(config, below)
        assert exact >= 3
