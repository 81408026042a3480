"""Unit tests for the embedded reference tables, comparison and rendering."""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import random
from operator import attrgetter

import pytest

from wedgemodes import report
from wedgemodes.modes import (
    SPEED_OF_LIGHT,
    ModeId,
    ModeRecord,
    WedgeConfig,
    azimuthal_index,
    enumerate_spectrum,
)
from wedgemodes.report import (
    ComparisonRow,
    ReferenceIntegrityError,
    ReferenceRow,
    _parse_reference_csv,
    block_reference,
    compare,
    load_reference,
    render,
)
from wedgemodes.specfun import riccati_derivative, spherical_j

RADIUS = 0.015


def synthetic_record(
    row: ReferenceRow, freq_hz: float, s: int = 1, n: int = 1
) -> ModeRecord:
    """A mode record with the row's quantum numbers at a chosen frequency."""
    mode = ModeId(polarisation=row.polarisation, n=n, k=row.k, s=s, m=row.m)
    x = 2.0 * math.pi * RADIUS * freq_hz / SPEED_OF_LIGHT
    return ModeRecord(id=mode, x=x, freq_hz=freq_hz)


class TestLoadReference:
    def test_thirty_rows_in_five_blocks(self):
        rows = load_reference()
        assert len(rows) == 30
        wedges = sorted({r.wedge_deg for r in rows})
        assert wedges == [27.0, 47.0, 73.0, 90.0, 180.0]

    def test_first_quarter_wedge_row(self):
        row = block_reference(90.0)[0]
        assert row.polarisation == "TM"
        assert row.m == pytest.approx(0.666667, abs=1e-6)
        assert row.k == 0
        assert row.f_theory_ghz == pytest.approx(7.507)
        assert row.f_hfss_ghz == pytest.approx(7.569)

    def test_half_sphere_double_descent_row(self):
        row = block_reference(180.0)[4]
        assert (row.polarisation, row.m, row.k, row.nu) == ("TM", 1.0, 2, 3.0)
        assert row.f_theory_ghz == pytest.approx(13.47)
        assert row.f_hfss_ghz == pytest.approx(13.498)

    def test_blocks_are_ordered_and_complete(self):
        for wedge in (27.0, 47.0, 73.0, 90.0, 180.0):
            block = block_reference(wedge)
            assert [r.mode_index for r in block] == [1, 2, 3, 4, 5, 6]
            assert all(r.wedge_deg == wedge for r in block)

    def test_unknown_block_raises(self):
        with pytest.raises(ValueError):
            block_reference(10.0)

    def test_checksum_guard_detects_tampering(self, monkeypatch):
        # the table is verified once per process, so drop the cached rows
        report._reference_rows.cache_clear()
        monkeypatch.setattr(report, "_REFERENCE_SHA256", "0" * 64)
        with pytest.raises(ReferenceIntegrityError):
            load_reference()

    def test_each_call_returns_a_new_list(self):
        first = load_reference()
        first.clear()
        assert len(load_reference()) == 30
        assert load_reference() is not load_reference()

    def test_parse_rejects_foreign_header(self):
        with pytest.raises(ReferenceIntegrityError):
            _parse_reference_csv(b"a,b,c\n1,2,3\n")

    def test_render_round_trips_the_resource(self):
        from importlib import resources

        data = (
            resources.files("wedgemodes") / "data" / "reference_tables.csv"
        ).read_bytes()
        rows = load_reference()
        rendered = render(rows, "csv")
        assert rendered == data
        assert _parse_reference_csv(rendered) == rows


class TestGeometry:
    def test_fundamental_matches_reference_blocks(self):
        # each block opens with the fundamental m = 180 / (360 - wedge)
        for wedge in (27.0, 47.0, 73.0, 90.0, 180.0):
            first = block_reference(wedge)[0]
            cfg = WedgeConfig.from_degrees(wedge, RADIUS)
            assert first.m == pytest.approx(azimuthal_index(1, cfg), abs=1e-6)


class TestRowValidation:
    def test_reference_rejects_unknown_polarisation(self):
        with pytest.raises(ValueError):
            ReferenceRow(90.0, 1, "TX", 0.666667, 0, 0.666667, 7.5, 7.5)

    def test_reference_rejects_inconsistent_degree(self):
        with pytest.raises(ValueError):
            ReferenceRow(90.0, 1, "TM", 0.666667, 0, 1.0, 7.5, 7.5)

    def test_reference_rejects_non_positive_frequency(self):
        with pytest.raises(ValueError):
            ReferenceRow(90.0, 1, "TM", 0.666667, 0, 0.666667, 0.0, 7.5)

    @pytest.mark.parametrize("row", [
        (27.0, 1, "TE", math.nan, 0, math.nan, math.inf, math.nan),
        (math.nan, 1, "TE", 1.0, 0, 1.0, 5.0, 5.0),
        (90.0, 1, "TM", math.inf, 0, math.inf, 7.5, 7.5),
        (90.0, 1, "TM", 0.666667, 0, 0.666667, 7.5, math.inf),
    ], ids=["nan-degree-inf-frequency", "nan-wedge", "inf-degree", "inf-frequency"])
    def test_reference_rejects_non_finite_values(self, row):
        # NaN fails every comparison, so each bound is one chained
        # comparison that NaN and inf cannot pass
        with pytest.raises(ValueError):
            ReferenceRow(*row)

    def test_comparison_matched_requires_values(self):
        # a computed frequency makes the row matched
        ref = block_reference(90.0)[0]
        assert ComparisonRow(ref, 7.5, 0.002).matched

    def test_comparison_unmatched_requires_empty_values(self):
        # no computed frequency leaves the row unmatched
        ref = block_reference(90.0)[0]
        assert not ComparisonRow(ref, None, 0.002).matched


class TestCompare:
    def test_self_comparison_has_exactly_zero_theory_deviation(self):
        # records placed exactly at the tabulated frequencies must show a
        # bitwise-zero deviation: f * 1e9 / 1e9 round-trips for every row
        rows = load_reference()
        records = [
            synthetic_record(r, r.f_theory_ghz * 1e9, s=r.mode_index) for r in rows
        ]
        out, _ = compare(records, rows)
        assert all(c.matched for c in out)
        for c in out:
            assert c.dev_vs_theory == 0.0
            assert c.within_tol

    def test_degenerate_rows_share_one_record(self):
        block = block_reference(180.0)
        cfg = WedgeConfig.from_degrees(180.0, RADIUS)
        out, _ = compare(enumerate_spectrum(cfg, 14.5e9), block)
        third, fourth = out[2], out[3]
        assert third.reference.mode_index == 3
        assert fourth.reference.mode_index == 4
        assert third.matched and fourth.matched
        assert third.f_computed_ghz == fourth.f_computed_ghz

    def test_unmatched_rows_become_failure_rows(self):
        block = block_reference(90.0)
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        out, mean_abs = compare(enumerate_spectrum(cfg, 8e9), block)
        assert out[0].matched
        for row in out[1:]:
            assert not row.matched
            assert row.f_computed_ghz is None
            assert row.dev_vs_theory is None
            assert row.dev_vs_hfss is None
        # the mean runs over matched rows only
        assert mean_abs == pytest.approx(abs(out[0].dev_vs_hfss))
        assert out[0].dev_vs_hfss == pytest.approx(-0.008212, abs=1e-6)

    def test_ambiguity_resolved_towards_reference_hfss(self):
        ref = ReferenceRow(90.0, 1, "TM", 0.666667, 0, 0.666667, 11.0, 11.0)
        low = synthetic_record(ref, 8.0e9, s=1)
        high = synthetic_record(ref, 12.0e9, s=2)
        out, _ = compare([low, high], [ref])
        assert out[0].f_computed_ghz == pytest.approx(12.0)

    def test_empty_reference_gives_empty_result(self):
        out, mean_abs = compare([], [])
        assert out == []
        assert mean_abs == 0.0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -0.01])
    def test_rejects_non_finite_or_negative_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            compare([], [], tol)


def _round6(value: float) -> float:
    return float(f"{value:.6g}")


def _same(value):
    return value


# each declared format as (CSV text, JSON value) functions, written
# independently of the f-string fields that render compiles
_CELLS = {
    report._TEXT: (str, _same),
    report._INT: (str, _same),
    report._FLOAT_G: ("{:g}".format, _same),
    report._FIXED6: ("{:.6f}".format, _round6),
    report._SIG6: ("{:#.6g}".format, _round6),
    report._GHZ_SIG6: (lambda hz: f"{hz / 1e9:#.6g}", lambda hz: _round6(hz / 1e9)),
    report._PCT4: (lambda dev: f"{100.0 * dev:.4f}", lambda dev: round(100.0 * dev, 4)),
    report._BOOL: (lambda flag: "true" if flag else "false", _same),
}
_CELLS[report._nullable(report._SIG6)] = _CELLS[report._SIG6]
_CELLS[report._nullable(report._PCT4)] = _CELLS[report._PCT4]


def render_reference(items, fmt: str) -> bytes:
    """The generic writer: ``csv.writer`` and ``json.dumps`` over the column
    declaration, a function call per cell; a ``None`` cell renders as an
    empty CSV cell or JSON null."""
    items = list(items)
    columns = report._SPECTRUM_COLUMNS
    if items and isinstance(items[0], ComparisonRow):
        columns = report._COMPARISON_COLUMNS
    elif items and isinstance(items[0], ReferenceRow):
        columns = report._REFERENCE_COLUMNS
    names, paths, forms = zip(*columns)
    values = attrgetter(*paths)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        for item in items:
            writer.writerow(
                ["" if v is None else _CELLS[form][0](v) for form, v in zip(forms, values(item))]
            )
        return buf.getvalue().encode("utf-8")
    objs = [
        {
            name: None if v is None else _CELLS[form][1](v)
            for name, form, v in zip(names, forms, values(item))
        }
        for item in items
    ]
    return (json.dumps(objs, separators=(",", ":"), ensure_ascii=False) + "\n").encode("utf-8")


@functools.cache
def _seeded_spectra(count: int, seed: int) -> tuple[list[ModeRecord], ...]:
    """Spectra of seeded geometries: openings 0-300 degrees, radii 5-40 mm,
    x caps log-uniform on [2, 40], TE, TM or both."""
    rng = random.Random(seed)
    pols = (frozenset(("TE",)), frozenset(("TM",)), frozenset(("TM", "TE")))
    spectra = []
    for _ in range(count):
        radius = 1e-3 * rng.uniform(5.0, 40.0)
        x_cap = math.exp(rng.uniform(math.log(2.0), math.log(40.0)))
        f_max = x_cap * SPEED_OF_LIGHT / (2.0 * math.pi * radius)
        cfg = WedgeConfig.from_degrees(rng.choice((0.0, 90.0, 180.0, 300.0)), radius)
        spectra.append(enumerate_spectrum(cfg, f_max, rng.choice(pols)))
    return tuple(spectra)


class TestRenderMatchesTheGenericWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_seeded_spectra(self, fmt):
        spectra = _seeded_spectra(200, 2201) + ([],)
        assert sum(len(records) for records in spectra) > 10_000
        for records in spectra:
            assert render(records, fmt) == render_reference(records, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reference_rows(self, fmt):
        rows = load_reference()
        assert render(rows, fmt) == render_reference(rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_comparison_rows_matched_and_not(self, fmt):
        rows = [row for wedge in (27.0, 47.0, 73.0, 90.0, 180.0)
                for row in report._validate_block(wedge)[0]]
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        rows += compare(enumerate_spectrum(cfg, 8e9), block_reference(90.0))[0]
        assert {row.matched for row in rows} == {True, False}
        assert render(rows, fmt) == render_reference(rows, fmt)


class TestRender:
    def test_spectrum_json_is_frozen(self):
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        records = enumerate_spectrum(cfg, 8e9)
        got = render(records, "json")
        assert got == (
            b'[{"pol":"TM","n":1,"k":0,"m":0.666667,"nu":0.666667,"s":1,'
            b'"x":2.35998,"freq_ghz":7.50684,"family":"sectoral"}]\n'
        )

    def test_spectrum_csv_header_and_first_row(self):
        cfg = WedgeConfig.from_degrees(90.0, RADIUS)
        records = enumerate_spectrum(cfg, 8e9)
        lines = render(records, "csv").decode().splitlines()
        assert lines[0] == "pol,n,k,m,nu,s,x,freq_ghz,family"
        assert lines[1] == "TM,1,0,0.666667,0.666667,1,2.35998,7.50684,sectoral"

    def test_comparison_csv_rows_are_frozen(self):
        cfg90 = WedgeConfig.from_degrees(90.0, RADIUS)
        out90, _ = compare(enumerate_spectrum(cfg90, 13.69e9), block_reference(90.0))
        lines90 = render(out90, "csv").decode().splitlines()
        assert lines90[0] == (
            "wedge_deg,mode_index,pol,m,k,nu,f_theory_ghz,f_hfss_ghz,"
            "f_computed_ghz,dev_vs_theory_pct,dev_vs_hfss_pct,matched"
        )
        assert lines90[1] == (
            "90,1,TM,0.666667,0,0.666667,7.50700,7.56900,7.50684,-0.0021,-0.8212,true"
        )
        cfg180 = WedgeConfig.from_degrees(180.0, RADIUS)
        out180, _ = compare(
            enumerate_spectrum(cfg180, 14.5e9), block_reference(180.0)
        )
        lines180 = render(out180, "csv").decode().splitlines()
        assert lines180[1] == (
            "180,1,TM,1.000000,0,1.000000,8.72700,8.72100,8.72745,0.0052,0.0740,true"
        )

    @pytest.mark.parametrize(
        "wedge, fmt, digest",
        [
            (27.0, "csv", "06a86ecee299255b2f3045a8b3833b5686dc34bae65581264f64bfdb8c058d72"),
            (47.0, "csv", "1050c6b7b5f698b94407bfc8bd28644d9099c172bb342582accb3709e034fbbb"),
            (73.0, "csv", "55a723411362c23f6dc6bb3d4d44415712ffef1f2f9afbbe89cf26c0b32d2c35"),
            (90.0, "csv", "654194b398a270900207a7e3f881f25b161c6b13a6dc36a29ab5a24ec2434402"),
            (180.0, "csv", "810a9e3fd0a3ce676967cd9edfd36edbca786ea804f1b110fd4c7ecd218d040f"),
            (27.0, "json", "6c4cc99c81339dc5aea3e4a8b6f927dc28d9a7dc708f17917dbdbc850e409770"),
            (47.0, "json", "b1b956c4e5dffc8e83f72d398b0a8d2916e1b6af8c2a61d2260c554662fc1a9b"),
            (73.0, "json", "776ae83d5dc77e34dc38d780dfe329792ff3e45ea8e8e535dce5d3cd224876eb"),
            (90.0, "json", "3cca5619370740e89dcec52b3f0375a2280c1ab35d7dedd89f1bd8a2bb5c40a8"),
            (180.0, "json", "bbbd59353ee7fb6e6d096979e45b0821362ed48c1b5de1240d269a4750560ee6"),
        ],
    )
    def test_block_comparison_is_frozen(self, wedge, fmt, digest):
        # every row of every block, matched or not, in both formats
        got = render(report._validate_block(wedge)[0], fmt)
        assert hashlib.sha256(got).hexdigest() == digest

    def test_unmatched_comparison_csv_leaves_cells_empty(self):
        ref = block_reference(90.0)[1]
        row = ComparisonRow(reference=ref, f_computed_ghz=None, tol=0.002)
        line = render([row], "csv").decode().splitlines()[1]
        assert line.endswith(",,,false")

    def test_unmatched_comparison_json_uses_nulls(self):
        ref = block_reference(90.0)[1]
        row = ComparisonRow(reference=ref, f_computed_ghz=None, tol=0.002)
        import json

        obj = json.loads(render([row], "json"))[0]
        assert obj["matched"] is False
        assert obj["f_computed_ghz"] is None
        assert obj["dev_vs_theory_pct"] is None

    def test_reference_json_is_frozen(self):
        got = render(load_reference(), "json")
        assert got.startswith(
            b'[{"wedge_deg":27.0,"mode_index":1,"pol":"TM","m":0.540541,"k":0,'
            b'"nu":0.540541,"f_theory_ghz":7.04,"f_hfss_ghz":7.043},'
        )
        assert len(got) == 3476
        assert hashlib.sha256(got).hexdigest() == (
            "ca82168cdd6b0205d8e7dadd9506eab4de764eeb871006a5f837d4e007a6a10a"
        )

    def test_empty_spectrum_renders_header_only(self):
        assert render([], "csv") == b"pol,n,k,m,nu,s,x,freq_ghz,family\n"
        assert render([], "json") == b"[]\n"

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            render([], "yaml")

    def test_rejects_foreign_items(self):
        with pytest.raises(ValueError):
            render([object()], "csv")

    def test_rendering_is_deterministic(self):
        cfg = WedgeConfig.from_degrees(47.0, RADIUS)
        records = enumerate_spectrum(cfg, 13.04e9)
        assert render(records, "csv") == render(records, "csv")
        assert render(records, "json") == render(records, "json")


# Rows whose tabulated first-principles value does not satisfy the defining
# resonance equation: evaluating the TM/TE characteristic function at the
# x implied by the tabulated frequency leaves a residual 5-100x above the
# table's rounding noise (worst consistent row: 2.9e-3).
_INCONSISTENT_ROWS = {
    (47.0, 3),
    (47.0, 6),
    (73.0, 3),
    (73.0, 6),
    (90.0, 6),
    (180.0, 2),
    (180.0, 5),
}


def _row_params():
    params = []
    for row in load_reference():
        key = (row.wedge_deg, row.mode_index)
        marks = ()
        if key in _INCONSISTENT_ROWS:
            marks = pytest.mark.xfail(
                strict=True,
                reason="tabulated value does not satisfy the resonance condition",
            )
        params.append(
            pytest.param(row, id=f"{row.wedge_deg:g}-{row.mode_index}", marks=marks)
        )
    return params


class TestTranscriptionSanity:
    @pytest.mark.parametrize("row", _row_params())
    def test_tabulated_value_satisfies_resonance_condition(self, row):
        x_back = 2.0 * math.pi * RADIUS * row.f_theory_ghz * 1e9 / SPEED_OF_LIGHT
        if row.polarisation == "TE":
            residual = spherical_j(row.nu, x_back)
        else:
            residual = riccati_derivative(row.nu, x_back)
        assert abs(residual) < 1e-2
