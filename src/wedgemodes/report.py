"""Embedded reference tables, theory-vs-reference comparison, serialization.

The package ships reference mode tables for the five cavity configurations
(four non-integer wedge openings plus the half-sphere control) as a CSV
resource, guarded by a SHA-256 checksum.  Each reference row carries the
mode's quantum numbers, the tabulated first-principles frequency and the
tabulated finite-element (HFSS) frequency.

:func:`compare` matches an enumerated spectrum against a reference block by
quantum numbers — polarisation, azimuthal index within 1e-3, and lowering
count — so a degenerate pair of reference rows with equal quantum numbers
both match the same theory record, and a reference row with no computed
counterpart becomes a failure row (no computed values, so not ``matched``)
rather than an exception.

:func:`render` serializes spectra, comparisons, or reference rows to CSV or
JSON, telling them apart by the type of the first item, with stable field
order and formatting (frequencies carry six significant digits), so
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from importlib import resources

from . import modes
from .modes import ModeRecord

__all__ = [
    "ReferenceRow",
    "ComparisonRow",
    "ReferenceIntegrityError",
    "load_reference",
    "block_reference",
    "compare",
    "render",
]

#: SHA-256 of the embedded reference resource ``data/reference_tables.csv``.
#: Guards against silent corruption of the transcription.
_REFERENCE_SHA256 = "c0bc90224bbe3b1765ec97ac99823ffb2cc2897576f61506ce0e7db88f480084"

_MATCH_M_TOL = 1e-3


class ReferenceIntegrityError(RuntimeError):
    """The embedded reference resource does not match its frozen checksum."""


@dataclass(frozen=True)
class ReferenceRow:
    """One tabulated mode row: identity, tabulated theory and HFSS values."""

    wedge_deg: float
    mode_index: int
    polarisation: str
    m: float
    k: int
    nu: float
    f_theory_ghz: float
    f_hfss_ghz: float

    def __post_init__(self) -> None:
        if self.polarisation not in ("TM", "TE"):
            raise ValueError("polarisation must be 'TM' or 'TE'")
        if abs(self.nu - (self.m + self.k)) > 1e-4:
            raise ValueError("nu must equal m + k to 4 decimal places")
        if self.f_theory_ghz <= 0.0 or self.f_hfss_ghz <= 0.0:
            raise ValueError("frequencies must be positive")


@dataclass(frozen=True)
class ComparisonRow:
    """A reference row paired with the matching computed frequency, if any.

    ``dev_vs_theory`` and ``dev_vs_hfss`` are signed relative deviations of
    the computed frequency against the tabulated theory and HFSS values,
    with the ``(f - f_ref) / f_ref`` convention, and ``within_tol`` says
    whether ``|dev_vs_theory| <= tol``.  For an unmatched (missing-mode)
    row ``f_computed_ghz`` and both deviations are ``None`` and
    ``within_tol`` is false.
    """

    reference: ReferenceRow
    f_computed_ghz: float | None
    tol: float

    @property
    def matched(self) -> bool:
        """Whether a computed record matched the reference row."""
        return self.f_computed_ghz is not None

    @property
    def dev_vs_theory(self) -> float | None:
        if not self.matched:
            return None
        return (self.f_computed_ghz - self.reference.f_theory_ghz) / self.reference.f_theory_ghz

    @property
    def dev_vs_hfss(self) -> float | None:
        if not self.matched:
            return None
        return (self.f_computed_ghz - self.reference.f_hfss_ghz) / self.reference.f_hfss_ghz

    @property
    def within_tol(self) -> bool:
        return self.matched and abs(self.dev_vs_theory) <= self.tol


_REFERENCE_FIELDS = (
    "wedge_deg",
    "mode_index",
    "pol",
    "m",
    "k",
    "nu",
    "f_theory_ghz",
    "f_hfss_ghz",
)

_SPECTRUM_FIELDS = ("pol", "n", "k", "m", "nu", "s", "x", "freq_ghz", "family")

_COMPARISON_FIELDS = _REFERENCE_FIELDS + (
    "f_computed_ghz",
    "dev_vs_theory_pct",
    "dev_vs_hfss_pct",
    "matched",
)


def _sig6(value: float) -> str:
    """Six significant digits, trailing zeros kept."""
    return f"{value:#.6g}"


def _round6(value: float) -> float:
    """Value rounded to six significant digits (for JSON payloads)."""
    return float(f"{value:.6g}")


def _reference_csv_row(row: ReferenceRow) -> list[str]:
    return [
        f"{row.wedge_deg:g}",
        str(row.mode_index),
        row.polarisation,
        f"{row.m:.6f}",
        str(row.k),
        f"{row.nu:.6f}",
        _sig6(row.f_theory_ghz),
        _sig6(row.f_hfss_ghz),
    ]


def _parse_reference_csv(data: bytes) -> list[ReferenceRow]:
    """Parse reference rows from CSV bytes (schema of ``reference_tables.csv``)."""
    text = data.decode("utf-8")
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != list(_REFERENCE_FIELDS):
        raise ReferenceIntegrityError("unexpected reference CSV header")
    rows = []
    for rec in reader:
        rows.append(
            ReferenceRow(
                wedge_deg=float(rec["wedge_deg"]),
                mode_index=int(rec["mode_index"]),
                polarisation=rec["pol"],
                m=float(rec["m"]),
                k=int(rec["k"]),
                nu=float(rec["nu"]),
                f_theory_ghz=float(rec["f_theory_ghz"]),
                f_hfss_ghz=float(rec["f_hfss_ghz"]),
            )
        )
    return rows


def load_reference() -> list[ReferenceRow]:
    """All 30 embedded mode rows (five configurations, six modes each).

    Verifies the resource checksum before parsing.
    """
    data = (resources.files("wedgemodes") / "data" / "reference_tables.csv").read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != _REFERENCE_SHA256:
        raise ReferenceIntegrityError(
            f"reference data checksum mismatch: {digest} != {_REFERENCE_SHA256}"
        )
    return _parse_reference_csv(data)


def block_reference(wedge_deg: float) -> list[ReferenceRow]:
    """The six reference rows of one wedge block, by table order."""
    rows = [r for r in load_reference() if r.wedge_deg == wedge_deg]
    if not rows:
        raise ValueError(f"no reference block for wedge_deg={wedge_deg:g}")
    return sorted(rows, key=lambda r: r.mode_index)


def compare(
    computed: list[ModeRecord],
    reference: list[ReferenceRow],
    tol: float = 0.002,
) -> tuple[list[ComparisonRow], float]:
    """Match computed records to reference rows and quantify deviations.

    Each reference row is matched by (polarisation, m within 1e-3, k); if
    several records qualify (e.g. multiple radial indices), the one closest
    in frequency to the row's HFSS value is taken, and several rows may
    share one record (degenerate pairs).  Unmatched rows become failure
    rows with no computed values.  Returns the rows in reference order plus
    the mean |deviation| against HFSS over the matched rows (0.0 if none
    matched).  ``tol`` is the relative tolerance against the tabulated
    theory value that sets each row's ``within_tol`` flag; it must be
    finite and non-negative.
    """
    if not (tol >= 0.0 and math.isfinite(tol)):
        raise ValueError(f"relative tolerance must be finite and >= 0, got {tol}")
    rows = []
    for ref in reference:
        candidates = (
            rec.freq_hz / 1e9
            for rec in computed
            if rec.id.polarisation == ref.polarisation
            and abs(rec.id.m - ref.m) <= _MATCH_M_TOL
            and rec.id.k == ref.k
        )
        best = min(candidates, key=lambda f_ghz: abs(f_ghz - ref.f_hfss_ghz), default=None)
        rows.append(ComparisonRow(ref, best, tol))
    abs_devs = [abs(row.dev_vs_hfss) for row in rows if row.matched]
    mean_abs = sum(abs_devs) / len(abs_devs) if abs_devs else 0.0
    return rows, mean_abs


def _validate_block(
    wedge_deg: float, tol: float = 0.002
) -> tuple[list[ComparisonRow], float]:
    """:func:`compare` one reference block against the spectrum of its
    15 mm cavity, enumerated up to 1.3 times the block's largest tabulated
    theory frequency."""
    block = block_reference(wedge_deg)
    config = modes.WedgeConfig.from_degrees(wedge_deg, 0.015)
    cap_hz = 1.3 * max(row.f_theory_ghz for row in block) * 1e9
    return compare(modes.enumerate_spectrum(config, cap_hz), block, tol)


def _spectrum_json_obj(rec: ModeRecord) -> dict:
    return {
        "pol": rec.id.polarisation,
        "n": rec.id.n,
        "k": rec.id.k,
        "m": _round6(rec.id.m),
        "nu": _round6(rec.id.nu),
        "s": rec.id.s,
        "x": _round6(rec.x),
        "freq_ghz": _round6(rec.freq_hz / 1e9),
        "family": rec.family,
    }


def _spectrum_csv_row(rec: ModeRecord) -> list[str]:
    return [
        rec.id.polarisation,
        str(rec.id.n),
        str(rec.id.k),
        f"{rec.id.m:.6f}",
        f"{rec.id.nu:.6f}",
        str(rec.id.s),
        _sig6(rec.x),
        _sig6(rec.freq_hz / 1e9),
        rec.family,
    ]


def _reference_json_obj(row: ReferenceRow) -> dict:
    return {
        "wedge_deg": row.wedge_deg,
        "mode_index": row.mode_index,
        "pol": row.polarisation,
        "m": _round6(row.m),
        "k": row.k,
        "nu": _round6(row.nu),
        "f_theory_ghz": _round6(row.f_theory_ghz),
        "f_hfss_ghz": _round6(row.f_hfss_ghz),
    }


def _comparison_json_obj(row: ComparisonRow) -> dict:
    obj = _reference_json_obj(row.reference)
    if row.matched:
        obj.update(
            f_computed_ghz=_round6(row.f_computed_ghz),
            dev_vs_theory_pct=round(100.0 * row.dev_vs_theory, 4),
            dev_vs_hfss_pct=round(100.0 * row.dev_vs_hfss, 4),
        )
    else:
        obj.update(f_computed_ghz=None, dev_vs_theory_pct=None, dev_vs_hfss_pct=None)
    obj["matched"] = row.matched
    return obj


def _comparison_csv_row(row: ComparisonRow) -> list[str]:
    cells = _reference_csv_row(row.reference)
    if row.matched:
        cells += [
            _sig6(row.f_computed_ghz),
            f"{100.0 * row.dev_vs_theory:.4f}",
            f"{100.0 * row.dev_vs_hfss:.4f}",
        ]
    else:
        cells += ["", "", ""]
    cells.append("true" if row.matched else "false")
    return cells


def render(items, fmt: str) -> bytes:
    """Serialize records to UTF-8 CSV or JSON bytes.

    ``items`` may hold :class:`~wedgemodes.modes.ModeRecord` (a spectrum),
    :class:`ComparisonRow`, or :class:`ReferenceRow` elements, told apart
    by the type of the first; an empty list renders as an empty spectrum.
    Output is deterministic: stable field order, six significant digits on
    frequencies and roots.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format: {fmt!r} (expected 'csv' or 'json')")
    items = list(items)
    if not items or isinstance(items[0], ModeRecord):
        header, to_csv, to_json = _SPECTRUM_FIELDS, _spectrum_csv_row, _spectrum_json_obj
    elif isinstance(items[0], ComparisonRow):
        header, to_csv, to_json = _COMPARISON_FIELDS, _comparison_csv_row, _comparison_json_obj
    elif isinstance(items[0], ReferenceRow):
        header, to_csv, to_json = _REFERENCE_FIELDS, _reference_csv_row, _reference_json_obj
    else:
        raise ValueError(f"cannot render {type(items[0]).__name__} items")

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for item in items:
            writer.writerow(to_csv(item))
        return buf.getvalue().encode("utf-8")

    objs = [to_json(item) for item in items]
    return (json.dumps(objs, separators=(",", ":"), ensure_ascii=False) + "\n").encode(
        "utf-8"
    )
