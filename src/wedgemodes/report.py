"""Embedded reference tables, theory-vs-reference comparison, serialization.

The package ships reference mode tables for the five cavity configurations
(four non-integer wedge openings plus the half-sphere control) as a CSV
resource, guarded by a SHA-256 checksum.  Each reference row carries the
mode's quantum numbers, the tabulated first-principles frequency and the
tabulated finite-element (HFSS) frequency.  The resource is read,
verified and parsed once per process.

:func:`compare` matches an enumerated spectrum against a reference block by
quantum numbers — polarisation, azimuthal index within 1e-3, and lowering
count — so a degenerate pair of reference rows with equal quantum numbers
both match the same theory record, and a reference row with no computed
counterpart becomes a failure row (no computed values, so not ``matched``)
rather than an exception.

:func:`render` serializes spectra, comparisons, or reference rows to CSV or
JSON, telling them apart by the type of the first item.  One column
declaration per record kind (name, attribute, format, in output order)
drives the CSV writer, the JSON writer and the reference parser.
Frequencies carry six significant digits, and identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from collections.abc import Callable
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

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
        if not (0.0 <= self.wedge_deg < 360.0 and 0.0 <= self.m < math.inf
                and 0.0 <= self.nu < math.inf):
            raise ValueError("wedge_deg must lie in [0, 360), m and nu be finite and >= 0")
        if abs(self.nu - (self.m + self.k)) > 1e-4:
            raise ValueError("nu must equal m + k to 4 decimal places")
        if not (0.0 < self.f_theory_ghz < math.inf and 0.0 < self.f_hfss_ghz < math.inf):
            raise ValueError("frequencies must be finite and positive")


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


def _round6(value: float) -> float:
    """Value rounded to six significant digits (for JSON payloads)."""
    return float(f"{value:.6g}")


def _same(value):
    return value


class _Format(NamedTuple):
    # how a value becomes CSV text and a JSON value, and how CSV text parses
    # back (reference columns only)
    text: Callable
    value: Callable
    parse: Callable | None = None


_TEXT = _Format(str, _same, str)
_INT = _Format(str, _same, int)
_FLOAT_G = _Format("{:g}".format, _same, float)
_FIXED6 = _Format("{:.6f}".format, _round6, float)
_SIG6 = _Format("{:#.6g}".format, _round6, float)  # six significant digits, zeros kept
_GHZ_SIG6 = _Format(lambda hz: f"{hz / 1e9:#.6g}", lambda hz: _round6(hz / 1e9))
_PCT4 = _Format(lambda dev: f"{100.0 * dev:.4f}", lambda dev: round(100.0 * dev, 4))
_BOOL = _Format(lambda flag: "true" if flag else "false", _same)

# One declaration per record kind: (column name, attribute path, format), in
# output order.  A ``None`` value renders as an empty CSV cell or JSON null.
_SPECTRUM_COLUMNS = (
    ("pol", "id.polarisation", _TEXT),
    ("n", "id.n", _INT),
    ("k", "id.k", _INT),
    ("m", "id.m", _FIXED6),
    ("nu", "id.nu", _FIXED6),
    ("s", "id.s", _INT),
    ("x", "x", _SIG6),
    ("freq_ghz", "freq_hz", _GHZ_SIG6),
    ("family", "family", _TEXT),
)

# the column order of ``reference_tables.csv``
_REFERENCE_COLUMNS = (
    ("wedge_deg", "wedge_deg", _FLOAT_G),
    ("mode_index", "mode_index", _INT),
    ("pol", "polarisation", _TEXT),
    ("m", "m", _FIXED6),
    ("k", "k", _INT),
    ("nu", "nu", _FIXED6),
    ("f_theory_ghz", "f_theory_ghz", _SIG6),
    ("f_hfss_ghz", "f_hfss_ghz", _SIG6),
)

_COMPARISON_COLUMNS = tuple(
    (name, "reference." + path, form) for name, path, form in _REFERENCE_COLUMNS
) + (
    ("f_computed_ghz", "f_computed_ghz", _SIG6),
    ("dev_vs_theory_pct", "dev_vs_theory", _PCT4),
    ("dev_vs_hfss_pct", "dev_vs_hfss", _PCT4),
    ("matched", "matched", _BOOL),
)


def _parse_reference_csv(data: bytes) -> list[ReferenceRow]:
    """Parse reference rows from CSV bytes (schema of ``reference_tables.csv``)."""
    reader = csv.DictReader(io.StringIO(data.decode("utf-8")))
    if reader.fieldnames != [name for name, _, _ in _REFERENCE_COLUMNS]:
        raise ReferenceIntegrityError("unexpected reference CSV header")
    return [
        ReferenceRow(**{path: form.parse(rec[name]) for name, path, form in _REFERENCE_COLUMNS})
        for rec in reader
    ]


@functools.cache
def _reference_rows() -> tuple[ReferenceRow, ...]:
    """The embedded rows, read, checksum-verified and parsed once per process."""
    # imported here, like json in render, so that commands without the
    # table start without them
    import hashlib
    from importlib import resources

    data = (resources.files("wedgemodes") / "data" / "reference_tables.csv").read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != _REFERENCE_SHA256:
        raise ReferenceIntegrityError(
            f"reference data checksum mismatch: {digest} != {_REFERENCE_SHA256}"
        )
    return tuple(_parse_reference_csv(data))


def load_reference() -> list[ReferenceRow]:
    """All 30 embedded mode rows (five configurations, six modes each).

    The resource checksum is verified before the first parse in each
    process; every call returns a new list.
    """
    return list(_reference_rows())


def block_reference(wedge_deg: float) -> list[ReferenceRow]:
    """The six reference rows of one wedge block, by table order."""
    rows = [r for r in _reference_rows() if r.wedge_deg == wedge_deg]
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


def _validate_block(wedge_deg: float, tol: float = 0.002) -> tuple[list[ComparisonRow], float]:
    """:func:`compare` one reference block against the spectrum of its
    15 mm cavity, enumerated up to 1.3 times the block's largest tabulated
    theory frequency."""
    block = block_reference(wedge_deg)
    config = modes.WedgeConfig.from_degrees(wedge_deg, 0.015)
    cap_hz = 1.3 * max(row.f_theory_ghz for row in block) * 1e9
    return compare(modes.enumerate_spectrum(config, cap_hz), block, tol)


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
        columns = _SPECTRUM_COLUMNS
    elif isinstance(items[0], ComparisonRow):
        columns = _COMPARISON_COLUMNS
    elif isinstance(items[0], ReferenceRow):
        columns = _REFERENCE_COLUMNS
    else:
        raise ValueError(f"cannot render {type(items[0]).__name__} items")
    names, paths, forms = zip(*columns)
    values = attrgetter(*paths)

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        for item in items:
            writer.writerow(
                ["" if v is None else form.text(v) for form, v in zip(forms, values(item))]
            )
        return buf.getvalue().encode("utf-8")

    import json

    objs = [
        {
            name: None if v is None else form.value(v)
            for name, form, v in zip(names, forms, values(item))
        }
        for item in items
    ]
    text = json.dumps(objs, separators=(",", ":"), ensure_ascii=False)
    return (text + "\n").encode("utf-8")
