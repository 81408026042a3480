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
drives the reference parser and the row functions that render compiles
from it once per process, one f-string per record kind and format.
Frequencies carry six significant digits, and identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import functools
import io
import math
import re
from collections.abc import Callable
from dataclasses import dataclass
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


class _Format(NamedTuple):
    # how a value ``v`` becomes CSV text and JSON text, each as a field of
    # the f-string of a generated row, and how CSV text parses back
    # (reference columns only).  For the f-string grammar before Python
    # 3.12, a format holds no backslash and quotes strings inside its fields
    # with ' only, and a nullable one holds no " at all, so that the row's
    # f'''...''' and a nullable cell's f"..." can hold it.
    csv: str
    json: str
    parse: Callable | None = None


def _nullable(form: _Format) -> _Format:
    """``form`` for a cell that may be ``None``: an empty CSV cell, a JSON null."""
    return form._replace(csv=f'{{"" if v is None else f"{form.csv}"}}',
                         json=f'{{"null" if v is None else f"{form.json}"}}')


# JSON carries a rounded value as a float: six significant digits, or a
# percentage to four decimals
_TEXT = _Format("{v}", '"{v}"', str)
_INT = _Format("{v}", "{v}", int)
_FLOAT_G = _Format("{v:g}", "{v!r}", float)
_FIXED6 = _Format("{v:.6f}", "{float(f'{v:.6g}')!r}", float)
# six significant digits, zeros kept
_SIG6 = _Format("{v:#.6g}", "{float(f'{v:.6g}')!r}", float)
_GHZ_SIG6 = _Format("{v / 1e9:#.6g}", "{float(f'{v / 1e9:.6g}')!r}")
_PCT4 = _Format("{100.0 * v:.4f}", "{round(100.0 * v, 4)!r}")
_BOOL = _Format("{'true' if v else 'false'}", "{'true' if v else 'false'}")

# One declaration per record kind: (column name, attribute path, format), in
# output order.  Text columns hold validated identifiers (TM/TE, family
# names), which need no CSV quoting and no JSON escapes.
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
    ("f_computed_ghz", "f_computed_ghz", _nullable(_SIG6)),
    ("dev_vs_theory_pct", "dev_vs_theory", _nullable(_PCT4)),
    ("dev_vs_hfss_pct", "dev_vs_hfss", _nullable(_PCT4)),
    ("matched", "matched", _BOOL),
)


def _parse_reference_csv(data: bytes) -> list[ReferenceRow]:
    """Parse reference rows from CSV bytes (schema of ``reference_tables.csv``)."""
    # imported here, so that rendering and the commands without the table
    # start without it
    import csv

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
    # imported here, so that commands without the table start without them;
    # CPython's built-in SHA-256 (``_sha2`` from 3.12 on) spares the process
    # hashlib's OpenSSL, about 3.7 MB resident, as ``random`` does for SHA-512
    from importlib import resources

    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    data = (resources.files("wedgemodes") / "data" / "reference_tables.csv").read_bytes()
    digest = sha256(data).hexdigest()
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


@functools.cache
def _row_function(columns: tuple, fmt: str) -> Callable[[object], str]:
    """The row function of one column declaration in one format, compiled
    on first use: one f-string of the columns' fields, with each field's
    ``v`` replaced by the item's attribute path.  A CSV row ends in a
    newline; a JSON row is one object."""
    cells = [re.sub(r"\bv\b", "item." + path, getattr(form, fmt)) for _, path, form in columns]
    if fmt == "csv":
        body = ",".join(cells) + "\\n"
    else:
        pairs = (f'"{name}":{cell}' for (name, _, _), cell in zip(columns, cells))
        body = "{{" + ",".join(pairs) + "}}"
    namespace: dict = {}
    exec(f"def row(item):\n    return f'''{body}'''\n", namespace)
    return namespace["row"]


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
    row = _row_function(columns, fmt)
    if fmt == "csv":
        header = ",".join(name for name, _, _ in columns)
        text = header + "\n" + "".join(map(row, items))
    else:
        text = "[" + ",".join(map(row, items)) + "]\n"
    return text.encode("utf-8")
