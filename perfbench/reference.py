"""Independent reference computations and the checks built on them.

Nothing here calls wedgemodes.  numpy, scipy and mpmath are imported on
first use, so the measuring process holds only what the program loads
until its timed phase is over.  Radial roots come from scipy ``jv`` on a
0.01 grid refined with ``brentq``; special-function values from
``scipy.special``, ``math.lgamma`` and mpmath ``hyp2f1``; the reference
table is read straight from the CSV resource.  Every check returns
``(ok, results, note)``: ``results`` is the number of verified results
(modes, roots, identities or invocations) and ``note`` says what failed.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

SPEED_OF_LIGHT = 299_792_458.0
TABLE_RADIUS = 0.015
ROOT_REL_TOL = 1e-7  # catches a 1e-6 shift; the library is ~1e-9 below x = 22
_SCAN_STEP = 0.01

SPECTRUM_FIELDS = ["pol", "n", "k", "m", "nu", "s", "x", "freq_ghz", "family"]


def _char(pol: str):
    from scipy.special import jv

    if pol == "TE":
        return lambda nu, x: jv(nu + 0.5, x)
    return lambda nu, x: (nu + 1.0) * jv(nu + 0.5, x) - x * jv(nu + 1.5, x)


class RootTable:
    """Zeros of j_nu (TE) and d/dx[x j_nu] (TM), cached per (pol, nu).

    The sign of either function is that of the cylinder expression used
    here, since sqrt(pi / 2x) > 0.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple[str, float], tuple[float, list[float]]] = {}

    def roots(self, pol: str, nu: float, x_max: float) -> list[float]:
        key = (pol, nu)
        scanned, found = self._cache.get(key, (0.0, []))
        if x_max > scanned:
            import numpy as np
            from scipy.optimize import brentq

            f = _char(pol)
            xs = np.arange(_SCAN_STEP, x_max + 2 * _SCAN_STEP, _SCAN_STEP)
            vals = f(nu, xs)
            sign = np.signbit(vals)
            found = [
                brentq(lambda x: f(nu, x), xs[i], xs[i + 1], xtol=1e-14, rtol=1e-15)
                for i in np.nonzero(sign[:-1] != sign[1:])[0]
            ]
            scanned = float(xs[-1])
            self._cache[key] = (scanned, found)
        return [x for x in found if x <= x_max]

    def nth_root(self, pol: str, nu: float, s: int) -> float:
        x_max = 40.0
        while True:
            found = self.roots(pol, nu, x_max)
            if len(found) >= s:
                return found[s - 1]
            x_max *= 1.5


def domain_phi(wedge_deg: float) -> float:
    return 2.0 * math.pi - math.radians(wedge_deg)


def family(m: float, k: int) -> str:
    if m == 0.0:
        return "zonal"
    return "sectoral" if k == 0 else "tesseral"


def spectrum(table: RootTable, wedge_deg: float, radius: float, f_max_hz: float,
             pols=("TM", "TE")) -> list[tuple]:
    """Modes at or below ``f_max_hz`` as (pol, n, k, s, m, nu, x, freq_hz, family),
    sorted by frequency with ties broken by (TM first, n, k, s)."""
    phi = domain_phi(wedge_deg)
    cap = x_cap(radius, f_max_hz)
    out = []
    for pol in pols:
        n = 1 if pol == "TM" else 0
        while True:
            m = n * math.pi / phi
            k = 0
            while True:
                nu = m + k
                xs = table.roots(pol, nu, cap)
                if not xs:
                    break
                if not (pol == "TE" and nu == 0.0):
                    for s, x in enumerate(xs, start=1):
                        freq = SPEED_OF_LIGHT * x / (2.0 * math.pi * radius)
                        out.append((pol, n, k, s, m, nu, x, freq, family(m, k)))
                k += 1
            if k == 0:
                break
            n += 1
    out.sort(key=lambda r: (r[7], 0 if r[0] == "TM" else 1, r[1], r[2], r[3]))
    return out


def x_cap(radius: float, f_max_hz: float) -> float:
    return 2.0 * math.pi * radius * f_max_hz / SPEED_OF_LIGHT


def warm(table: RootTable, wedge_deg: float, cap: float) -> None:
    """Scan every order of a geometry up to ``x = cap`` once, so that later
    spectra at smaller caps only filter cached roots."""
    spectrum(table, wedge_deg, 1.0, cap * SPEED_OF_LIGHT / (2.0 * math.pi))


# ---------------------------------------------------------------------------
# spectrum checks
# ---------------------------------------------------------------------------


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def mode_tuple(rec) -> tuple:
    """A library ModeRecord in the layout :func:`spectrum` uses."""
    mid = rec.id
    return (mid.polarisation, mid.n, mid.k, mid.s, mid.m, mid.nu, rec.x, rec.freq_hz,
            rec.family)


def check_properties(modes: list[tuple], wedge_deg: float, radius: float):
    """The method's properties on a computed spectrum: nu = m + k,
    m = n pi / Phi, f = c x / (2 pi a), families, no duplicates and
    ascending frequency.  Returns (ok, note)."""
    phi = domain_phi(wedge_deg)
    seen = set()
    prev = 0.0
    for pol, n, k, s, m, nu, x, freq, fam in modes:
        key = (pol, n, k, s)
        if key in seen:
            return False, f"duplicate mode {key}"
        seen.add(key)
        if freq < prev:
            return False, f"frequency order broken at {key}"
        prev = freq
        if abs(nu - m - k) > 1e-12 * max(1.0, nu):
            return False, f"nu != m + k at {key}"
        if abs(m - n * math.pi / phi) > 1e-12 * max(1.0, m):
            return False, f"m != n pi / Phi at {key}"
        if _rel(freq, SPEED_OF_LIGHT * x / (2.0 * math.pi * radius)) > 1e-12:
            return False, f"frequency inconsistent with x at {key}"
        if fam != family(m, k):
            return False, f"family {fam} at {key}"
    return True, ""


def check_records(records, ref: list[tuple], wedge_deg: float, radius: float):
    """Library ModeRecords against the method's properties, then against the
    reference: the same modes, each root within ROOT_REL_TOL."""
    modes = [mode_tuple(rec) for rec in records]
    ok, note = check_properties(modes, wedge_deg, radius)
    if not ok:
        return False, 0, note
    got = {md[:4]: md for md in modes}
    want = {r[:4]: r for r in ref}
    if got.keys() != want.keys():
        missing = sorted(want.keys() - got.keys())[:3]
        extra = sorted(got.keys() - want.keys())[:3]
        return False, 0, f"{len(got)} modes vs {len(want)}: missing {missing} extra {extra}"
    for key, md in got.items():
        if _rel(md[6], want[key][6]) > ROOT_REL_TOL:
            return False, 0, f"root {key}: {md[6]!r} vs {want[key][6]!r}"
    return True, len(got), ""


def check_root_lists(found: dict, table: RootTable, x_max: float):
    """{(pol, nu): [x_1, x_2, ...]} against every reference root <= x_max."""
    total = 0
    for (pol, nu), xs in found.items():
        ref = table.roots(pol, nu, x_max)
        if len(xs) != len(ref):
            return False, 0, f"{pol} nu={nu:.6f}: {len(xs)} roots vs {len(ref)}"
        for s, (x, r) in enumerate(zip(xs, ref), start=1):
            if _rel(x, r) > ROOT_REL_TOL:
                return False, 0, f"{pol} nu={nu:.6f} s={s}: {x!r} vs {r!r}"
        total += len(xs)
    return True, total, ""


def printed_close(printed: float, ref: float, sig: int = 6) -> bool:
    """True when ``printed`` is ``ref`` rounded to ``sig`` significant digits
    (half a unit in the last place, with a hair of slack for ties)."""
    if ref == 0.0:
        return printed == 0.0
    ulp = 10.0 ** (math.floor(math.log10(abs(ref))) - sig + 1)
    return abs(printed - ref) <= 0.5 * ulp * (1.0 + 1e-6)


def decimals_close(printed: float, ref: float, places: int) -> bool:
    return abs(printed - ref) <= 0.5 * 10.0 ** (-places) * (1.0 + 1e-6) + 1e-15


def check_rendered_rows(rows: list[dict], ref: list[tuple], m_sig: bool):
    """Parsed CSV or JSON spectrum rows against the reference at the printed
    precision (x and frequency to six significant digits; m and nu to six
    decimals in CSV, six significant digits in JSON)."""
    want = {(r[0], r[1], r[2], r[3]): r for r in ref}
    seen = set()
    prev = 0.0
    for row in rows:
        key = (row["pol"], int(row["n"]), int(row["k"]), int(row["s"]))
        if key not in want or key in seen:
            return False, 0, f"unexpected row {key}"
        seen.add(key)
        r = want[key]
        freq = float(row["freq_ghz"])
        if freq < prev:
            return False, 0, f"rendered frequency order broken at {key}"
        prev = freq
        for name, value, exact in (("m", row["m"], r[4]), ("nu", row["nu"], r[5])):
            ok = (printed_close(float(value), exact) if m_sig and exact != 0.0
                  else decimals_close(float(value), exact, 6))
            if not ok:
                return False, 0, f"{name} {value} vs {exact!r} at {key}"
        if not printed_close(float(row["x"]), r[6]):
            return False, 0, f"x {row['x']} vs {r[6]!r} at {key}"
        if not printed_close(freq, r[7] / 1e9):
            return False, 0, f"freq {freq} vs {r[7] / 1e9!r} at {key}"
        if row["family"] != r[8]:
            return False, 0, f"family {row['family']} at {key}"
    if len(seen) != len(want):
        return False, 0, f"{len(seen)} rows vs {len(want)} modes"
    return True, len(seen), ""


# ---------------------------------------------------------------------------
# reference table, comparison and validation
# ---------------------------------------------------------------------------


def reference_rows(root: Path) -> list[dict]:
    path = root / "src" / "wedgemodes" / "data" / "reference_tables.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for name in ("wedge_deg", "m", "nu", "f_theory_ghz", "f_hfss_ghz"):
            row[name] = float(row[name])
        row["mode_index"] = int(row["mode_index"])
        row["k"] = int(row["k"])
    return rows


def block(rows: list[dict], wedge_deg: float) -> list[dict]:
    return sorted((r for r in rows if r["wedge_deg"] == wedge_deg),
                  key=lambda r: r["mode_index"])


def block_cap_hz(rows: list[dict]) -> float:
    return 1.3 * max(r["f_theory_ghz"] for r in rows) * 1e9


def compare(modes: list[tuple], rows: list[dict], tol: float = 0.002):
    """Per reference row: (matched, f_ghz, dev_theory, dev_hfss, within_tol),
    plus the mean |dev_hfss| over matched rows.  A row matches the modes of
    its polarisation, k and m within 1e-3; the one closest to the HFSS value
    is taken."""
    out = []
    devs = []
    for row in rows:
        cands = [md for md in modes
                 if md[0] == row["pol"] and abs(md[4] - row["m"]) <= 1e-3 and md[2] == row["k"]]
        if not cands:
            out.append((False, None, None, None, False))
            continue
        best = min(cands, key=lambda md: abs(md[7] / 1e9 - row["f_hfss_ghz"]))
        f = best[7] / 1e9
        d_t = (f - row["f_theory_ghz"]) / row["f_theory_ghz"]
        d_h = (f - row["f_hfss_ghz"]) / row["f_hfss_ghz"]
        devs.append(abs(d_h))
        out.append((True, f, d_t, d_h, abs(d_t) <= tol))
    return out, (sum(devs) / len(devs) if devs else 0.0)


def check_comparison(rows_out, mean_abs: float, expected, expected_mean: float):
    """report.compare output, as (matched, f_ghz, dev_theory, dev_hfss,
    within_tol) per row, against :func:`compare`."""
    if len(rows_out) != len(expected):
        return False, 0, f"{len(rows_out)} comparison rows vs {len(expected)}"
    for i, (row, want) in enumerate(zip(rows_out, expected)):
        matched, f, d_t, d_h, within = want
        if row[0] != matched or row[4] != within:
            return False, 0, f"comparison row {i + 1}: matched/within differ"
        if matched and (_rel(row[1], f) > 1e-9 or abs(row[2] - d_t) > 1e-9
                        or abs(row[3] - d_h) > 1e-9):
            return False, 0, f"comparison row {i + 1}: deviations differ"
    if abs(mean_abs - expected_mean) > 1e-9:
        return False, 0, "mean deviation differs"
    return True, len(expected), ""


def validate_line(table: RootTable, rows: list[dict], wedge_deg: float,
                  tol: float = 0.002) -> tuple[str, bool]:
    """The expected ``validate`` summary fields for one block, and whether it
    passes: (wedge, matched, total, mean pct, within, status)."""
    blk = block(rows, wedge_deg)
    modes = spectrum(table, wedge_deg, TABLE_RADIUS, block_cap_hz(blk))
    per_row, mean_abs = compare(modes, blk, tol)
    matched = sum(r[0] for r in per_row)
    within = sum(r[4] for r in per_row)
    ok = within == len(per_row)
    return (wedge_deg, matched, len(per_row), 100.0 * mean_abs, within,
            "pass" if ok else "fail"), ok


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------


def spherical_j(nu: float, x: float) -> float:
    from scipy.special import jv

    return math.sqrt(math.pi / (2.0 * x)) * float(jv(nu + 0.5, x))


def bessel_i(nu: float, x: float) -> float:
    from scipy.special import iv

    return float(iv(nu, x))


def riccati_derivative(nu: float, x: float) -> float:
    from scipy.special import jv

    return math.sqrt(math.pi / (2.0 * x)) * float(
        (nu + 1.0) * jv(nu + 0.5, x) - x * jv(nu + 1.5, x))


def legendre_theta(nu: float, m: float, theta: float) -> float:
    """(sin t)^m 2F1(m - nu, m + nu + 1; m + 1; sin^2(t/2)) in 20-digit mpmath."""
    import mpmath

    with mpmath.workdps(20):
        t = mpmath.mpf(theta)
        u = mpmath.sin(t / 2) ** 2
        return float(mpmath.sin(t) ** m * mpmath.hyp2f1(m - nu, m + nu + 1, m + 1, u))


def value_close(value: float, ref: float, rel: float = 1e-9, floor: float = 1e-2) -> bool:
    """Agreement relative to max(|ref|, floor), so values near a zero of the
    function are judged against its scale rather than against zero."""
    return abs(value - ref) <= rel * max(abs(ref), floor)
