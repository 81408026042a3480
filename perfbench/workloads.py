"""The four workloads: inputs drawn from a seed, execution, and checks.

A workload is an endless sequence of rounds; a round is a fixed list of
operations of the same kinds, so the share of operations that fail is the
same in every run whatever the seed and however many rounds fit.  Inputs
come from ``random.Random(f"{workload}/{seed}")``.

Operations are ``Op(kind, params)``.  ``execute`` runs one against the
program and returns its output; ``check`` compares that output with
reference.py and returns ``(ok, results, note)``.  Two kinds exercise
faults of the program on fixed inputs and fail every time: they are listed
in ``KNOWN_FAULTS``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator

import reference as ref

KNOWN_FAULTS = frozenset((
    # specfun.bessel_j cancels at large x: the TE roots of nu = 5 pi / Phi(27
    # deg) below x = 40 come back misplaced, with phantoms among them
    "window-edge",
    # legendre_theta(1.5405, 0.540541, theta) raises ConvergenceError from
    # theta ~ 2.5 rad on
    "south-hemisphere",
))

TABLE_WEDGES = (27.0, 47.0, 73.0, 90.0, 180.0)
PAPER_CAP_GHZ = 14.0
ROOT_WINDOW = 22.0  # seed-drawn root lists stop here; see README
HIGHEST_WEIGHT_BOUND = 1e-8
CASIMIR_BOUND = 1e-5


class CheckFailed(Exception):
    """An output failed a check made right after its operation."""


@dataclass
class Op:
    kind: str
    params: dict


@dataclass
class Workload:
    name: str
    setup_code: str
    make_round: Callable[[random.Random, bool], list[Op]]
    trace_rounds: int

    def rounds(self, seed: int, quick: bool) -> Iterator[list[Op]]:
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            yield self.make_round(rng, quick)


@dataclass
class Context:
    """What execution and checking share within one run."""

    root: str
    env: dict
    in_process: bool = False
    table: ref.RootTable = field(default_factory=ref.RootTable)
    ref_rows: list = field(default_factory=list)
    sweep_x: dict = field(default_factory=dict)
    compared: dict = field(default_factory=dict)
    compare_verdict: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def _num(value: float) -> str:
    return f"{value:.6f}"


def _cli_round(rng: random.Random, quick: bool) -> list[Op]:
    nu_a, x_a = rng.uniform(0.0, 10.0), rng.uniform(0.5, 12.0)
    nu_b, x_b = rng.uniform(0.0, 10.0), rng.uniform(0.5, 12.0)
    m_l = rng.uniform(0.3, 2.5)
    nu_l, th_l = m_l + rng.uniform(0.0, 3.0), rng.uniform(0.1, 2.2)
    x_g = rng.uniform(0.1, 30.0)
    cmds = [
        ["eval", "--fn", "sph-j", "--nu", _num(nu_a), "--x", _num(x_a)],
        ["eval", "--fn", "riccati-d", "--nu", _num(nu_b), "--x", _num(x_b)],
        ["eval", "--fn", "legendre-theta", "--nu", _num(nu_l), "--m", _num(m_l),
         "--x", _num(th_l)],
        ["eval", "--fn", "ln-gamma", "--x", _num(x_g)],
    ]
    for wedge in TABLE_WEDGES:
        for fmt in ("csv", "json"):
            cmds.append(["spectrum", "--radius-mm", "15", "--wedge-deg", f"{wedge:g}",
                         "--fmax-ghz", f"{PAPER_CAP_GHZ:g}", "--format", fmt])
    cmds += [["validate", "--wedge-deg", f"{w:g}"] for w in TABLE_WEDGES]
    cmds.append(["validate", "--all"])
    cmds.append(["ladder-check", "--m", _num(rng.uniform(0.3, 2.5)),
                 "--k", str(rng.randint(0, 3)), "--grid", "4096"])
    cmds.append(["oracle", "--m", _num(rng.uniform(0.5, 1.5)), "--grid", "4000",
                 "--count", "3"])
    if quick:
        cmds = [cmds[0], cmds[4], cmds[14], cmds[-2], cmds[-1]]
    return [Op("cli", {"argv": argv}) for argv in cmds]


def _run_child(ctx: Context, argv: list[str]):
    """One cold ``python -m wedgemodes.cli`` process: (exit code, stdout, peak RSS kB)."""
    proc = subprocess.Popen([sys.executable, "-m", "wedgemodes.cli", *argv],
                            cwd=ctx.root, env=ctx.env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def _run_in_process(argv: list[str]):
    from wedgemodes import cli

    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    out.flush()
    return code, buf.getvalue(), None


def _exec_cli(ctx: Context, p: dict):
    if ctx.in_process:
        return _run_in_process(p["argv"])
    return _run_child(ctx, p["argv"])


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _check_cli(ctx: Context, p: dict, out):
    code, stdout, _ = out
    argv = p["argv"]
    text = stdout.decode("utf-8")
    lines = text.splitlines()
    cmd = argv[0]
    if cmd == "eval":
        if code != 0:
            return False, 0, f"exit {code}"
        value = float(text)
        fn = _flag(argv, "--fn")
        x = float(_flag(argv, "--x"))
        if fn == "ln-gamma":
            ok = abs(value - math.lgamma(x)) <= 1e-11 * max(1.0, abs(math.lgamma(x)))
        else:
            nu = float(_flag(argv, "--nu"))
            want = {"sph-j": lambda: ref.spherical_j(nu, x),
                    "riccati-d": lambda: ref.riccati_derivative(nu, x),
                    "legendre-theta": lambda: ref.legendre_theta(
                        nu, float(_flag(argv, "--m")), x)}[fn]()
            ok = ref.value_close(value, want)
        return ok, int(ok), "" if ok else f"{fn} value {value!r}"
    if cmd == "spectrum":
        if code != 0:
            return False, 0, f"exit {code}"
        wedge = float(_flag(argv, "--wedge-deg"))
        want = ref.spectrum(ctx.table, wedge, float(_flag(argv, "--radius-mm")) * 1e-3,
                            float(_flag(argv, "--fmax-ghz")) * 1e9)
        if _flag(argv, "--format") == "csv":
            if lines[0].split(",") != ref.SPECTRUM_FIELDS:
                return False, 0, "CSV header"
            ok, _, note = ref.check_rendered_rows(list(csv.DictReader(lines)), want, False)
        else:
            ok, _, note = ref.check_rendered_rows(json.loads(text), want, True)
        return ok, int(ok), note
    if cmd == "validate":
        wedges = (sorted({r["wedge_deg"] for r in ctx.ref_rows}) if "--all" in argv
                  else [float(_flag(argv, "--wedge-deg"))])
        if lines[0] != "wedge_deg,matched,total,mean_abs_dev_vs_hfss_pct,within_tol,status":
            return False, 0, "validate header"
        if len(lines) != len(wedges) + 1:
            return False, 0, f"{len(lines) - 1} validate rows"
        all_ok = True
        for line, wedge in zip(lines[1:], wedges):
            (w, matched, total, mean_pct, within, status), ok = ref.validate_line(
                ctx.table, ctx.ref_rows, wedge)
            all_ok = all_ok and ok
            cells = line.split(",")
            if (float(cells[0]) != w or int(cells[1]) != matched or int(cells[2]) != total
                    or not ref.decimals_close(float(cells[3]), mean_pct, 4)
                    or int(cells[4]) != within or cells[5] != status):
                return False, 0, f"validate row {line!r}"
        if code != (0 if all_ok else 1):
            return False, 0, f"exit {code}"
        return True, 1, ""
    if cmd == "ladder-check":
        m = float(_flag(argv, "--m"))
        rows = list(csv.DictReader(lines))
        if code != 0 or [r["check"] for r in rows] != ["highest_weight", "casimir_quotient"]:
            return False, 0, f"exit {code} or ladder rows"
        for row, bound in zip(rows, (HIGHEST_WEIGHT_BOUND, CASIMIR_BOUND)):
            if (not ref.decimals_close(float(row["m"]), m, 6)
                    or not float(row["value"]) < bound or row["status"] != "pass"):
                return False, 0, f"ladder row {row}"
        return True, 1, ""
    if cmd == "oracle":
        m = float(_flag(argv, "--m"))
        rows = list(csv.DictReader(lines))
        if code != 0 or len(rows) != int(_flag(argv, "--count")):
            return False, 0, f"exit {code} or oracle rows"
        for i, row in enumerate(rows):
            nu, lam = float(row["nu"]), float(row["lambda"])
            if abs(nu - (m + i)) > 0.01 * (m + i):
                return False, 0, f"oracle degree {i}: {nu} vs {m + i}"
            if abs(lam - nu * (nu + 1.0)) > (2.0 * nu + 2.0) * 1e-6:
                return False, 0, f"oracle lambda {i}"
        return True, 1, ""
    return False, 0, f"unknown command {cmd}"


# ---------------------------------------------------------------------------
# wide-spectrum
# ---------------------------------------------------------------------------

# Wedge strata and a mode-count target: the cap for each wedge comes from
# the Weyl estimate N ~ (Phi / 2 pi) * 4 x^3 / (9 pi), so every enumeration
# returns about the same number of modes and costs about the same.
_WIDE_STRATA = ((20.0, 55.0), (55.0, 90.0), (90.0, 125.0), (125.0, 160.0))
_WIDE_MODES = 120
_WIDE_RADIUS = 0.015


def _weyl_cap(wedge_deg: float, modes: int) -> float:
    phi = ref.domain_phi(wedge_deg)
    return (modes * 9.0 * math.pi * 2.0 * math.pi / (4.0 * phi)) ** (1.0 / 3.0)


def _wide_round(rng: random.Random, quick: bool) -> list[Op]:
    target = 40 if quick else _WIDE_MODES
    ops = []
    for lo, hi in _WIDE_STRATA:
        wedge = rng.uniform(lo, hi)
        f_max = _weyl_cap(wedge, target) * ref.SPEED_OF_LIGHT / (2.0 * math.pi * _WIDE_RADIUS)
        ops.append(Op("enumerate", {"wedge": wedge, "radius": _WIDE_RADIUS, "f_max": f_max}))
    nus = [rng.uniform(0.0, 12.0) for _ in range(2 if quick else 12)]
    ops.append(Op("roots", {"nus": nus, "x_max": ROOT_WINDOW}))
    ops.append(Op("window-edge", {}))
    return ops


def _exec_enumerate(ctx: Context, p: dict):
    from wedgemodes import modes

    config = modes.WedgeConfig.from_degrees(p["wedge"], p["radius"])
    return modes.enumerate_spectrum(config, p["f_max"])


def _check_enumerate(ctx: Context, p: dict, records):
    want = ref.spectrum(ctx.table, p["wedge"], p["radius"], p["f_max"])
    return ref.check_records(records, want, p["wedge"], p["radius"])


def _exec_roots(ctx: Context, p: dict):
    from wedgemodes import modes

    found = {}
    for nu in p["nus"]:
        for pol in ("TE", "TM"):
            root = modes.te_root if pol == "TE" else modes.tm_root
            xs = []
            while True:
                x = root(nu, len(xs) + 1)
                if x > p["x_max"]:
                    break
                xs.append(x)
            found[(pol, nu)] = xs
    return found


def _check_roots(ctx: Context, p: dict, found):
    return ref.check_root_lists(found, ctx.table, p["x_max"])


def _window_edge_nu() -> float:
    return 5 * math.pi / ref.domain_phi(27.0)


def _exec_window_edge(ctx: Context, p: dict):
    from wedgemodes import modes

    nu = _window_edge_nu()
    xs = []
    while True:
        try:
            xs.append(modes.te_root(nu, len(xs) + 1))
        except modes.RootNotFoundError:
            return {("TE", nu): xs}


def _check_window_edge(ctx: Context, p: dict, found):
    return ref.check_root_lists(found, ctx.table, 40.0)


# ---------------------------------------------------------------------------
# radius-sweep
# ---------------------------------------------------------------------------

_SWEEP_WEDGES = (27.0, 90.0, 180.0)
_SWEEP_RADII_MM = (10.0, 30.0)


def _sweep_round(rng: random.Random, quick: bool) -> list[Op]:
    wedges = _SWEEP_WEDGES[:2] if quick else _SWEEP_WEDGES
    per = 1 if quick else 6
    return [Op("sweep", {"wedge": w, "radius": 1e-3 * rng.uniform(*_SWEEP_RADII_MM),
                         "f_max": PAPER_CAP_GHZ * 1e9})
            for w in wedges for _ in range(per)]


def _exec_sweep(ctx: Context, p: dict):
    from wedgemodes import modes, report

    records = modes.enumerate_spectrum(
        modes.WedgeConfig.from_degrees(p["wedge"], p["radius"]), p["f_max"])
    as_csv = report.render(records, "csv")
    as_json = report.render(records, "json")
    blk = report.block_reference(p["wedge"])
    cap = 1.3 * max(row.f_theory_ghz for row in blk) * 1e9
    table = modes.enumerate_spectrum(
        modes.WedgeConfig.from_degrees(p["wedge"], ref.TABLE_RADIUS), cap)
    rows, mean_abs = report.compare(table, blk)
    return records, as_csv, as_json, rows, mean_abs


def _inline_sweep(ctx: Context, p: dict, out):
    """Checks that need no reference, made right after the operation so that
    only a digest of the mode set is kept: properties, x unchanged across
    radii (x is kept once per mode), the rendered CSV and JSON against the
    records, and the same comparison every time."""
    records, as_csv, as_json, rows, mean_abs = out
    modes = [ref.mode_tuple(rec) for rec in records]
    ok, note = ref.check_properties(modes, p["wedge"], p["radius"])
    if not ok:
        raise CheckFailed(note)
    for md in modes:
        key = (p["wedge"], *md[:4])
        x0 = ctx.sweep_x.setdefault(key, md[6])
        if abs(md[6] - x0) > 1e-12 * x0:
            raise CheckFailed(f"x of {key} moved with the radius: {md[6]!r} vs {x0!r}")
    text = as_csv.decode("utf-8").splitlines()
    if text[0].split(",") != ref.SPECTRUM_FIELDS:
        raise CheckFailed("CSV header")
    for rendered, m_sig in ((list(csv.DictReader(text)), False), (json.loads(as_json), True)):
        ok, _, note = ref.check_rendered_rows(rendered, modes, m_sig)
        if not ok:
            raise CheckFailed("render: " + note)
    compared = (tuple((r.matched, r.f_computed_ghz, r.dev_vs_theory, r.dev_vs_hfss,
                       r.within_tol) for r in rows), mean_abs)
    if ctx.compared.setdefault(p["wedge"], compared) != compared:
        raise CheckFailed("report.compare changed between operations")
    return _mode_set_digest(md[:4] for md in modes)


def _mode_set_digest(keys) -> tuple[int, int]:
    keys = sorted(keys)
    return len(keys), hash(tuple(keys))


def _check_sweep(ctx: Context, p: dict, digest):
    want = ref.spectrum(ctx.table, p["wedge"], p["radius"], p["f_max"])
    if digest != _mode_set_digest(r[:4] for r in want):
        return False, 0, f"{digest[0]} modes, {len(want)} expected, or other modes"
    for r in want:
        x = ctx.sweep_x[(p["wedge"], *r[:4])]
        if abs(x - r[6]) > ref.ROOT_REL_TOL * r[6]:
            return False, 0, f"root {r[:4]}: {x!r} vs {r[6]!r}"
    if p["wedge"] not in ctx.compare_verdict:
        blk = ref.block(ctx.ref_rows, p["wedge"])
        table = ref.spectrum(ctx.table, p["wedge"], ref.TABLE_RADIUS, ref.block_cap_hz(blk))
        expected, expected_mean = ref.compare(table, blk)
        rows, mean_abs = ctx.compared[p["wedge"]]
        ctx.compare_verdict[p["wedge"]] = ref.check_comparison(
            rows, mean_abs, expected, expected_mean)
    ok, _, note = ctx.compare_verdict[p["wedge"]]
    return ok, len(want) if ok else 0, note


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

_GRID = 4096
_POLE_MARGIN = 0.1
_PROFILE_POINTS = 64
_NORTH_LIMIT = 2.2  # fractional nu - m profiles stop here; see README
_SOUTH_NU, _SOUTH_M = 1.5405, 0.540541
_EPS = 2.0 ** -52


def _linspace(a: float, b: float, n: int) -> list[float]:
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _certify_round(rng: random.Random, quick: bool) -> list[Op]:
    ops = [Op("ladder", {"m": rng.uniform(0.3, 2.5), "k": rng.randint(0, 3)})
           for _ in range(2)]
    m = rng.uniform(0.4, 0.95)
    ops.append(Op("south-pole", {"m": m, "nu": m + rng.randint(0, 2), "integer": True}))
    m = rng.uniform(0.4, 0.95)
    ops.append(Op("south-pole", {"m": m, "nu": m + rng.randint(0, 1) + rng.uniform(0.2, 0.8),
                                 "integer": False}))
    ops.append(Op("fd", {"m": rng.uniform(0.5, 1.5)}))
    nu = rng.uniform(0.5, 12.0)
    ops.append(Op("dd-series", {"nu": nu, "xs": sorted(rng.uniform(0.5, 12.0)
                                                       for _ in range(32))}))
    m = rng.uniform(0.3, 2.5)
    ops.append(Op("legendre", {"m": m, "nu": m + rng.randint(0, 3),
                               "thetas": _linspace(0.05, math.pi - 0.05, _PROFILE_POINTS)}))
    m = rng.uniform(0.3, 2.5)
    ops.append(Op("legendre", {"m": m, "nu": m + rng.uniform(0.05, 2.95),
                               "thetas": _linspace(0.05, _NORTH_LIMIT, _PROFILE_POINTS)}))
    ops.append(Op("south-hemisphere", {
        "m": _SOUTH_M, "nu": _SOUTH_NU,
        "thetas": _linspace(0.05, math.pi - 0.05, _PROFILE_POINTS)}))
    return ops


def _exec_ladder(ctx: Context, p: dict):
    from wedgemodes import angular

    grid = angular.uniform_grid(_GRID)
    sect = angular.sectoral(p["m"], grid)
    raised = angular.apply_raising(sect)
    tess = angular.build_tesseral(p["m"], p["k"], grid)
    return grid, sect.values, raised.values, angular.casimir_eigenvalue_estimate(tess)


def _inline_ladder(ctx: Context, p: dict, out):
    """Reduce the sampled profiles to the highest-weight residual and the quotient."""
    import numpy as np

    grid, sect, raised, quotient = out
    inner = (grid >= _POLE_MARGIN) & (grid <= math.pi - _POLE_MARGIN)
    return float(np.max(np.abs(raised[inner])) / np.max(np.abs(sect))), quotient


def _check_ladder(ctx: Context, p: dict, out):
    highest, quotient = out
    target = (p["m"] + p["k"]) * (p["m"] + p["k"] + 1.0)
    casimir = abs(quotient - target) / target
    if not highest < HIGHEST_WEIGHT_BOUND:
        return False, 0, f"raising leaves {highest:.3e} of the sectoral profile"
    if not casimir < CASIMIR_BOUND:
        return False, 0, f"Casimir quotient off by {casimir:.3e}"
    return True, 2, ""


def _exec_south_pole(ctx: Context, p: dict):
    from wedgemodes import angular

    return angular.south_pole_coefficient(p["nu"], p["m"])


def _check_south_pole(ctx: Context, p: dict, fit):
    b = abs(fit.b_sing)
    ok = b <= 1e-5 if p["integer"] else b >= 1e-2
    return ok, int(ok), "" if ok else f"b_sing {fit.b_sing:.3e} (integer={p['integer']})"


def _exec_fd(ctx: Context, p: dict):
    from wedgemodes import oracle

    return oracle.legendre_spectrum_fd(p["m"], 4000, 3)


def _check_fd(ctx: Context, p: dict, result):
    for i, nu in enumerate(result.nus):
        if abs(nu - (p["m"] + i)) > 0.01 * (p["m"] + i):
            return False, 0, f"FD degree {i}: {nu} vs {p['m'] + i}"
    return True, len(result.nus), ""


def _exec_dd(ctx: Context, p: dict):
    from wedgemodes import oracle, specfun

    fast = [specfun.bessel_j(p["nu"], x) for x in p["xs"]]
    slow = [oracle.bessel_series_reference(p["nu"], x, 200) for x in p["xs"]]
    return fast, slow


def _check_dd(ctx: Context, p: dict, out):
    """The two sums of the same alternating series agree to the rounding
    bound of the double-precision one: a few eps times the sum of |terms|,
    which is I_nu(x)."""
    for x, fast, slow in zip(p["xs"], *out):
        if abs(fast - slow) > 16 * _EPS * ref.bessel_i(p["nu"], x):
            return False, 0, f"J_{p['nu']:.4f}({x:.4f}): {fast!r} vs double-double {slow!r}"
    return True, len(p["xs"]), ""


def _exec_legendre(ctx: Context, p: dict):
    from wedgemodes import specfun

    return [specfun.legendre_theta(p["nu"], p["m"], t) for t in p["thetas"]]


def _check_legendre(ctx: Context, p: dict, values):
    for t, v in zip(p["thetas"], values):
        want = ref.legendre_theta(p["nu"], p["m"], t)
        if not ref.value_close(v, want):
            return False, 0, f"legendre_theta({p['nu']:.4f}, {p['m']:.4f}, {t:.4f}) = {v!r}"
    return True, len(values), ""


INLINE = {
    "sweep": _inline_sweep,
    "ladder": _inline_ladder,
}

EXECUTE = {
    "cli": _exec_cli,
    "enumerate": _exec_enumerate,
    "roots": _exec_roots,
    "window-edge": _exec_window_edge,
    "sweep": _exec_sweep,
    "ladder": _exec_ladder,
    "south-pole": _exec_south_pole,
    "fd": _exec_fd,
    "dd-series": _exec_dd,
    "legendre": _exec_legendre,
    "south-hemisphere": _exec_legendre,
}

CHECK = {
    "cli": _check_cli,
    "enumerate": _check_enumerate,
    "roots": _check_roots,
    "window-edge": _check_window_edge,
    "sweep": _check_sweep,
    "ladder": _check_ladder,
    "south-pole": _check_south_pole,
    "fd": _check_fd,
    "dd-series": _check_dd,
    "legendre": _check_legendre,
    "south-hemisphere": _check_legendre,
}

_CLI_SETUP = "import wedgemodes.cli\nfrom wedgemodes import report\nreport.load_reference()"

WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-cold", _CLI_SETUP, _cli_round, 1),
        Workload("wide-spectrum", "import wedgemodes.modes", _wide_round, 1),
        Workload("radius-sweep", "import wedgemodes.modes, wedgemodes.report\n"
                 "wedgemodes.report.load_reference()", _sweep_round, 60),
        Workload("certify", "import wedgemodes.angular, wedgemodes.oracle, wedgemodes.specfun",
                 _certify_round, 60),
    )
}
