"""Command-line front end.

Five subcommands expose the library surface:

* ``spectrum`` — enumerate cavity modes below a frequency cap and print
  them as CSV or JSON.
* ``validate`` — compare computed spectra against the embedded reference
  tables; per-wedge summaries go to stdout, per-row detail to stderr, and
  the exit code is 1 as soon as any tabulated theory value is missed or
  the embedded table fails its checksum.
* ``ladder-check`` — certify the highest-weight annihilation and the
  Casimir eigenvalue of a ladder-built profile on a chosen grid.
* ``oracle`` — run the finite-difference eigensolver for one azimuthal
  weight and print the eigenvalue/degree estimates.
* ``eval`` — evaluate one special function at a point.

Units at the interface are millimetres and gigahertz (the tables'
presentation units); everything internal is SI.  Machine-readable output
goes to stdout only, diagnostics to stderr only, and identical invocations
produce byte-identical stdout.  Exit codes: 0 success, 1 validation
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

# modes and report are imported by the commands that run them, so that
# ``eval`` starts without them
from .oracle import legendre_spectrum_fd
from .specfun import ConvergenceError, ln_gamma, legendre_theta, riccati_derivative, spherical_j

__all__ = ["main"]

_HIGHEST_WEIGHT_BOUND = 1e-8
_CASIMIR_BOUND = 1e-5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wedgemodes",
        description="Eigenmode spectra of spherical cavities with conducting wedges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spectrum = sub.add_parser("spectrum", help="enumerate modes below a frequency cap")
    p_spectrum.add_argument("--radius-mm", type=float, required=True, help="sphere radius, mm")
    p_spectrum.add_argument("--wedge-deg", type=float, required=True, help="wedge opening, degrees")
    p_spectrum.add_argument("--fmax-ghz", type=float, required=True, help="frequency cap, GHz")
    p_spectrum.add_argument("--pol", choices=("te", "tm", "both"), default="both")
    p_spectrum.add_argument("--format", choices=("csv", "json"), default="csv")
    p_spectrum.set_defaults(run=_cmd_spectrum)

    p_val = sub.add_parser("validate", help="compare against the embedded reference tables")
    group = p_val.add_mutually_exclusive_group()
    group.add_argument("--wedge-deg", type=float, help="validate one wedge block")
    group.add_argument("--all", action="store_true", help="validate every block (default)")
    p_val.add_argument("--tol-pct", type=float, default=0.2,
                       help="tolerance against tabulated theory values, percent")
    p_val.set_defaults(run=_cmd_validate)

    p_lad = sub.add_parser("ladder-check", help="certify ladder-algebra identities")
    p_lad.add_argument("--m", type=float, default=2.0 / 3.0, help="azimuthal weight")
    p_lad.add_argument("--k", type=int, default=1, help="lowering steps for the tesseral check")
    p_lad.add_argument("--grid", type=int, default=4096, help="grid size")
    p_lad.set_defaults(run=_cmd_ladder_check)

    p_orc = sub.add_parser("oracle", help="finite-difference eigensolver")
    p_orc.add_argument("--m", type=float, required=True, help="azimuthal weight")
    p_orc.add_argument("--grid", type=int, default=4000, help="grid size")
    p_orc.add_argument("--count", type=int, default=3, help="number of eigenvalues")
    p_orc.set_defaults(run=_cmd_oracle)

    p_eval = sub.add_parser("eval", help="evaluate one special function")
    p_eval.add_argument("--fn", choices=("sph-j", "riccati-d", "legendre-theta", "ln-gamma"),
                        required=True)
    p_eval.add_argument("--nu", type=float, help="order / degree")
    p_eval.add_argument("--m", type=float, help="azimuthal weight (legendre-theta)")
    p_eval.add_argument("--x", type=float, required=True,
                        help="argument (radians for legendre-theta)")
    p_eval.set_defaults(run=_cmd_eval)
    return parser


def _cmd_spectrum(args: argparse.Namespace) -> tuple[bytes, int]:
    from . import modes, report

    config = modes.WedgeConfig.from_degrees(args.wedge_deg, args.radius_mm * 1e-3)
    pols = {"te": frozenset(("TE",)), "tm": frozenset(("TM",)),
            "both": frozenset(("TM", "TE"))}[args.pol]
    records = modes.enumerate_spectrum(config, args.fmax_ghz * 1e9, pols)
    return report.render(records, args.format), 0


def _cmd_validate(args: argparse.Namespace) -> tuple[bytes, int]:
    from . import report

    try:
        table = report.load_reference()
    except report.ReferenceIntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return b"", 1
    if args.wedge_deg is not None:
        wedges = [args.wedge_deg]
    else:
        wedges = sorted({row.wedge_deg for row in table})
    tol = args.tol_pct / 100.0
    lines = ["wedge_deg,matched,total,mean_abs_dev_vs_hfss_pct,within_tol,status"]
    failed = False
    for wedge in wedges:
        rows, mean_abs = report._validate_block(wedge, tol)
        matched = sum(row.matched for row in rows)
        within = sum(row.within_tol for row in rows)
        ok = within == len(rows)
        failed = failed or not ok
        lines.append(
            f"{wedge:g},{matched},{len(rows)},{100.0 * mean_abs:.4f},"
            f"{within},{'pass' if ok else 'fail'}"
        )
        for row in rows:
            if not row.matched:
                print(
                    f"wedge {wedge:g} mode {row.reference.mode_index}: "
                    f"no computed mode matches "
                    f"({row.reference.polarisation}, m={row.reference.m:.6f}, "
                    f"k={row.reference.k})",
                    file=sys.stderr,
                )
            elif not row.within_tol:
                print(
                    f"wedge {wedge:g} mode {row.reference.mode_index}: "
                    f"computed {row.f_computed_ghz:.4f} GHz vs tabulated "
                    f"{row.reference.f_theory_ghz:.4f} GHz "
                    f"({100.0 * row.dev_vs_theory:+.3f}% > {args.tol_pct:g}%)",
                    file=sys.stderr,
                )
    return ("\n".join(lines) + "\n").encode("utf-8"), 1 if failed else 0


def _cmd_ladder_check(args: argparse.Namespace) -> tuple[bytes, int]:
    if args.m + args.k == 0.0:
        raise ValueError("ladder-check needs m + k > 0: the Casimir target (m+k)(m+k+1) is 0")
    # imported here so that the other commands start without numpy
    import numpy as np

    from . import angular

    grid = angular.uniform_grid(args.grid)
    mask = angular.interior_mask(grid)

    sect = angular.sectoral(args.m, grid)
    raised = angular.apply_raising(sect)
    highest = float(np.max(np.abs(raised.values[mask])) / np.max(np.abs(sect.values)))

    tess = angular.build_tesseral(args.m, args.k, grid)
    target = (args.m + args.k) * (args.m + args.k + 1.0)
    quotient = angular.casimir_eigenvalue_estimate(tess)
    casimir = abs(quotient - target) / target

    lines = ["check,m,k,grid,value,bound,status"]
    failed = False
    for name, k_cell, value, bound in (
        ("highest_weight", "", highest, _HIGHEST_WEIGHT_BOUND),
        ("casimir_quotient", str(args.k), casimir, _CASIMIR_BOUND),
    ):
        ok = value < bound
        failed = failed or not ok
        lines.append(
            f"{name},{args.m:.6f},{k_cell},{args.grid},{value:.3e},{bound:.1e},"
            f"{'pass' if ok else 'fail'}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8"), 1 if failed else 0


def _cmd_oracle(args: argparse.Namespace) -> tuple[bytes, int]:
    result = legendre_spectrum_fd(args.m, args.grid, args.count)
    lines = ["index,lambda,nu"]
    for i, (lam, nu) in enumerate(zip(result.lambdas, result.nus)):
        lines.append(f"{i},{lam:.6f},{nu:.6f}")
    return ("\n".join(lines) + "\n").encode("utf-8"), 0


def _cmd_eval(args: argparse.Namespace) -> tuple[bytes, int]:
    # the flags each function takes besides --x: required, and the others refused
    takes = {"sph-j": ("nu",), "riccati-d": ("nu",), "legendre-theta": ("nu", "m"),
             "ln-gamma": ()}[args.fn]
    for flag in ("nu", "m"):
        if (getattr(args, flag) is None) == (flag in takes):
            verb = "requires" if flag in takes else "does not take"
            raise ValueError(f"--fn {args.fn} {verb} --{flag}")
    if args.fn == "sph-j":
        value = spherical_j(args.nu, args.x)
    elif args.fn == "riccati-d":
        value = riccati_derivative(args.nu, args.x)
    elif args.fn == "legendre-theta":
        value = legendre_theta(args.nu, args.m, args.x)
    else:
        value = ln_gamma(args.x)
    return f"{value:.12g}\n".encode("utf-8"), 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out, code = args.run(args)
    except (ValueError, ConvergenceError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.buffer.write(out)
    sys.stdout.buffer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
