"""End-to-end tests of the command-line interface (subprocess level)."""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys

import pytest

SPECTRUM_HEADER = "pol,n,k,m,nu,s,x,freq_ghz,family"
VALIDATE_HEADER = "wedge_deg,matched,total,mean_abs_dev_vs_hfss_pct,within_tol,status"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "wedgemodes.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def validate_all():
    return run_cli("validate", "--all")


class TestSpectrum:
    def test_quarter_wedge_csv(self):
        proc = run_cli(
            "spectrum", "--radius-mm", "15", "--wedge-deg", "90",
            "--fmax-ghz", "14", "--format", "csv",
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert len(lines) == 7  # header + six modes
        assert lines[0] == SPECTRUM_HEADER
        assert lines[1].startswith("TM,1,0,0.666667")

    def test_quarter_wedge_json(self):
        proc = run_cli(
            "spectrum", "--radius-mm", "15", "--wedge-deg", "90",
            "--fmax-ghz", "14", "--format", "json",
        )
        assert proc.returncode == 0
        objs = json.loads(proc.stdout)
        assert len(objs) == 6
        assert list(objs[0]) == SPECTRUM_HEADER.split(",")
        assert objs[0]["freq_ghz"] == pytest.approx(7.50684)

    def test_byte_identical_reruns(self):
        args = ("spectrum", "--radius-mm", "15", "--wedge-deg", "47",
                "--fmax-ghz", "13")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_te_filter(self):
        proc = run_cli(
            "spectrum", "--radius-mm", "15", "--wedge-deg", "90",
            "--fmax-ghz", "14", "--pol", "te",
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("TE,")

    def test_quarter_wedge_to_x_ten_is_frozen(self):
        # 102 modes up to x = 10; the digest was taken from the
        # restart-per-root search, whose root floats every scan must keep
        proc = run_cli(
            "spectrum", "--radius-mm", "15", "--wedge-deg", "90",
            "--fmax-ghz", "31.8",
        )
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 103
        digest = hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
        assert digest.startswith("df212b1c6cb0582f")

    @pytest.mark.parametrize("args, prefix", [
        # the paper's narrowest table wedge at its 14 GHz cap, as JSON
        (("--radius-mm", "15", "--wedge-deg", "27", "--fmax-ghz", "14",
          "--format", "json"), "7fe9e67922064bd8"),
        # 530 modes of a 300 degree wedge of radius 30 mm, up to x ~ 28,
        # where the root scan halves its windows; its weights m_n = 3n are
        # rounded floats, and equal degrees share one tower, so rows with
        # equal printed x and frequency follow the (TM, n, k, s) rule
        (("--radius-mm", "30", "--wedge-deg", "300", "--fmax-ghz", "45"),
         "a4f755625be690c2"),
    ])
    def test_spectrum_stdout_is_frozen(self, args, prefix):
        proc = run_cli("spectrum", *args)
        assert proc.returncode == 0
        digest = hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
        assert digest.startswith(prefix)

    def test_narrow_domain_lists_only_zonal_modes(self):
        # a 0.5 degree domain puts m = 360 n far above the cap x = 6.29 of
        # 20 GHz, so only the two zonal TE roots below the cap remain
        proc = run_cli(
            "spectrum", "--radius-mm", "15", "--wedge-deg", "359.5",
            "--fmax-ghz", "20",
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        rows = proc.stdout.splitlines()[1:]
        assert [row.split(",")[:3] + row.split(",")[5:7] for row in rows] == [
            ["TE", "0", "1", "1", "4.49341"],
            ["TE", "0", "2", "1", "5.76346"],
        ]

    def test_cap_beyond_root_window_is_reported(self):
        for radius_mm, fmax_ghz in (("15", "400"), ("15", "nan"), ("nan", "14")):
            proc = run_cli(
                "spectrum", "--radius-mm", radius_mm, "--wedge-deg", "90",
                "--fmax-ghz", fmax_ghz,
            )
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr.startswith("error:")


class TestUsageErrors:
    def test_missing_required_flag(self):
        proc = run_cli("spectrum", "--radius-mm", "15")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "usage" in proc.stderr

    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2
        assert "usage" in proc.stderr

    def test_unknown_flag(self):
        proc = run_cli("validate", "--bogus")
        assert proc.returncode == 2


class TestEval:
    def test_spherical_bessel_zero(self):
        # j_0 vanishes at pi; j_200(1) ~ 4.9e-437 underflows to zero
        for nu, x in (("0", "3.14159265"), ("200", "1")):
            proc = run_cli("eval", "--fn", "sph-j", "--nu", nu, "--x", x)
            assert proc.returncode == 0
            assert abs(float(proc.stdout)) < 1e-7

    def test_log_gamma_factorial(self):
        proc = run_cli("eval", "--fn", "ln-gamma", "--x", "5")
        assert proc.returncode == 0
        assert float(proc.stdout) == pytest.approx(math.log(24.0), rel=1e-9)

    def test_riccati_derivative_at_pi(self):
        proc = run_cli(
            "eval", "--fn", "riccati-d", "--nu", "0", "--x", "3.141592653589793"
        )
        assert proc.returncode == 0
        assert float(proc.stdout) == pytest.approx(-1.0, rel=1e-9)

    def test_log_gamma_rejects_infinity(self):
        # 1e308 is finite, but ln Gamma overflows there, and so does the
        # ln Gamma(order + 1) of the Bessel series at order 1e306
        for argv in (("ln-gamma", "--x", "inf"), ("ln-gamma", "--x", "1e308"),
                     ("sph-j", "--nu", "1e306", "--x", "1"),
                     ("riccati-d", "--nu", "1e306", "--x", "1")):
            proc = run_cli("eval", "--fn", *argv)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr.startswith("error:")

    def test_non_finite_order_is_refused_by_the_series(self):
        # once refused by ln_gamma, a function and argument the caller never named
        proc = run_cli("eval", "--fn", "sph-j", "--nu", "inf", "--x", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: bessel_j requires finite order > -1, got inf\n"

    def test_angular_profile_refuses_cancelled_series(self):
        proc = run_cli("eval", "--fn", "legendre-theta", "--nu", "50.3", "--m", "0.5",
                       "--x", "2.0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")

    def test_angular_profile_needs_weight(self):
        proc = run_cli("eval", "--fn", "legendre-theta", "--nu", "0.666667", "--x", "1.0")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize("argv, flag", [
        (("ln-gamma", "--nu", "3", "--x", "2"), "--nu"),
        (("ln-gamma", "--m", "0.5", "--x", "2"), "--m"),
        (("sph-j", "--nu", "1", "--m", "5", "--x", "2"), "--m"),
        (("riccati-d", "--nu", "1", "--m", "5", "--x", "2"), "--m"),
    ])
    def test_refuses_a_flag_its_function_does_not_take(self, argv, flag):
        # these once printed lnGamma(2) = 0 and j_1(2), the flag ignored
        proc = run_cli("eval", "--fn", *argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: --fn {argv[0]} does not take {flag}\n"

    @pytest.mark.parametrize("fn, argv", [
        ("sph-j", ("--x", "2")),
        ("riccati-d", ("--x", "2")),
        ("legendre-theta", ("--m", "0.5", "--x", "1")),
    ])
    def test_refuses_to_run_without_the_order(self, fn, argv):
        proc = run_cli("eval", "--fn", fn, *argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: --fn {fn} requires --nu\n"

    @pytest.mark.parametrize("fn, x", [("sph-j", "1e-320"), ("riccati-d", "1e-309")])
    def test_subnormal_argument_gives_the_limit(self, fn, x):
        # j_0(x) and d/dx[x j_0(x)] = cos x tend to 1; the factor
        # sqrt(pi/(2x)) once overflowed there and printed inf
        proc = run_cli("eval", "--fn", fn, "--nu", "0", "--x", x)
        assert proc.returncode == 0
        assert proc.stdout == "1\n"


class TestValidate:
    def test_single_block_passes(self):
        proc = run_cli("validate", "--wedge-deg", "27")
        assert proc.returncode == 0
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert lines[0] == VALIDATE_HEADER
        assert lines[1] == "27,6,6,0.4553,6,pass"

    def test_unmatched_row_is_reported_and_fails(self, monkeypatch, capsys):
        # a tabulated row whose quantum numbers match no computed mode is a
        # failure row: explained on stderr, counted in the summary as not
        # matched and not within tolerance, left out of the mean deviation
        from wedgemodes import cli, report

        block = report.block_reference(27.0)
        orphan = report.ReferenceRow(wedge_deg=27.0, mode_index=7, polarisation="TM",
                                     m=0.123456, k=0, nu=0.123456,
                                     f_theory_ghz=10.0, f_hfss_ghz=10.0)
        monkeypatch.setattr(report, "block_reference", lambda wedge: [*block, orphan])
        assert cli.main(["validate", "--wedge-deg", "27"]) == 1
        out, err = capsys.readouterr()
        assert out == f"{VALIDATE_HEADER}\n27,6,7,0.4553,6,fail\n"
        assert err == "wedge 27 mode 7: no computed mode matches (TM, m=0.123456, k=0)\n"

    @pytest.mark.parametrize("argv", [["validate", "--wedge-deg", "27"], ["validate", "--all"]])
    def test_tampered_table_fails_with_one_error_line(self, monkeypatch, capsys, argv):
        from wedgemodes import cli, report

        monkeypatch.setattr(report, "_REFERENCE_SHA256", "0" * 64)
        report._reference_rows.cache_clear()  # a failed read is not cached
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: reference data checksum mismatch: ")
        assert err.count("\n") == 1 and err.endswith(" != " + "0" * 64 + "\n")

    @pytest.mark.parametrize("tol_pct", ["nan", "-1"])
    def test_rejects_unusable_tolerance(self, tol_pct):
        # a usage error, not a validation failure (exit 1)
        proc = run_cli("validate", "--wedge-deg", "27", "--tol-pct", tol_pct)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")

    def test_all_blocks_summary_and_diagnostics(self, validate_all):
        lines = validate_all.stdout.splitlines()
        assert lines[0] == VALIDATE_HEADER
        assert len(lines) == 6
        assert [line.split(",")[0] for line in lines[1:]] == [
            "27", "47", "73", "90", "180",
        ]
        # rows that miss the tolerance are explained on stderr
        assert "wedge 47 mode 3" in validate_all.stderr
        assert "wedge 180 mode 5" in validate_all.stderr

    def test_all_blocks_stdout_is_frozen(self, validate_all):
        digest = hashlib.sha256(validate_all.stdout.encode("utf-8")).hexdigest()
        assert digest.startswith("5ff2051534d54798")

    def test_all_blocks_signal_failure(self, validate_all):
        # blocks with tabulated values off the resonance condition miss the
        # 0.2% tolerance, so the CI contract demands a non-zero exit
        assert validate_all.returncode == 1

    @pytest.mark.xfail(
        strict=True,
        reason="documented example expects exit 0, but four blocks contain "
        "tabulated values that genuinely miss the 0.2% tolerance",
    )
    def test_all_blocks_exit_zero_as_documented(self, validate_all):
        assert validate_all.returncode == 0


class TestLadderCheck:
    def test_default_invocation_passes(self):
        proc = run_cli("ladder-check")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "check,m,k,grid,value,bound,status"
        assert len(lines) == 3
        assert lines[1].startswith("highest_weight,0.666667,,4096,")
        assert lines[2].startswith("casimir_quotient,0.666667,1,4096,")
        assert all(line.endswith(",pass") for line in lines[1:])

    def test_rejects_tiny_grid(self):
        proc = run_cli("ladder-check", "--grid", "4")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_rejects_zero_casimir_target(self):
        # m + k = 0 makes the target (m+k)(m+k+1) zero, so the relative
        # Casimir error has no scale
        proc = run_cli("ladder-check", "--m", "0", "--k", "0")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stdout == ""

    def test_rejects_a_weight_whose_square_overflows(self):
        # the Casimir term m**2 / sin**2 overflows for any float m from
        # ~1.34e154 on: a refused input, not a failed certification; the
        # sectoral profile of such a weight is 0 on the grid, and
        # sectoral refuses it first
        proc = run_cli("ladder-check", "--m", "2e154", "--k", "0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == [
            "error: weight m = 2e+154 is too large: (sin theta)**m is 0 at every grid point"]

    @pytest.mark.parametrize("m", ["1e154", "2e154"])
    def test_a_weight_whose_profile_underflows_gets_one_error_line(self, m):
        # no numpy RuntimeWarning reaches stderr before the refusal
        proc = run_cli("ladder-check", "--m", m, "--k", "0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: weight m = {float(m):g} is too large: (sin theta)**m is 0 at every grid point\n")

    @pytest.mark.parametrize("grid", ["4095", "4097"])
    def test_an_odd_grid_casimir_overflow_gets_one_error_line(self, grid):
        # an odd grid holds a middle sample where sin theta may round to 1,
        # and then the profile of m = 1e154 is one 1 among zeros: m**2 is
        # finite, but the Casimir term m**2 / sin**2 overflows near the
        # poles and is refused with no numpy RuntimeWarning before it
        import numpy as np

        from wedgemodes.angular import uniform_grid

        if np.sin(uniform_grid(int(grid))).max() == 1.0:
            reason = "m**2 overflows over sin(theta)**2"
        else:
            reason = "(sin theta)**m is 0 at every grid point"
        proc = run_cli("ladder-check", "--m", "1e154", "--k", "0", "--grid", grid)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: weight m = 1e+154 is too large: {reason}\n"


class TestOutOfMemory:
    # a grid too large to allocate makes numpy raise MemoryError, which is
    # refused like any other unusable input; the callee is replaced here so
    # that no such grid is ever requested
    @pytest.mark.parametrize("argv, callee", [
        (["oracle", "--m", "0.5", "--grid", "10000000000"],
         "wedgemodes.cli.legendre_spectrum_fd"),
        (["ladder-check", "--m", "0.5", "--k", "1", "--grid", "10000000000"],
         "wedgemodes.angular.uniform_grid"),
    ], ids=["oracle", "ladder-check"])
    def test_unallocatable_grid_exits_2(self, monkeypatch, capsys, argv, callee):
        from wedgemodes import cli

        def refuse(*args):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(callee, refuse)
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: Unable to allocate 74.5 GiB for an array\n"


class TestOracle:
    def test_fundamental_weight_degrees(self):
        proc = run_cli("oracle", "--m", "0.666667")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "index,lambda,nu"
        assert len(lines) == 4
        for i, line in enumerate(lines[1:]):
            nu = float(line.split(",")[2])
            assert nu == pytest.approx(0.666667 + i, rel=0.01)

    def test_rejects_zero_weight(self):
        proc = run_cli("oracle", "--m", "0")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize("args", [
        ("--m", "0.7", "--count", "5000"),
        ("--m", "inf"),
        ("--m", "1e300"),
    ], ids=["count-above-grid", "inf-weight", "overflowing-weight"])
    def test_rejects_inputs_the_solver_cannot_take(self, args):
        proc = run_cli("oracle", *args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
