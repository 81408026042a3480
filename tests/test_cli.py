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
        proc = run_cli("eval", "--fn", "sph-j", "--nu", "0", "--x", "3.14159265")
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
        proc = run_cli("eval", "--fn", "ln-gamma", "--x", "inf")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")

    def test_angular_profile_needs_weight(self):
        proc = run_cli("eval", "--fn", "legendre-theta", "--nu", "0.666667", "--x", "1.0")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")


class TestValidate:
    def test_single_block_passes(self):
        proc = run_cli("validate", "--wedge-deg", "27")
        assert proc.returncode == 0
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert lines[0] == VALIDATE_HEADER
        assert lines[1] == "27,6,6,0.4553,6,pass"

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
