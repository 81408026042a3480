"""Import boundaries: each command loads only the libraries it runs.

numpy and scipy cost most of a cold ``wedgemodes`` process, so ``eval``,
``spectrum`` and ``validate`` must not load them, ``ladder-check`` loads
numpy only, and scipy is paid for only by the FD oracle.  ``decimal`` is
paid for only by the series oracle, which no command runs.  ``eval`` loads
neither ``modes`` nor ``report``, ``spectrum`` loads none of ``csv``,
``json`` and ``hashlib`` in either format, and ``validate`` loads neither
``csv`` nor hashlib's OpenSSL: the reference table is split by its column
declaration and verified with CPython's built-in SHA-256.
Each check runs in a fresh interpreter and counts modules; nothing is
timed.  Two more hold the premise of ``cli.run``, which ends a process with
``os._exit``: no command leaves an ``atexit`` handler, thread or logging
handler for interpreter teardown, and the installed script is ``run``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def heavy_modules_after(body: str, watched: tuple[str, ...] = ("numpy", "scipy")) -> list[str]:
    """Which of the watched modules a fresh interpreter holds after running body."""
    # the modules are listed before json is imported to print them
    code = (
        f"import sys\n{body}\n"
        "loaded = {name.split('.')[0] for name in sys.modules} | set(sys.modules)\n"
        f"found = sorted(loaded & {set(watched)!r})\n"
        "import json\nprint(json.dumps(found))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_library_imports_load_neither_numpy_nor_scipy():
    body = "import wedgemodes.cli, wedgemodes.modes, wedgemodes.report, wedgemodes.specfun"
    assert heavy_modules_after(body) == []


COMMANDS = pytest.mark.parametrize("argv", [
    ["eval", "--fn", "sph-j", "--nu", "0.5", "--x", "2"],
    ["spectrum", "--radius-mm", "15", "--wedge-deg", "90", "--fmax-ghz", "14"],
    ["validate", "--wedge-deg", "27"],
], ids=["eval", "spectrum", "validate"])


@COMMANDS
def test_command_loads_neither_numpy_nor_scipy(argv):
    body = f"from wedgemodes import cli\nassert cli.main({argv!r}) == 0"
    assert heavy_modules_after(body) == []


@COMMANDS
def test_command_leaves_decimal_unloaded(argv):
    body = f"from wedgemodes import cli\nassert cli.main({argv!r}) == 0"
    assert heavy_modules_after(body, ("decimal",)) == []


def test_angular_and_oracle_imports_leave_scipy_out():
    assert "scipy" not in heavy_modules_after("import wedgemodes.angular, wedgemodes.oracle")


def test_angular_import_leaves_modes_out():
    # the certify set-up imports angular alone; the integer-index rule that
    # angular shares with modes lives in specfun for this reason
    body = "import wedgemodes.angular\nassert 'wedgemodes.modes' not in sys.modules"
    assert heavy_modules_after(body, ()) == []


def test_south_pole_coefficient_leaves_scipy_out():
    body = "from wedgemodes import angular\nangular.south_pole_coefficient(7 / 6, 2 / 3)"
    assert "scipy" not in heavy_modules_after(body)


def test_ladder_check_loads_numpy_only():
    body = "from wedgemodes import cli\nassert cli.main(['ladder-check']) == 0"
    assert heavy_modules_after(body) == ["numpy"]


def test_eval_loads_neither_modes_report_nor_serializers():
    argv = ["eval", "--fn", "sph-j", "--nu", "0.5", "--x", "2"]
    body = f"from wedgemodes import cli\nassert cli.main({argv!r}) == 0"
    watched = ("wedgemodes.modes", "wedgemodes.report", "csv", "json", "hashlib")
    assert heavy_modules_after(body, watched) == []


def test_csv_spectrum_loads_neither_json_nor_hashlib():
    argv = ["spectrum", "--radius-mm", "15", "--wedge-deg", "90", "--fmax-ghz", "14",
            "--format", "csv"]
    body = f"from wedgemodes import cli\nassert cli.main({argv!r}) == 0"
    assert heavy_modules_after(body, ("json", "hashlib", "csv")) == []


def test_json_spectrum_loads_neither_json_nor_hashlib():
    # the rows are generated f-strings, so JSON output needs no json module
    argv = ["spectrum", "--radius-mm", "15", "--wedge-deg", "90", "--fmax-ghz", "14",
            "--format", "json"]
    body = f"from wedgemodes import cli\nassert cli.main({argv!r}) == 0"
    assert heavy_modules_after(body, ("json", "hashlib", "csv")) == []


def test_validate_verifies_the_table_without_openssl():
    # CPython's built-in SHA-256 checks the table; hashlib's _hashlib maps
    # OpenSSL's libcrypto, about 3.7 MB resident
    body = "from wedgemodes import cli\nassert cli.main(['validate', '--wedge-deg', '27']) == 0"
    assert heavy_modules_after(body, ("hashlib", "_hashlib")) == []


def test_validate_parses_the_table_without_csv():
    # the checksum fixes the table's format, so its lines are split at their
    # commas by the column declaration, with no CSV reader
    body = "from wedgemodes import cli\nassert cli.main(['validate', '--wedge-deg', '27']) == 0"
    assert heavy_modules_after(body, ("csv", "_csv")) == []


def test_commands_leave_nothing_for_interpreter_teardown():
    # cli.run ends a process with os._exit after flushing stdout and stderr,
    # which is safe only while no command registers an atexit handler, starts
    # a thread or configures a logging handler that teardown would run or
    # flush; the atexit handlers counted before wedgemodes loads include
    # logging.shutdown, registered by scipy's import of logging
    commands = [
        ["eval", "--fn", "sph-j", "--nu", "0.5", "--x", "2"],
        ["eval", "--fn", "riccati-d", "--nu", "0.5", "--x", "2"],
        ["eval", "--fn", "legendre-theta", "--nu", "1.5", "--m", "0.5", "--x", "1"],
        ["eval", "--fn", "ln-gamma", "--x", "5"],
        ["spectrum", "--radius-mm", "15", "--wedge-deg", "90", "--fmax-ghz", "14"],
        ["spectrum", "--radius-mm", "15", "--wedge-deg", "27", "--fmax-ghz", "14",
         "--format", "json"],
        ["validate", "--wedge-deg", "27"],
        ["validate", "--all"],
        ["ladder-check"],
        ["oracle", "--m", "0.5"],
    ]
    code = (
        "import atexit, contextlib, io\n"
        "import numpy, scipy.linalg\n"
        "before = atexit._ncallbacks()\n"
        "import wedgemodes, wedgemodes.angular, wedgemodes.cli, wedgemodes.modes\n"
        "import wedgemodes.oracle, wedgemodes.report, wedgemodes.specfun\n"
        "codes = []\n"
        f"for argv in {commands!r}:\n"
        "    out = io.TextIOWrapper(io.BytesIO())\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(wedgemodes.cli.main(argv))\n"
        "import json, logging, threading\n"
        "print(json.dumps([codes, before, atexit._ncallbacks(), threading.active_count(),\n"
        "                  len(logging.root.handlers)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, before, after, threads, handlers = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0, 0, 0, 0, 1, 0, 0]
    assert after == before
    assert threads == 1
    assert handlers == 0


def test_installed_script_is_the_run_entry_point():
    # read as text: Python 3.10 has no tomllib
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert [line for line in section.splitlines() if line.strip()] == [
        'wedgemodes = "wedgemodes.cli:run"']
