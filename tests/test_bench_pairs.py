"""Unit tests for the verdict rule, tables and signal handling of
``scripts/bench_pairs.py``."""

from __future__ import annotations

import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

# ten base runs with quartiles 99.125 and 100.875 around a median of 100:
# an interquartile range of 1.75 %, inside every bound
BASE = [98.0, 99.0, 101.0, 100.0, 102.0, 99.5, 100.5, 98.5, 101.5, 100.0]


def scaled(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize("better, factor", [("lower", 0.8), ("higher", 1.2)])
def test_gain_when_the_head_wins_every_pair_by_more_than_the_spread(better, factor):
    assert verdict(BASE, scaled(BASE, factor), better, 0.25) == "gain"


def test_nine_wins_of_ten_are_enough():
    head = scaled(BASE, 0.8)
    head[3] = BASE[3] + 1.0
    assert verdict(BASE, head, "lower", 0.25) == "gain"


def test_eight_wins_of_ten_are_not():
    head = scaled(BASE, 0.8)
    head[3] = BASE[3] + 1.0
    head[7] = BASE[7]  # a tie counts for neither side
    assert verdict(BASE, head, "lower", 0.25) == "unchanged"


def test_no_gain_when_the_medians_are_within_the_spread():
    # the head wins every pair, but only by 1 % against a 1.75 % spread
    assert verdict(BASE, scaled(BASE, 0.99), "lower", 0.25) == "unchanged"


@pytest.mark.parametrize("better, factor", [("lower", 1.3), ("higher", 0.7)])
def test_regression_past_the_bound(better, factor):
    assert verdict(BASE, scaled(BASE, factor), better, 0.25) == "regression"


@pytest.mark.parametrize("better, factor", [("lower", 1.05), ("higher", 0.95)])
def test_worse_within_the_bound_is_unchanged(better, factor):
    assert verdict(BASE, scaled(BASE, factor), better, 0.1) == "unchanged"


def test_regression_is_judged_against_the_metrics_own_bound():
    assert verdict(BASE, scaled(BASE, 1.15), "lower", 0.25) == "unchanged"
    assert verdict(BASE, scaled(BASE, 1.15), "lower", 0.1) == "regression"


def test_unresolved_when_the_base_spreads_wider_than_the_bound():
    # quartiles 80 and 120 around a median of 100: a spread of 0.4
    base = [60.0, 70.0, 80.0, 80.0, 100.0, 100.0, 120.0, 120.0, 130.0, 140.0]
    assert verdict(base, list(reversed(base)), "lower", 0.25) == "unresolved"
    assert verdict(base, list(reversed(base)), "lower", 0.5) == "unchanged"


def test_wide_spread_is_resolved_when_every_head_run_beats_every_base_run():
    # a skewed base: its quartiles lie 107 apart, so medians 22.5 apart
    # are no gain, but no head run reaches the best base run
    base = [61.0, 62.0, 63.0, 64.0, 65.0, 100.0, 140.0, 180.0, 200.0, 300.0]
    head = [60.0] * 10
    assert verdict(base, head, "lower", 0.25) == "unchanged"
    flipped = [400.0 - v for v in base]
    assert verdict(flipped, [400.0 - v for v in head], "higher", 0.25) == "unchanged"
    head[0] = 61.5
    assert verdict(base, head, "lower", 0.25) == "unresolved"


def _run(op_p50_s, attempted, failed=0):
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {"op_p50_s": {"value": op_p50_s, "unit": "s"}}}


_SPEC = [{"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25}]


def test_compare_reports_each_sides_median_attempted_operations():
    # a peak_rss_mb change is read against the operation counts behind it
    base = [_run(v, a) for v, a in zip(BASE, range(100, 110))]
    head = [_run(0.8 * v, a) for v, a in zip(BASE, [150, 160, 170, 140, 155, 165, 145,
                                                    175, 150, 900])]
    entry = bench_pairs.compare(base, head, _SPEC)
    assert entry["attempted"] == {"base": 104.5, "head": 157.5}
    assert entry["metrics"]["op_p50_s"]["verdict"] == "gain"
    assert [r["attempted"] for r in entry["runs"]["head"]][-1] == 900


def test_table_lists_attempted_operations_after_the_metrics():
    base = [_run(v, 200) for v in BASE]
    head = [_run(0.8 * v, 250) for v in BASE]
    entry = bench_pairs.compare(base, head, _SPEC)
    header, metric, attempted, _ = bench_pairs.table({"radius-sweep": entry})
    assert header.split() == ["workload", "metric", "base", "head", "change", "wins",
                              "verdict"]
    assert metric.split() == ["radius-sweep", "op_p50_s", "100", "80", "-20.0%", "10/10",
                              "gain"]
    assert attempted.split() == ["radius-sweep", "attempted", "200", "250", "+25.0%"]


def test_compare_reports_each_sides_failed_share_over_all_runs():
    # the share is summed failures over summed attempts, not a median of
    # per-run shares: 5 of 1000 and 30 of 1500
    base = [_run(v, 100, 1 if i < 5 else 0) for i, v in enumerate(BASE)]
    head = [_run(v, 150, 3) for v in BASE]
    entry = bench_pairs.compare(base, head, _SPEC)
    assert entry["failed_share"] == {"base": 0.005, "head": 0.02}


@pytest.mark.parametrize("base_failed, head_failed, cells", [
    (10, 20, ["0.01", "0.02", "+100.0%", "worse"]),
    (20, 10, ["0.02", "0.01", "-50.0%"]),
    (10, 10, ["0.01", "0.01", "+0.0%"]),
    (0, 10, ["0", "0.01", "n/a", "worse"]),
    (0, 0, ["0", "0", "n/a"]),
], ids=["worse", "better", "equal", "worse-from-zero", "zero"])
def test_table_marks_a_larger_head_failed_share_worse(base_failed, head_failed, cells):
    # ten runs of 100 operations a side, the failures all in the first run
    base = [_run(v, 100, base_failed if i == 0 else 0) for i, v in enumerate(BASE)]
    head = [_run(v, 100, head_failed if i == 0 else 0) for i, v in enumerate(BASE)]
    entry = bench_pairs.compare(base, head, _SPEC)
    row = bench_pairs.table({"certify": entry})[-1]
    assert row.split() == ["certify", "failed", "share", *cells]


_HARNESS = """
import importlib.util, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
bench_pairs.REPO = Path(sys.argv[2])
sys.executable = sys.argv[3]
sys.exit(bench_pairs.main(["--base", "HEAD", "--head", "HEAD", "--workload", "certify",
                           "--out", sys.argv[4]]))
"""


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_a_signal_kills_the_run_and_removes_the_exported_trees(tmp_path, sig):
    # a one-commit repository whose run.py child is a sleep, signalled while
    # the first run waits for it
    repo, temp, pidfile = tmp_path / "repo", tmp_path / "tmp", tmp_path / "child.pid"
    repo.mkdir()
    temp.mkdir()
    (repo / "BENCHMARK.json").write_text('{"run_seconds": 60, "end_to_end": []}')
    git = ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@localhost"]
    for args in (["init", "-q"], ["add", "BENCHMARK.json"], ["commit", "-q", "-m", "tree"]):
        subprocess.run(git + args, check=True, capture_output=True)
    fake_python = tmp_path / "python"
    fake_python.write_text(f'#!/bin/sh\necho $$ > "{pidfile}"\nexec sleep 60\n')
    fake_python.chmod(0o755)
    proc = subprocess.Popen(
        [sys.executable, "-c", _HARNESS, str(_PATH), str(repo), str(fake_python),
         str(tmp_path / "out.json")],
        env={**os.environ, "TMPDIR": str(temp)}, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60.0
        while not (pidfile.exists() and pidfile.read_text().endswith("\n")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pidfile.read_text())
        assert list(temp.glob("bench-pairs-*"))
        proc.send_signal(sig)
        assert proc.wait(timeout=30.0) == 128 + sig
    finally:
        proc.kill()
        proc.wait()
    assert list(temp.glob("bench-pairs-*")) == []
    assert not (tmp_path / "out.json").exists()
    with pytest.raises(ProcessLookupError):
        os.kill(child, 0)
