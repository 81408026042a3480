"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at reduced size, untraced and traced, and checks the
printed result: every metric named in BENCHMARK.json with its unit, whole
attempted and failed counts, and the known faults as the only failures.
Then it corrupts real outputs and checks that the correctness checks
catch a root shifted by 1e-6 relative and a spectrum with one mode
dropped.  Exits 0 when everything holds.
"""
from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# failed operations per round of each workload (the known faults)
FAILED_SHARE = {"cli-cold": 0.0, "wide-spectrum": 1 / 6, "radius-sweep": 0.0,
                "certify": 1 / 9}


def fail(message: str) -> None:
    print(f"selftest: FAIL {message}", file=sys.stderr)
    sys.exit(1)


def run_workload(name: str, trace: int, spec: dict) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"{name} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{name}: result keys {sorted(result)}")
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1):
        fail(f"{name}: attempted={attempted!r} failed={failed!r}")
    if not result["correct"]:
        fail(f"{name} trace={trace}: incorrect output\n{proc.stderr[-2000:]}")
    if failed != round(FAILED_SHARE[name] * attempted):
        fail(f"{name}: {failed} of {attempted} failed")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        fail(f"{name} trace={trace}: metrics {sorted(metrics)}")
    for m in wanted:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            fail(f"{name}: metric {m['name']} printed as {got}")
    print(f"selftest: {name} trace={trace} ok ({attempted} attempted, {failed} failed)")


def corruption_checks() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import random

    import reference as ref
    import workloads as wl
    from wedgemodes import report

    ctx = wl.Context(root=str(ROOT), env={})
    ctx.ref_rows = ref.reference_rows(ROOT)
    rng = random.Random("selftest")

    # wide-spectrum enumeration: pass, then a shifted root, then a dropped mode
    op = wl._wide_round(rng, quick=True)[0]
    records = wl.EXECUTE[op.kind](ctx, op.params)
    if not wl.CHECK[op.kind](ctx, op.params, records)[0]:
        fail("an unmodified enumeration fails its check")
    i = len(records) // 2
    shifted = dataclasses.replace(records[i], x=records[i].x * (1 + 1e-6),
                                  freq_hz=records[i].freq_hz * (1 + 1e-6))
    if wl.CHECK[op.kind](ctx, op.params, records[:i] + [shifted] + records[i + 1:])[0]:
        fail("a root shifted by 1e-6 relative passes the enumeration check")
    if wl.CHECK[op.kind](ctx, op.params, records[:i] + records[i + 1:])[0]:
        fail("an enumeration with one mode dropped passes its check")

    # root lists: a shifted root
    op = next(op for op in wl._wide_round(rng, quick=True) if op.kind == "roots")
    found = wl.EXECUTE[op.kind](ctx, op.params)
    if not wl.CHECK[op.kind](ctx, op.params, found)[0]:
        fail("unmodified root lists fail their check")
    key = next(iter(found))
    found[key][0] *= 1 + 1e-6
    if wl.CHECK[op.kind](ctx, op.params, found)[0]:
        fail("a root shifted by 1e-6 relative passes the root-list check")

    # radius sweep: a spectrum with one mode dropped, rendered consistently
    op = wl._sweep_round(rng, quick=True)[0]
    records, _, _, rows, mean_abs = wl.EXECUTE[op.kind](ctx, op.params)
    dropped = records[:-1]
    out = (dropped, report.render(dropped, "csv"), report.render(dropped, "json"), rows,
           mean_abs)
    keys = wl.INLINE[op.kind](ctx, op.params, out)
    if wl.CHECK[op.kind](ctx, op.params, keys)[0]:
        fail("a swept spectrum with one mode dropped passes its check")

    # cli spectrum output: one CSV row dropped
    op = wl._cli_round(rng, quick=True)[1]
    ctx.in_process = True
    code, stdout, rss = wl.EXECUTE[op.kind](ctx, op.params)
    if not wl.CHECK[op.kind](ctx, op.params, (code, stdout, rss))[0]:
        fail("an unmodified spectrum command fails its check")
    lines = stdout.decode().splitlines(keepends=True)
    cut = "".join(lines[:2] + lines[3:]).encode()
    if wl.CHECK[op.kind](ctx, op.params, (code, cut, rss))[0]:
        fail("a spectrum command with one mode dropped passes its check")
    print("selftest: corrupted outputs are caught")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    corruption_checks()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            run_workload(workload["name"], trace, spec)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
