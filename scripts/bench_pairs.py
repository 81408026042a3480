"""Benchmark two commits in alternating pairs and write a BENCH_*.json.

    python3 scripts/bench_pairs.py --base HEAD~1 --head HEAD \\
        --workload wide-spectrum --seed 301 --out BENCH_x.json

``--base`` and ``--head`` each name a git ref.  Its committed files are
exported with ``git archive`` into a temporary directory, removed
afterwards, and each tree runs its own unmodified ``perfbench/run.py`` for
BENCHMARK.json's ``run_seconds``.  For every workload, pair ``i`` of the
ten runs both trees with seed ``--seed + i``; even pairs run the base
first and odd pairs the head.  Ten alternating pairs is the least from
which a gain may be claimed.

Both trees start every run in the same bytecode state: the tree's
``__pycache__`` directories under ``src/`` and ``perfbench/`` are deleted and
``PYTHONDONTWRITEBYTECODE`` is removed from the environment, so the run's
untimed warm-up interpreter compiles the tree as in a fresh checkout.

The output holds, per workload and end-to-end metric, each side's values,
median and quartiles, the pairs each side won (ties count for neither) and
a verdict (see :func:`verdict`), each side's median number of operations
attempted, against which a change of ``peak_rss_mb`` can be read (the
benchmark keeps every operation's output until its run ends), each side's
failed share (failed over attempted operations, summed over its runs) and
the failed and attempted operations of every run.  Progress and a table of
the verdicts, attempted operations and failed shares go to stderr; a head
whose failed share is larger than the base's is marked ``worse``.

SIGTERM and SIGINT end the script with status 128 + the signal number,
after the running ``run.py`` child is killed and the exported trees are
removed.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True,
                          text=True).stdout.strip()


@contextmanager
def source_tree(ref: str):
    """(path, description) of the committed files of ``ref``, exported into
    a temporary directory for the duration."""
    commit = _git("rev-parse", "--verify", f"{ref}^{{commit}}")
    tree = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        archive = subprocess.run(["git", "archive", commit], cwd=REPO, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        yield tree, {"ref": ref, "commit": commit}
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree`` from a cold bytecode state."""
    for top in ("src", "perfbench"):
        for cache in (tree / top).rglob("__pycache__"):
            shutil.rmtree(cache)
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True)
    if proc.returncode:
        print(f"failed in {tree}: {' '.join(cmd)}\n{proc.stderr[-2000:]}", file=sys.stderr)
        proc.check_returncode()
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    """``gain``, ``regression``, ``unresolved`` or ``unchanged`` for one metric.

    ``base[i]`` and ``head[i]`` are pair ``i``; ``bound`` is the metric's
    relative bound from BENCHMARK.json.  A gain needs the head to win at
    least nine tenths of the pairs (ties count for neither) and the medians
    to differ by more than the base's interquartile range; a regression is
    a head median worse than the base's by more than the bound; a base
    spread (interquartile range over median) wider than the bound leaves
    the metric unresolved, unless every head run beats every base run.
    """
    sign = 1.0 if better == "lower" else -1.0
    b, h = summary(base), summary(head)
    spread = b["q3"] - b["q1"]
    wins = sum(sign * (x - y) > 0.0 for x, y in zip(base, head))
    if 10 * wins >= 9 * len(base) and sign * (b["median"] - h["median"]) > spread:
        return "gain"
    if sign * (h["median"] - b["median"]) > bound * abs(b["median"]):
        return "regression"
    if spread > bound * abs(b["median"]) and not (
            max(sign * y for y in head) < min(sign * x for x in base)):
        return "unresolved"
    return "unchanged"


def compare(base: list[dict], head: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric medians, quartiles, pair wins and verdicts of the two sides' runs."""
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "base": summary(b), "head": summary(h),
            "head_wins": sum(sign * (x - y) > 0.0 for x, y in zip(b, h)),
            "base_wins": sum(sign * (y - x) > 0.0 for x, y in zip(b, h)),
            "verdict": verdict(b, h, spec["better"], spec["bound"]),
        }
    sides = (("base", base), ("head", head))
    attempted = {side: statistics.median(r["attempted"] for r in rs) for side, rs in sides}
    failed_share = {side: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                    for side, rs in sides}
    runs = {side: [{k: r[k] for k in ("correct", "attempted", "failed")} for r in rs]
            for side, rs in sides}
    return {"metrics": metrics, "attempted": attempted, "failed_share": failed_share,
            "runs": runs}


def table(workloads: dict) -> list[str]:
    """Lines of the stderr table: per workload, each metric's medians, change,
    head wins and verdict, then the median operations attempted and the
    failed shares, marked ``worse`` if the head's is larger.  A change from
    a zero base reads ``n/a``."""
    lines = [f"{'workload':<14} {'metric':<14} {'base':>10} {'head':>10} {'change':>8} "
             f"{'wins':>5}  verdict"]
    for workload, entry in workloads.items():
        rows = [(name, m["base"]["median"], m["head"]["median"],
                 f" {m['head_wins']:>2}/{PAIRS:<2}  {m['verdict']}")
                for name, m in entry["metrics"].items()]
        rows.append(("attempted", entry["attempted"]["base"], entry["attempted"]["head"], ""))
        b, h = entry["failed_share"]["base"], entry["failed_share"]["head"]
        rows.append(("failed share", b, h, f"{'':6}  worse" if h > b else ""))
        for name, b, h, tail in rows:
            change = f"{(h - b) / b:>+8.1%}" if b else f"{'n/a':>8}"
            lines.append(f"{workload:<14} {name:<14} {b:>10.4g} {h:>10.4g} {change}{tail}")
    return lines


def _exit_on_signal(signum, frame):
    # raised in the main thread: subprocess.run kills its child on the way
    # out and source_tree's finally removes the exported trees
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git ref of the parent")
    p.add_argument("--head", default="HEAD", help="git ref of the change")
    p.add_argument("--workload", action="append", required=True,
                   help="workload name; repeat for several")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _exit_on_signal)

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])
    result = {"host": {"machine": platform.machine(), "processor": platform.processor(),
                       "cpus": os.cpu_count(), "python": platform.python_version()},
              "pairs": PAIRS, "seconds": seconds, "workloads": {}}
    with ExitStack() as stack:
        base, result["base"] = stack.enter_context(source_tree(args.base))
        head, result["head"] = stack.enter_context(source_tree(args.head))
        for workload in args.workload:
            runs = {"base": [], "head": []}
            for i in range(PAIRS):
                order = (("base", base), ("head", head))
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    print(f"{workload} pair {i + 1}/{PAIRS} {side}", file=sys.stderr)
                    runs[side].append(run_once(tree, workload, args.seed + i, seconds))
            entry = compare(runs["base"], runs["head"], spec["end_to_end"])
            entry["seeds"] = [args.seed, args.seed + PAIRS - 1]
            result["workloads"][workload] = entry
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print("\n".join(table(result["workloads"])), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
