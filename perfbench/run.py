"""Benchmark of wedgemodes: one named workload, one seed, one JSON result.

    python3 perfbench/run.py --workload wide-spectrum --seed 1 --seconds 15 --trace 0

Run from the root of a source tree; the program is imported from its
``src`` directory.  With ``--trace 0`` the run measures set-up, then runs
whole rounds of the workload's operations until ``--seconds`` have passed,
then checks every output and prints the end-to-end metrics.  With
``--trace 1`` it runs a fixed number of rounds with span tracing and prints
the per-layer metrics, including the tracing overhead against the same
rounds run untraced in fresh processes.  The last line of stdout is the
result object; diagnostics go to stderr.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

# set-up samples: at least SETUP_MIN, and more for cheap set-ups until
# SETUP_TIMED_S of set-up has been timed (at most SETUP_MAX)
SETUP_MIN, SETUP_MAX, SETUP_TIMED_S = 5, 25, 1.0
IMPORT_PROBES = 3

# Host calibration (README, "Host calibration"): a fixed piece of
# interpreter work that calls nothing of the program is timed between
# operations and between set-up samples, and each timed metric is divided by
# the host factor, its median time over REFERENCE_CHUNK_S, so that it reads
# as seconds on the reference host.
CALIBRATION_EVERY_S = 0.1
CALIBRATION_BURST = 10  # chunks before the first operation, and at most after one
CALIBRATION_STEPS = 1500
REFERENCE_CHUNK_S = 2.0e-3
_CALIBRATION_VALUES = [i * 1.37 for i in range(8192)]


def calibration_chunk() -> float:
    """Seconds for float formatting, dict inserts, scattered list reads and a
    sort, with the garbage collector off so that the program's heap does not
    reach into it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        index, pairs = {}, []
        for i in range(CALIBRATION_STEPS):
            x = _CALIBRATION_VALUES[(i * 7919) & 8191]
            key = f"{x:.6f}"
            index[key] = x
            pairs.append((key, x))
        pairs.sort()
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def calibrate(chunks: list, count: int) -> None:
    chunks.extend(calibration_chunk() for _ in range(count))


def host_factor(chunks: list) -> float:
    return statistics.median(chunks) / REFERENCE_CHUNK_S


def _python(code: str, env: dict, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          check=True, timeout=120)


def measure_setup(code: str, env: dict, quick: bool, chunks: list) -> float:
    """Median in-interpreter time of the workload's imports and first lazy
    set-up, over fresh interpreters started after one untimed warm-up (which
    also compiles the bytecode).  Calibration chunks run between them."""
    timed = f"import time\n_t0 = time.perf_counter()\n{code}\nprint(time.perf_counter() - _t0)"
    _python(timed, env)
    least, budget = (1, 0.0) if quick else (SETUP_MIN, SETUP_TIMED_S)
    samples = []
    while len(samples) < least or (sum(samples) < budget and len(samples) < SETUP_MAX):
        calibrate(chunks, 3)
        samples.append(float(_python(timed, env).stdout))
    calibrate(chunks, 3)
    return statistics.median(samples)


def import_probe(env: dict) -> dict:
    """``-X importtime`` figures for ``import wedgemodes.cli`` (median of probes)."""
    import tracing

    code = ("import sys\nbefore = len(sys.modules)\nimport wedgemodes.cli\n"
            "print(len(sys.modules) - before)")
    _python(code, env)
    cli_s, scipy_s, count = [], [], 0
    for _ in range(IMPORT_PROBES):
        proc = _python(code, env, "-X", "importtime")
        a, b = tracing.parse_importtime(proc.stderr)
        cli_s.append(a)
        scipy_s.append(b)
        count = int(proc.stdout)
    return {"import.cli_s": statistics.median(cli_s),
            "import.scipy_s": statistics.median(scipy_s),
            "import.modules": count}


def run_ops(ctx, rounds, seconds: float | None, tracer=None, chunks: list | None = None):
    """Execute whole rounds; stop after the round that crosses ``seconds``
    (or after every round in ``rounds`` when ``seconds`` is None).  With a
    ``chunks`` list, time calibration chunks between operations into it.
    Returns [(op, output or exception, wall seconds)] and the total wall time."""
    from workloads import EXECUTE, INLINE, CheckFailed

    done = []
    start = last_chunk = time.perf_counter()
    for op_round in rounds:
        for op in op_round:
            run = EXECUTE[op.kind]
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = run(ctx, op.params)
                else:
                    tracer.op_id = len(done)
                    out = tracer.call(f"op.{op.kind}", run, ctx, op.params)
            except Exception as exc:  # the program failed this operation
                out = exc
            elapsed = time.perf_counter() - t0
            if op.kind in INLINE and not isinstance(out, Exception):
                try:
                    out = INLINE[op.kind](ctx, op.params, out)
                except CheckFailed as exc:
                    out = exc
            done.append((op, out, elapsed))
            if chunks is not None:
                since = time.perf_counter() - last_chunk
                if since >= CALIBRATION_EVERY_S:
                    calibrate(chunks, min(CALIBRATION_BURST, int(since / CALIBRATION_EVERY_S)))
                    last_chunk = time.perf_counter()
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return done, time.perf_counter() - start


def check_ops(ctx, done):
    """(correct, attempted, failed, verified results).  An operation fails when
    it raises or its check fails; the run stays correct as long as every
    failed operation is one of the known faults, failing by a wrong output or
    by an exception of the program's own."""
    from workloads import CHECK, KNOWN_FAULTS

    failed = 0
    results = 0
    correct = True
    for op, out, _ in done:
        if isinstance(out, Exception):
            ok, n, note = False, 0, f"{type(out).__name__}: {out}"
            own = type(out).__module__.startswith("wedgemodes")
        else:
            try:
                ok, n, note = CHECK[op.kind](ctx, op.params, out)
            except Exception as exc:  # output too malformed to check
                ok, n, note = False, 0, f"unreadable output: {type(exc).__name__}: {exc}"
            own = True
        results += n
        if not ok:
            failed += 1
            if op.kind not in KNOWN_FAULTS or not own:
                correct = False
                print(f"FAILED {op.kind} {op.params}: {note}"[:600], file=sys.stderr)
    return correct, len(done), failed, results


def _prepare_checks(ctx, done):
    import reference as ref

    ctx.ref_rows = ref.reference_rows(ROOT)
    # scan each sweep geometry once at its widest cap, so later requests filter
    caps = {}
    for op, _, _ in done:
        if op.kind == "sweep":
            w = op.params["wedge"]
            caps[w] = max(caps.get(w, 0.0), ref.x_cap(op.params["radius"], op.params["f_max"]))
    for w, cap in caps.items():
        ref.warm(ctx.table, w, cap)


def timed_run(workload, ctx, args, env) -> tuple[dict, dict]:
    setup_chunks, chunks = [], []
    setup_s = measure_setup(workload.setup_code, env, args.quick, setup_chunks)
    exec(compile(workload.setup_code, "<setup>", "exec"), {})
    calibrate(chunks, CALIBRATION_BURST)
    done, wall = run_ops(ctx, workload.rounds(args.seed, args.quick), args.seconds,
                         chunks=chunks)
    if workload.name == "cli-cold":
        peak_kb = max(out[2] for _, out, _ in done if isinstance(out, tuple))
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _prepare_checks(ctx, done)
    correct, attempted, failed, results = check_ops(ctx, done)
    busy = sum(t for _, _, t in done)
    op_p50 = statistics.median(t for _, _, t in done)
    setup_host, host = host_factor(setup_chunks), host_factor(chunks)
    metrics = {
        "setup_s": (setup_s / setup_host, "s"),
        "op_p50_s": (op_p50 / host, "s"),
        "results_per_s": (results * host / busy, "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    kinds = sorted({op.kind for op, _, _ in done})
    info = {"rounds_wall_s": wall, "ops_wall_s": busy, "ops": attempted, "results": results,
            "host_factor": host, "chunks": len(chunks), "setup_host_factor": setup_host,
            "raw_setup_s": setup_s, "raw_op_p50_s": op_p50, "raw_results_per_s": results / busy,
            "raw_op_p50_s_by_kind": {
                k: statistics.median(t for op, _, t in done if op.kind == k) for k in kinds}}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, info


def _pass_rounds(workload, args):
    rounds = workload.rounds(args.seed, args.quick)
    return [next(rounds) for _ in range(1 if args.quick else workload.trace_rounds)]


def untraced_pass(workload, ctx, args) -> float:
    """Wall time of the trace run's rounds, untraced, in this fresh process."""
    exec(compile(workload.setup_code, "<setup>", "exec"), {})
    _, wall = run_ops(ctx, _pass_rounds(workload, args), None)
    return wall


def layer_metrics(tracer, table) -> dict:
    """Per-layer metrics from one traced pass; 0 where the pass did not
    reach the layer."""
    worst = 0.0
    for (pol, nu, s), x in tracer.roots.items():
        want = table.nth_root(pol, nu, s)
        worst = max(worst, abs(x - want) / want)
    main_calls = tracer.calls("cli.main")
    return {
        "cli.main_s": (tracer.total("cli.main") / main_calls if main_calls else 0.0, "s"),
        "specfun.bessel_j.calls": (tracer.calls("specfun.bessel_j"), "count"),
        "specfun.bessel_j.us_per_call": (tracer.us_per_call("specfun.bessel_j"), "us"),
        "specfun.self_s": (tracer.self_time("specfun."), "s"),
        "specfun.legendre_theta.us_per_call": (tracer.us_per_call("specfun.legendre_theta"),
                                               "us"),
        "modes.char_evals_per_root": (
            tracer.char_evals / tracer.roots_found if tracer.roots_found else 0.0,
            "count"),
        "modes.root.self_s": (tracer.self_time("modes.te_root")
                              + tracer.self_time("modes.tm_root"), "s"),
        "modes.enumerate.self_s": (tracer.self_time("modes.enumerate_spectrum"), "s"),
        "modes.max_root_rel_err": (worst, "ratio"),
        "modes.root.repeat_share": (
            tracer.root_repeats / tracer.root_requests if tracer.root_requests else 0.0,
            "ratio"),
        "report.render_s": (tracer.total("report.render"), "s"),
        "report.compare_s": (tracer.total("report.compare"), "s"),
        "report.load_reference.calls": (tracer.calls("report.load_reference"), "count"),
        "angular.ladder_s": (tracer.self_time(
            "angular.", exclude=("angular.south_pole_coefficient",)), "s"),
        "angular.south_pole_s": (tracer.total("angular.south_pole_coefficient"), "s"),
        "oracle.fd_s": (tracer.total("oracle.legendre_spectrum_fd"), "s"),
        "oracle.dd_series_s": (tracer.total("oracle.bessel_series_reference"), "s"),
    }


def traced_run(workload, ctx, args, env) -> tuple[dict, dict]:
    import tracing

    probe = import_probe(env)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
           "--seed", str(args.seed), "--untraced-pass"] + (["--quick"] if args.quick else [])

    def plain_pass() -> float:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, check=True, timeout=170)
        return float(proc.stdout.split()[-1])

    # the untraced passes run in fresh processes (cold memo, like the traced
    # pass) just before and just after it, so that host drift averages out
    untraced = [plain_pass()]
    exec(compile(workload.setup_code, "<setup>", "exec"), {})
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        done, wall = run_ops(ctx, _pass_rounds(workload, args), None, tracer)
    untraced.append(plain_pass())
    untraced_wall = statistics.mean(untraced)
    _prepare_checks(ctx, done)
    correct, attempted, failed, _ = check_ops(ctx, done)

    # Layers this workload does not call are measured on a probe traced
    # apart: one round of the cli-cold mix (in-process) and one certify
    # round, which together reach every layer.  Its outputs are not counted.
    from workloads import WORKLOADS, Context

    probe_tracer = tracing.Tracer()
    probe_ctx = Context(root=str(ROOT), env=env, in_process=True, table=ctx.table)
    with tracing.install(probe_tracer):
        run_ops(probe_ctx, [next(WORKLOADS[name].rounds(args.seed, args.quick))
                            for name in ("cli-cold", "certify")], None, probe_tracer)
    own = layer_metrics(tracer, ctx.table)
    fallback = layer_metrics(probe_tracer, ctx.table)
    metrics = {
        "import.cli_s": (probe["import.cli_s"], "s"),
        "import.scipy_s": (probe["import.scipy_s"], "s"),
        "import.modules": (probe["import.modules"], "count"),
    }
    metrics.update({name: (value or fallback[name][0], unit)
                    for name, (value, unit) in own.items()})
    metrics["trace.overhead_ratio"] = (wall / untraced_wall, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    info = {"traced_wall_s": wall, "untraced_wall_s": untraced,
            "from_probe": sorted(name for name, (value, _) in own.items() if not value),
            "root_requests": tracer.root_requests, "roots_found": tracer.roots_found,
            "trace_file": str(trace_path.relative_to(ROOT))}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, info


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced rounds and set-up samples, for the self-test")
    p.add_argument("--untraced-pass", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "wedgemodes" / "__init__.py").is_file():
        print(f"error: no wedgemodes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one process, one thread: keep the BLAS under numpy/scipy from starting
    # worker threads, here and in every child
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    args = parse_args(argv)

    from workloads import WORKLOADS, Context

    workload = WORKLOADS[args.workload]
    ctx = Context(root=str(ROOT), env=env, in_process=bool(args.trace) or args.untraced_pass)
    if args.untraced_pass:
        print(untraced_pass(workload, ctx, args))
        return 0

    before, after = [], []
    calibrate(before, CALIBRATION_BURST)
    if args.trace:
        result, info = traced_run(workload, ctx, args, env)
    else:
        result, info = timed_run(workload, ctx, args, env)
    calibrate(after, CALIBRATION_BURST)

    import wedgemodes

    if Path(wedgemodes.__file__).resolve().parent != SRC / "wedgemodes":
        print(f"error: imported {wedgemodes.__file__}, not the tree under {SRC}",
              file=sys.stderr)
        return 2
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                calibration_s=[statistics.median(before), statistics.median(after)])
    print("info " + json.dumps(info))
    OUT_DIR.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
