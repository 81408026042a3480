"""Span tracing around the public functions of wedgemodes, from outside it.

The traced run replaces module attributes with timing wrappers for the
duration of a pass and restores them afterwards.  Names bound by
``from .x import y`` at import time are looked up in the importing module,
so every module that binds a traced function gets the wrapper too
(``modes`` binds ``spherical_j`` and ``riccati_derivative``; ``cli`` binds
the ``specfun`` evaluators and ``legendre_spectrum_fd``; ``oracle`` binds
``ln_gamma``).

Boundary calls (enumeration, rendering, comparison, angular and oracle
entry points, ``cli.main``, each benchmark operation) are kept as spans:
name, start, end, parent span and operation id.  The special-function
evaluators and the memoised root functions run ~10^5 times per operation,
so they are aggregated per name (calls, total time, self time) instead of
being stored one by one.  Self time is a call's duration minus the time
of the traced calls made inside it.
"""
from __future__ import annotations

import json
import time

__all__ = ["Tracer", "install", "parse_importtime"]

_clock = time.perf_counter


class Tracer:
    """In-memory span store and per-name aggregates for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stats: dict[str, list] = {}
        self._stack: list[float] = [0.0]
        self._current_span: int | None = None
        self.op_id: int | None = None
        self.char_evals = 0
        self.root_requests = 0
        self.root_repeats = 0
        self.roots_found = 0
        self.roots: dict[tuple, float] = {}

    def wrap(self, name: str, fn, keep: bool):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack  # per open traced call: time of its traced children
        spans = self.spans

        if not keep:
            def traced(*args, **kwargs):
                stack.append(0.0)
                t0 = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = _clock() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    stats[0] += 1
                    stats[1] += dt
                    stats[2] += dt - child
        else:
            def traced(*args, **kwargs):
                parent = self._current_span
                self._current_span = len(spans)
                span = [name, 0.0, 0.0, parent, self.op_id]
                spans.append(span)
                stack.append(0.0)
                t0 = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = _clock() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    stats[0] += 1
                    stats[1] += dt
                    stats[2] += dt - child
                    span[1] = t0
                    span[2] = t0 + dt
                    self._current_span = parent

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a kept span (used for benchmark operations)."""
        return self.wrap(name, fn, keep=True)(*args)

    def _counting(self, fn):
        def char(nu, x):
            self.char_evals += 1
            return fn(nu, x)

        return char

    def _root(self, pol: str, fn):
        traced = self.wrap(f"modes.{pol.lower()}_root", fn, keep=False)
        seen: set = set()

        def root(nu, s):
            key = (pol, nu, s)
            self.root_requests += 1
            if key in seen:
                self.root_repeats += 1
            else:
                seen.add(key)
            before = self.char_evals
            x = traced(nu, s)
            if self.char_evals != before:
                self.roots_found += 1
            self.roots[key] = x
            return x

        root.__wrapped__ = fn
        return root

    # -- summaries ---------------------------------------------------------

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_time(self, prefix: str, exclude: tuple[str, ...] = ()) -> float:
        return sum(
            st[2]
            for name, st in self.stats.items()
            if name.startswith(prefix) and name not in exclude
        )

    def us_per_call(self, name: str) -> float:
        calls = self.calls(name)
        return 1e6 * self.total(name) / calls if calls else 0.0

    def write(self, path) -> None:
        """Write spans and aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"span": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            for name, (calls, total, self_s) in sorted(self.stats.items()):
                fh.write(json.dumps({"aggregate": name, "calls": calls,
                                     "total_s": total, "self_s": self_s}) + "\n")


class install:
    """Context manager patching the traced functions into every binding module."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple] = []

    def _set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def __enter__(self) -> Tracer:
        from wedgemodes import angular, cli, modes, oracle, report, specfun

        tr = self.tracer
        leaf = {}
        for attr in ("bessel_j", "spherical_j", "riccati_derivative",
                     "legendre_theta", "ln_gamma"):
            leaf[attr] = tr.wrap(f"specfun.{attr}", getattr(specfun, attr), keep=False)
            self._set(specfun, attr, leaf[attr])
        for attr in ("ln_gamma", "legendre_theta", "riccati_derivative", "spherical_j"):
            self._set(cli, attr, leaf[attr])
        self._set(oracle, "ln_gamma", leaf["ln_gamma"])
        # characteristic-function evaluations are the calls made from modes
        self._set(modes, "spherical_j", tr._counting(leaf["spherical_j"]))
        self._set(modes, "riccati_derivative", tr._counting(leaf["riccati_derivative"]))
        self._set(modes, "legendre_theta", leaf["legendre_theta"])
        # te_root / tm_root are memoised; the wrapper sits outside the memo
        # and so sees hits as well as misses
        self._set(modes, "te_root", tr._root("TE", modes.te_root))
        self._set(modes, "tm_root", tr._root("TM", modes.tm_root))
        self._set(modes, "enumerate_spectrum",
                  tr.wrap("modes.enumerate_spectrum", modes.enumerate_spectrum, keep=True))
        for attr in ("render", "compare", "load_reference", "block_reference"):
            self._set(report, attr, tr.wrap(f"report.{attr}", getattr(report, attr), keep=True))
        for attr in ("sectoral", "apply_raising", "apply_lowering", "apply_casimir",
                     "build_tesseral", "casimir_eigenvalue_estimate",
                     "south_pole_coefficient"):
            self._set(angular, attr, tr.wrap(f"angular.{attr}", getattr(angular, attr), keep=True))
        fd = tr.wrap("oracle.legendre_spectrum_fd", oracle.legendre_spectrum_fd, keep=True)
        self._set(oracle, "legendre_spectrum_fd", fd)
        self._set(cli, "legendre_spectrum_fd", fd)
        self._set(oracle, "bessel_series_reference",
                  tr.wrap("oracle.bessel_series_reference", oracle.bessel_series_reference,
                          keep=True))
        self._set(cli, "main", tr.wrap("cli.main", cli.main, keep=True))
        return tr

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(cumulative seconds of wedgemodes.cli, seconds of the outermost scipy
    imports) from ``python -X importtime`` output."""
    cli_us = 0
    # importtime prints a module after its children, one indent level deeper
    pending: list[tuple[int, int]] = []  # (depth, outermost scipy microseconds)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum_us, name = line.split("|", 2)
        cum = int(cum_us)
        depth = len(name) - len(name.lstrip(" "))
        name = name.strip()
        scipy_below = 0
        while pending and pending[-1][0] > depth:
            scipy_below += pending.pop()[1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        pending.append((depth, cum if is_scipy else scipy_below))
        if name == "wedgemodes.cli":
            cli_us = cum
    scipy_us = sum(us for _, us in pending)
    return cli_us * 1e-6, scipy_us * 1e-6
