"""In-memory span tracer for the platevac layers, installed from outside.

Every public function (and public class/static method) of each layer
module is replaced by a wrapper that records one span per call.  The
replacement is made in every ``platevac`` namespace that holds the
function, because ``from .geometry import check_position`` binds the
original into the importing module and a patch on ``geometry`` alone
would miss those calls.  Nothing under ``src/`` is modified.

Self time is a span's duration minus the time covered by its child spans;
spans nest strictly (single thread), so a stack of child-time
accumulators gives it exactly.  Spans are aggregated per op as they close
and kept in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("specfun", "regsum", "geometry", "scalar1d", "em3d", "limits_lab", "verify", "cli")
QUAD = "quad"
BENCH = "bench"
WINDOW_LAYERS = ("scalar1d", "limits_lab")


class Tracer:
    def __init__(self):
        self._clock = time.perf_counter_ns
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.window_evals: dict[str, int] = defaultdict(int)
        self.check_ns: list[int] = []
        self.checks_run = 0
        self.checks_passed = 0

    # ------------------------------------------------------------------
    # span accounting

    def _enter(self) -> int:
        self._stack.append(0)
        return self._clock()

    def _exit(self, layer: str, start: int) -> int:
        duration = self._clock() - start
        child = self._stack.pop()
        self.calls[layer] += 1
        self.self_ns[layer] += duration - child
        self.incl_ns[layer] += duration
        if self._stack:
            self._stack[-1] += duration
        return duration

    def span(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(layer, start)

        return wrapper

    def run_op(self, fn):
        """Run ``fn`` as a root span; its self time is harness overhead."""
        start = self._enter()
        try:
            return fn()
        finally:
            self._exit(BENCH, start)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "incl_ns": dict(self.incl_ns),
            "window_evals": dict(self.window_evals),
            "check_ns": list(self.check_ns),
            "checks_run": self.checks_run,
            "checks_passed": self.checks_passed,
        }

    # ------------------------------------------------------------------
    # installation

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "platevac" or mod_name.startswith("platevac.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.span(layer, raw.__func__))
                self._set(cls, attr, wrapped)

    def _traced_quad(self, quad, owner: str):
        def traced(func, *args, **kwargs):
            def counted(*x):
                self.window_evals[owner] += 1
                return func(*x)

            start = self._enter()
            try:
                return quad(counted, *args, **kwargs)
            finally:
                self._exit(QUAD, start)

        return traced

    def _wrap_verify(self, verify):
        """run_suite counting checks, with every check in SUITES timed."""
        original = verify.run_suite

        def run_suite(*args, **kwargs):
            results = original(*args, **kwargs)
            self.checks_run += len(results)
            self.checks_passed += sum(1 for r in results if r.passed)
            return results

        for checks in {id(v): v for v in verify.SUITES.values()}.values():
            for i, (name, check) in enumerate(checks):
                checks[i] = (name, self._timed_check(check))
                self._patches.append((checks, i, (name, check)))
        return run_suite

    def _timed_check(self, check):
        def timed():
            start = self._enter()
            try:
                return check()
            finally:
                self.check_ns.append(self._exit("verify", start))

        return timed

    def install(self) -> None:
        import importlib

        modules = {layer: importlib.import_module(f"platevac.{layer}") for layer in LAYERS}
        for layer, module in modules.items():
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name, None)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    target = obj
                    if layer == "verify" and name == "run_suite":
                        target = self._wrap_verify(module)
                    self._rebind(obj, self.span(layer, target))
        for owner in WINDOW_LAYERS:
            module = modules[owner]
            quad = vars(module).get("quad")
            if quad is not None:
                self._set(module, "quad", self._traced_quad(quad, owner))
        integrate = sys.modules.get("scipy.integrate")
        if integrate is not None:
            self._set(integrate, "quad", self._traced_quad(integrate.quad, "other"))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            if isinstance(name, int):
                owner[name] = value
            else:
                setattr(owner, name, value)


def summarize(snapshot: dict) -> dict:
    """Per-layer figures of one traced stretch, in ms and counts."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = snapshot["calls"].get(layer, 0)
        out[f"{layer}.self_ms"] = snapshot["self_ns"].get(layer, 0) / 1e6
    for layer in WINDOW_LAYERS:
        out[f"{layer}.window_evals"] = snapshot["window_evals"].get(layer, 0)
    out["quad.calls"] = snapshot["calls"].get(QUAD, 0)
    out["quad.total_ms"] = snapshot["incl_ns"].get(QUAD, 0) / 1e6
    out["bench.self_ms"] = snapshot["self_ns"].get(BENCH, 0) / 1e6
    out["verify.checks_run"] = snapshot["checks_run"]
    out["verify.checks_passed"] = snapshot["checks_passed"]
    out["verify.slowest_check_ms"] = max(snapshot["check_ns"], default=0) / 1e6
    return out


def merge(snapshots: list[dict]) -> dict:
    """Sum snapshots (e.g. the traced children of one cold cycle)."""
    total = {"calls": defaultdict(int), "self_ns": defaultdict(int),
             "incl_ns": defaultdict(int), "window_evals": defaultdict(int),
             "check_ns": [], "checks_run": 0, "checks_passed": 0}
    for snap in snapshots:
        for key in ("calls", "self_ns", "incl_ns", "window_evals"):
            for k, v in snap[key].items():
                total[key][k] += v
        total["check_ns"] += snap["check_ns"]
        total["checks_run"] += snap["checks_run"]
        total["checks_passed"] += snap["checks_passed"]
    return {k: dict(v) if isinstance(v, defaultdict) else v for k, v in total.items()}
