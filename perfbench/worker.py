"""In-process worker: imports platevac once and runs ops in a closed loop.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
It reads its job as one JSON object on stdin, prints ``ready <s>`` once
the imports and one warm-up op are done, with the CPU seconds the process
has used so far (its set-up time), then prints one JSON result line.

Jobs:
  {"mode": "setup", "ops": [...], "probes": [...]}   warm up, then run probes
  {"mode": "run", "ops": [...], "seconds": S, "trace": 0|1}
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from outputs import cli_record, digest, sample_indices  # noqa: E402
from tracer import Tracer  # noqa: E402
import calibrate  # noqa: E402

WARNING_NAMES = ("IntegrationWarning", "ValidityWarning")


def _now() -> tuple[int, int]:
    """(process CPU ns, wall ns).  Ops are timed by the CPU time of this
    process: they are single-threaded and do no I/O, so that is their cost
    without the time the scheduler gave to other tenants of the host.  The
    wall time is kept for shares against the tracer's wall-clock spans."""
    return time.process_time_ns(), time.perf_counter_ns()


def _since(start: tuple[int, int]) -> tuple[int, int]:
    cpu, wall = _now()
    return cpu - start[0], wall - start[1]


class Runner:
    def __init__(self):
        from platevac import cli, em3d, limits_lab, scalar1d  # the set-up cost
        from platevac.geometry import Geometry, Position
        from platevac.limits_lab import Clustering, Endpoint, GridSpec
        from platevac.regsum import RegScheme

        self.cli, self.em3d, self.limits_lab, self.scalar1d = cli, em3d, limits_lab, scalar1d
        self.Geometry, self.Position = Geometry, Position
        self.Clustering, self.Endpoint, self.GridSpec = Clustering, Endpoint, GridSpec
        self.RegScheme = RegScheme

    # Each _op_* returns ((cpu_ns, wall_ns), raw result); only the platevac
    # calls sit inside the timed region.

    def _op_cli(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = _now()
            try:
                code = self.cli.main(list(op["argv"]))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an escaped exception is a failed op
                code = None
                print(f"exception: {exc!r}", file=sys.stderr)
            elapsed = _since(start)
        return elapsed, (code, out.getvalue(), err.getvalue())

    def _op_lib_profile(self, op):
        p = op["params"]
        em = p["model"] == "em"
        g = self.Geometry(p["length"])
        spec = self.GridSpec(count=p["grid"], clustering=self.Clustering(p["cluster"]))
        # Constant part of the electric density, so the fit sees only the
        # wall divergence: -pi/(48 L^2) scalar, -pi^2/(1440 L^4) EM.
        constant = -math.pi ** 2 / (1440.0 * p["length"] ** 4) if em else -math.pi / (
            48.0 * p["length"] ** 2
        )
        source = self.em3d.density_split if em else self.scalar1d.density_split
        start = _now()
        profile = self.limits_lab.sample_profile(source, g, self.RegScheme.zeta(), spec)
        fits = [
            self.limits_lab.fit_divergence(
                profile, end, component="electric", constant_part=constant
            )
            for end in (self.Endpoint.LEFT, self.Endpoint.RIGHT)
        ]
        return _since(start), (profile, fits)

    def _op_lib_points(self, op):
        p = op["params"]
        g = self.Geometry(p["length"])
        out = []
        start = _now()
        for theta, eps in p["points"]:
            scheme = self.RegScheme.zeta() if eps is None else self.RegScheme.cutoff(eps)
            pos = self.Position.from_theta(theta, g)
            electric = self.scalar1d.electric_density(g, pos, scheme)
            split = self.scalar1d.density_split(g, pos, scheme)
            out.append((electric, split.electric, split.magnetic, split.total))
        return _since(start), out

    def _op_lib_z_point(self, op):
        p = op["params"]
        g = self.Geometry(p["length"])
        start = _now()
        value = self.scalar1d.electric_density(
            g, self.Position.from_z(p["z"], g), self.RegScheme.zeta()
        )
        return _since(start), value

    def execute(self, op):
        """Run one op; returns ((cpu_ns, wall_ns) or None, record)."""
        kind = op["kind"]
        try:
            if "argv" in op:
                elapsed, (code, text, err) = self._op_cli(op)
                return elapsed, cli_record(op, code, text, err)
            elapsed, result = getattr(self, "_op_" + kind.replace(".", "_"))(op)
        except Exception as exc:  # an escaped exception is a failed op
            return None, {"exit": None, "err": repr(exc), "digest": "", "rows": 0}
        return elapsed, self._lib_record(op, result)

    def _lib_record(self, op, result):
        kind = op["kind"]
        record = {"exit": 0, "err": "", "digest": digest(repr(result))}
        if kind == "lib.profile":
            profile, fits = result
            n = len(profile.values)
            record["rows"] = n
            record["sample"] = [
                [i, [profile.grid[i], profile.values[i].electric,
                     profile.values[i].magnetic, profile.values[i].total]]
                for i in sample_indices(n, op["id"])
            ]
            record["fits"] = [[f.exponent, f.r_squared] for f in fits]
        elif kind == "lib.points":
            record["rows"] = len(result)
            record["values"] = [list(v) for v in result]
        else:
            record["rows"] = 1
            record["values"] = [result]
        return record


def _count_warnings(caught) -> int:
    return sum(1 for w in caught if w.category.__name__ in WARNING_NAMES)


def _setup(runner, job):
    results = {}
    for probe in job.get("probes", []):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, results[probe["id"]] = runner.execute(probe)
    return {"probes": results}


def _run_cycle(runner, ops, index, tracer, records, spans):
    cycle = {"traced": tracer is not None, "ops": [], "cal_ms": []}
    for op in ops:
        cycle["cal_ms"].append(calibrate.sample_ms())
        if tracer is None:
            elapsed, record = runner.execute(op)
        else:
            before = tracer.snapshot()
            elapsed, record = tracer.run_op(lambda: runner.execute(op))
            spans.append(_op_span(index, op, elapsed, before, tracer.snapshot()))
        cpu_ns, wall_ns = elapsed if elapsed is not None else (None, None)
        cycle["ops"].append([op["id"], cpu_ns, record["exit"], record["digest"], wall_ns])
        records.setdefault(op["id"], record)
    return cycle


def _run(runner, job):
    """Whole cycles until ``seconds`` have passed.  With tracing, untraced
    and traced cycles alternate, so the overhead is measured in one run."""
    ops, seconds, trace = job["ops"], job["seconds"], bool(job["trace"])
    records, cycles, spans = {}, [], []
    started = time.perf_counter()
    while True:
        if trace and len(cycles) % 2:
            tracer = Tracer()
            tracer.install()
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    cycle = _run_cycle(runner, ops, len(cycles), tracer, records, spans)
            finally:
                tracer.uninstall()
            cycle["snapshot"] = tracer.snapshot()
            cycle["warnings"] = _count_warnings(caught)
        else:
            cycle = _run_cycle(runner, ops, len(cycles), None, records, spans)
        cycles.append(cycle)
        if time.perf_counter() - started >= seconds and (not trace or len(cycles) >= 2):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"records": records, "cycles": cycles, "spans": spans, "rss_mb": rss_mb}


def _op_span(cycle, op, elapsed, before, after):
    layers = {}
    for layer, ns in after["self_ns"].items():
        calls = after["calls"].get(layer, 0) - before["calls"].get(layer, 0)
        if calls:
            layers[layer] = [calls, (ns - before["self_ns"].get(layer, 0)) / 1e6]
    return {"cycle": cycle, "op": op["id"], "kind": op["kind"],
            "ms": None if elapsed is None else elapsed[1] / 1e6, "layers": layers}


def main() -> int:
    job = json.loads(sys.stdin.readline())
    runner = Runner()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runner.execute(job["ops"][0])  # warm-up op, part of set-up
    sys.stdout.write(f"ready {time.process_time()!r}\n")
    sys.stdout.flush()
    result = _setup(runner, job) if job["mode"] == "setup" else _run(runner, job)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
