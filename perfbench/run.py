"""platevac benchmark: one command for every workload, metric and output check.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {profile,sweep,cold} --seed N \\
        --seconds S --trace {0,1} [--tiny]

One client runs the workload's seeded cycle of ops in a closed loop (the
next op starts when the previous one has finished) for whole cycles until
``--seconds`` have passed.  ``profile`` and ``sweep`` run in a fresh
worker process that imports platevac once; ``cold`` starts a fresh
``python -m platevac`` process for every op.  Every op's output is checked
against an independent mpmath reference (check.py).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run (tracer.py).  The last stdout line is the JSON
result; the lines before it are a readable report and a ``detail`` JSON
line with sample counts, percentiles, tolerances, work counts, the input
hash, the known-defect probes and static counts.  ``--tiny`` shrinks the
inputs for the smoke test (smoke.py).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from check import TOLERANCES, Checker  # noqa: E402
from outputs import cli_record  # noqa: E402
from tracer import LAYERS, WINDOW_LAYERS, merge, summarize  # noqa: E402

SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
INTERP_SAMPLES = 5
WORKER_LIMIT_S = 150.0
CAL_WINDOW = 11  # calibration samples each side of an op that scale its time
TRACE_PREFIX = "PERFBENCH_TRACE "

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "points_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in LAYERS if layer != "verify"},
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    **{f"{layer}.window_evals": "count" for layer in WINDOW_LAYERS},
    "verify.checks_run": "count",
    "verify.checks_passed": "count",
    "verify.slowest_check_ms": "ms",
    "quad.calls": "count",
    "quad.share_pct": "%",
    "bench.self_ms": "ms",
    "import.total_ms": "ms",
    "import.scipy_ms": "ms",
    "import.numpy_ms": "ms",
    "import.platevac_ms": "ms",
    "import.share_pct": "%",
    "interp.start_ms": "ms",
    "warnings.count": "count",
    "check.points_checked": "count",
    "check.points_off": "count",
    "trace.overhead_ratio": "ratio",
    "work.ops": "count",
    "work.points": "count",
}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = os.environ.copy()
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = _env()


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# processes


class Worker:
    """A worker.py process; ``ready_s`` is its set-up time (the CPU seconds
    it used from its start until it was ready)."""

    def __init__(self, job: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=ENV,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._watchdog = threading.Timer(WORKER_LIMIT_S, self.proc.kill)
        self._watchdog.start()
        try:
            self.proc.stdin.write(json.dumps(job) + "\n")
            self.proc.stdin.close()
            word, _, cpu_s = self.proc.stdout.readline().strip().partition(" ")
            if word != "ready":
                raise BenchError("worker exited before it was ready (see stderr)")
            self.ready_s = float(cpu_s)
        except BaseException:
            self.close()
            raise

    def result(self) -> dict:
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError("worker exited without a result (see stderr)")
            return json.loads(line)
        finally:
            self.close()

    def close(self) -> None:
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.stdout.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _spawn(cmd: list[str]) -> tuple[int, str, str, float, float, float]:
    """Run one process to completion:
    (exit, stdout, stderr, wall s, CPU s, peak RSS MB).

    The CPU time (user + system, all threads) is the process's cost
    without the time the scheduler gave to other tenants of the host."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_LIMIT_S, proc.kill)
    watchdog.start()
    err_parts: list[str] = []
    reader = threading.Thread(target=lambda: err_parts.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        err = "".join(err_parts)
        # wait4 rather than wait: it also returns the child's peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, out, err, wall, cpu, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# workloads


def measure_setup(ops: list[dict], samples: int) -> tuple[list[float], dict]:
    """Fresh workers that import and run one warm-up op; the first one also
    runs the known-defect probes after it is ready."""
    times, probes = [], {}
    for i in range(samples):
        job = {"mode": "setup", "ops": ops, "probes": workloads.probe_ops() if i == 0 else []}
        worker = Worker(job)
        times.append(worker.ready_s)
        result = worker.result()
        if i == 0:
            probes = result["probes"]
    return times, probes


def run_in_process(ops, seconds, trace):
    worker = Worker({"mode": "run", "ops": ops, "seconds": seconds, "trace": trace})
    result = worker.result()
    result["ready_s"] = worker.ready_s
    return result


def run_cold(ops, seconds, trace):
    """Closed loop of fresh ``python -m platevac`` processes (traced cycles
    use child.py, which runs the same command under the tracer)."""
    records, cycles, spans, rss = {}, [], [], 0.0
    started = time.perf_counter()
    while True:
        traced = bool(trace) and len(cycles) % 2 == 1
        cycle = {"traced": traced, "ops": [], "children": []}
        for op in ops:
            head = [sys.executable, str(HERE / "child.py")] if traced else [
                sys.executable, "-m", "platevac"]
            code, out, err, wall, cpu, peak = _spawn(head + op["argv"])
            rss = max(rss, peak)
            if traced:
                lines = err.rstrip("\n").split("\n")
                if lines and lines[-1].startswith(TRACE_PREFIX):
                    summary = json.loads(lines.pop()[len(TRACE_PREFIX):])
                    cycle["children"].append(summary)
                    spans.append({"cycle": len(cycles), "op": op["id"], "kind": op["kind"],
                                  "ms": wall * 1e3, "import_ms": summary["import_ns"] / 1e6,
                                  "layers": {k: [v, summary["self_ns"].get(k, 0) / 1e6]
                                             for k, v in summary["calls"].items()}})
                err = "\n".join(lines)
            record = cli_record(op, code, out, err)
            records.setdefault(op["id"], record)
            cycle["ops"].append([op["id"], int(cpu * 1e9), record["exit"], record["digest"],
                                 int(wall * 1e9)])
        if traced:
            snapshot = merge(cycle["children"])
            cycle["snapshot"] = snapshot
            cycle["warnings"] = sum(c["warnings"] for c in cycle.pop("children"))
        cycles.append(cycle)
        if time.perf_counter() - started >= seconds and (not trace or len(cycles) >= 2):
            break
    return {"records": records, "cycles": cycles, "spans": spans, "rss_mb": rss}


# ---------------------------------------------------------------------------
# import layer


def _importtime(stderr: str) -> dict[str, float]:
    totals = {"total": 0.0, "scipy": 0.0, "numpy": 0.0, "platevac": 0.0}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(.*)$", line)
        if not m:
            continue
        self_ms = int(m.group(1)) / 1000.0
        top = m.group(2).strip().split(".")[0]
        totals["total"] += self_ms
        if top in totals:
            totals[top] += self_ms
    return totals


def measure_imports() -> dict[str, float]:
    """``-X importtime`` totals, the interpreter floor (``python -c pass``)
    and the CPU time of a process that only imports platevac.cli; the
    last two are CPU times, like the cold ops they are read against."""
    parsed, cpus = [], []
    for _ in range(IMPORT_SAMPLES):
        code, _, err, _, _, _ = _spawn([sys.executable, "-X", "importtime", "-c",
                                        "import platevac.cli"])
        if code != 0:
            raise BenchError(f"import platevac.cli failed: {err[-500:]}")
        parsed.append(_importtime(err))
        cpus.append(_spawn([sys.executable, "-c", "import platevac.cli"])[4] * 1e3)
    starts = [_spawn([sys.executable, "-c", "pass"])[4] * 1e3 for _ in range(INTERP_SAMPLES)]
    out = {f"import.{k}_ms": _median([p[k] for p in parsed]) for k in parsed[0]}
    out["interp.start_ms"] = _median(starts)
    out["import_process_ms"] = _median(cpus)
    return out


# ---------------------------------------------------------------------------
# metrics


def _tail(latencies_ms: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its value."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def op_times(result, scale: bool) -> list[tuple[int, float]]:
    """(op id, ms) of every op that ran, in run order.  With ``scale`` and
    calibration samples (in-process workloads), each time is multiplied by
    REFERENCE_MS over the median of the samples taken within CAL_WINDOW
    ops of it, so the speed the machine had around that op is taken out."""
    ran = [(op[0], op[1]) for c in result["cycles"] for op in c["ops"]]
    cal = [ms for c in result["cycles"] for ms in c.get("cal_ms", ())]
    out = []
    for i, (op_id, ns) in enumerate(ran):
        if ns is None:
            continue
        ms = ns / 1e6
        if scale and cal:
            ms *= calibrate.REFERENCE_MS / _median(cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
        out.append((op_id, ms))
    return out


def end_to_end(result, setup_times, rows_of, scale: bool = True) -> dict:
    executed = op_times(result, scale)
    lat_ms = [ms for _, ms in executed]
    busy_s = sum(lat_ms) / 1e3
    points = sum(rows_of[op_id] for op_id, _ in executed)
    pct, tail = _tail(lat_ms)
    n = len(lat_ms)
    return {
        "setup_s": {"value": _median(setup_times), "n": len(setup_times),
                    "stat": "median set-up CPU time"},
        "ops_per_s": {"value": n / busy_s, "n": n, "stat": "ops / busy CPU time"},
        "points_per_s": {"value": points / busy_s, "n": n, "points": points,
                         "stat": "output rows / busy CPU time"},
        "op_p50_ms": {"value": _median(lat_ms), "n": n, "stat": "median op CPU time"},
        "op_tail_ms": {"value": tail, "n": n, "percentile": pct,
                       "stat": "op CPU time at the highest percentile with >= 10 "
                               "samples beyond it"},
        "peak_rss_mb": {"value": result["rss_mb"], "n": 1, "stat": "ru_maxrss"},
    }


def per_layer(result, ops, rows_of, checker, imports, cold) -> dict:
    traced = [c for c in result["cycles"] if c["traced"]]
    plain = [c for c in result["cycles"] if not c["traced"]]

    def busy_ns(cycle, clock=1):  # 1: CPU ns, 4: wall ns
        return sum(op[clock] for op in cycle["ops"] if op[clock] is not None)

    per_cycle = [summarize(c["snapshot"]) for c in traced]
    first = per_cycle[0]
    out = {}
    for name in PER_LAYER:
        if name in first:
            timed = name.endswith("_ms")
            out[name] = _median([s[name] for s in per_cycle]) if timed else first[name]
    out["quad.share_pct"] = _median(
        [100.0 * s["quad.total_ms"] * 1e6 / busy_ns(c, 4) for s, c in zip(per_cycle, traced)]
    )
    out.update({k: v for k, v in imports.items() if k in PER_LAYER})
    plain_op_ms = [ns / 1e6 for c in plain for _, ns, *_ in c["ops"] if ns is not None]
    # In-process workloads import once, in set-up; only cold ops pay it per op.
    out["import.share_pct"] = (
        100.0 * imports["import_process_ms"] / _median(plain_op_ms) if cold else 0.0
    )
    out["warnings.count"] = traced[0]["warnings"]
    out["check.points_checked"] = checker.points_checked
    out["check.points_off"] = checker.points_off
    out["trace.overhead_ratio"] = _median([busy_ns(c) for c in traced]) / _median(
        [busy_ns(c) for c in plain]
    )
    out["work.ops"] = len(ops)
    out["work.points"] = sum(rows_of[op["id"]] for op in ops)
    n_traced = len(traced)
    return {name: {"value": out[name], "n": n_traced} for name in PER_LAYER}


# In-process op CPU times are interpreter-bound and follow the calibration
# loop; the CPU time of set-up, cold ops and imports (process start, library
# loading) did not, so they stay raw.  The end-to-end op timings are scaled
# op by op (op_times); the per-layer self times, wall-clock spans summed
# per cycle (tracer.py), by the run's median loop time.
NORMALIZED = {"verify.slowest_check_ms", "bench.self_ms",
              *(f"{layer}.self_ms" for layer in LAYERS)}


def normalize(metrics: dict, cal_ms: list[float]) -> float:
    """Rescale the per-layer times to reference machine speed (see
    calibrate.py), keeping the measured value as ``raw``.  Returns the
    time factor (1.0 when there was nothing to calibrate)."""
    if not cal_ms:
        return 1.0
    factor = calibrate.REFERENCE_MS / _median(cal_ms)
    for name, metric in metrics.items():
        if name in NORMALIZED:
            metric["raw"] = metric["value"]
            metric["value"] *= factor
    return factor


def static_counts() -> dict:
    lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    with open(ROOT / "pyproject.toml", "rb") as handle:
        deps = tomllib.load(handle).get("project", {}).get("dependencies", [])
    return {"src_lines": lines, "runtime_dependencies": deps}


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (smoke test)")
    return parser.parse_args(argv)


def run(args) -> dict:
    ops = workloads.generate(args.workload, args.seed, args.tiny)
    cold = args.workload == "cold"
    setup_times, probe_records = measure_setup(ops, SETUP_SAMPLES - (0 if cold else 1))
    if cold:
        result = run_cold(ops, args.seconds, args.trace)
    else:
        result = run_in_process(ops, args.seconds, args.trace)
        setup_times.append(result["ready_s"])
    records = {int(k): v for k, v in result["records"].items()}

    checker = Checker()
    problems = {op["id"]: checker.check(op, records[op["id"]]) for op in ops}
    attempted = failed = 0
    failures = []
    for index, cycle in enumerate(result["cycles"]):
        for op_id, _, exit_code, digest, _ in cycle["ops"]:
            attempted += 1
            reasons = list(problems[op_id])
            if exit_code != 0 and not reasons:
                reasons.append(f"exit {exit_code}")
            if digest != records[op_id]["digest"]:
                reasons.append("output differs from the first run of the same op")
            if reasons:
                failed += 1
                failures.append({"cycle": index, "op": op_id, "kind": ops[op_id]["kind"],
                                 "problems": reasons})

    probe_checker = Checker()
    probes = []
    for probe in workloads.probe_ops():
        issues = probe_checker.check(probe, probe_records[probe["id"]])
        probes.append({"id": probe["id"], "passed": not issues, "problems": issues})
    probe_checker_err = dict(probe_checker.max_rel_err)

    rows_of = {op["id"]: records[op["id"]].get("rows", 0) for op in ops}
    if args.trace:
        metrics = per_layer(result, ops, rows_of, checker, measure_imports(), cold)
        units = PER_LAYER
        if result["spans"]:
            out_dir = ROOT / ".perfbench"
            out_dir.mkdir(exist_ok=True)
            path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            path.write_text("".join(json.dumps(s) + "\n" for s in result["spans"]))
    else:
        metrics = end_to_end(result, setup_times, rows_of)
        units = END_TO_END
    cal_ms = [ms for cycle in result["cycles"] for ms in cycle.get("cal_ms", ())]
    factor = normalize(metrics, cal_ms)
    if cal_ms and not args.trace:
        raw = end_to_end(result, setup_times, rows_of, scale=False)
        for name in ("ops_per_s", "points_per_s", "op_p50_ms", "op_tail_ms"):
            metrics[name]["raw"] = raw[name]["value"]
    probe_failed = sum(1 for p in probes if not p["passed"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "input_hash": workloads.input_hash(ops),
        "cycles": len(result["cycles"]),
        "work_per_cycle": {"ops": len(ops), "points": sum(rows_of.values()),
                           "kinds": [op["kind"] for op in ops]},
        "metrics": {k: {**v, "unit": units[k]} for k, v in metrics.items()},
        "calibration": {"reference_ms": calibrate.REFERENCE_MS, "median_ms": _median(cal_ms),
                        "n": len(cal_ms), "time_factor": factor, "window_ops": CAL_WINDOW},
        "checks": {
            "attempted": attempted, "failed": failed,
            "failed_ratio": failed / attempted if attempted else 0.0,
            "values_checked_per_cycle": checker.points_checked,
            "values_off_target_per_cycle": checker.points_off,
            "max_rel_err": dict(checker.max_rel_err),
            "failures": failures[:20],
        },
        "tolerances": TOLERANCES,
        "known_defect_probes": {
            "results": probes,
            "max_rel_err": probe_checker_err,
            "failed": probe_failed,
            "failed_ratio_with_probes": (failed + probe_failed) / (attempted + len(probes)),
        },
        "static": static_counts(),
    }
    return {
        "detail": detail,
        "final": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v["value"], "unit": units[k]} for k, v in metrics.items()},
        },
    }


def report(detail: dict) -> str:
    lines = [f"platevac benchmark: workload={detail['workload']} seed={detail['seed']} "
             f"input_hash={detail['input_hash']} cycles={detail['cycles']}"]
    for name, m in detail["metrics"].items():
        extra = f" p{m['percentile']:.1f}" if "percentile" in m else ""
        lines.append(f"  {name:28s} {m['value']:.6g} {m['unit']} (n={m['n']}{extra})")
    c = detail["checks"]
    lines.append(f"  checks: {c['failed']}/{c['attempted']} ops failed "
                 f"(failed_ratio {c['failed_ratio']:.4g}); {c['values_off_target_per_cycle']}"
                 f"/{c['values_checked_per_cycle']} values per cycle off the "
                 f"{detail['tolerances']['target_rtol']:g} target")
    probes = detail["known_defect_probes"]
    for p in probes["results"]:
        lines.append(f"  known-defect probe {p['id']}: {'pass' if p['passed'] else 'FAIL'} "
                     f"{'; '.join(p['problems']).strip()[:160]}")
    lines.append(f"  failed_ratio with probes: {probes['failed_ratio_with_probes']:.4g}")
    s = detail["static"]
    lines.append(f"  static: src lines {s['src_lines']}, runtime deps "
                 f"{', '.join(s['runtime_dependencies'])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "platevac" / "__init__.py").is_file():
        print(f"error: no platevac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report(out["detail"]))
    print("detail " + json.dumps(out["detail"]))
    print(json.dumps(out["final"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
