"""Smoke test of the benchmark harness at tiny size (about a minute).

Usage, from the root of a checkout:  python3 perfbench/smoke.py

Checks, for every workload, that the untraced run prints every
``end_to_end`` metric of BENCHMARK.json and the traced run every
``per_layer`` metric, each with its unit in the result line and with a
sample count in the detail line; that the result line has exactly the
contracted keys; that work counts and the input hash repeat for a seed
and the hash changes with the seed; and that the benchmark refuses to
run, without printing a result, when the program's sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

EXACT_COUNTS = ("calls", "window_evals", "checks_run", "checks_passed", "points_checked",
                "points_off", "work.ops", "work.points", "warnings.count")


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    final = json.loads(lines[-1])
    detail = json.loads(next(l for l in lines if l.startswith("detail "))[len("detail "):])
    return final, detail


def check_metrics(spec: list[dict], final: dict, detail: dict) -> None:
    assert set(final) == {"correct", "attempted", "failed", "metrics"}, final.keys()
    assert final["correct"] is True and final["failed"] == 0, detail["checks"]
    assert isinstance(final["attempted"], int) and final["attempted"] >= 1
    assert set(final["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = final["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        assert detail["metrics"][m["name"]]["n"] >= 1, m
        assert detail["metrics"][m["name"]]["unit"] == m["unit"], m


def is_exact(name: str) -> bool:
    return any(name.endswith(k) or name == k for k in EXACT_COUNTS)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        final, detail = bench(workload, 7, 0)
        check_metrics(spec["end_to_end"], final, detail)
        traced, traced_detail = bench(workload, 7, 1)
        check_metrics(spec["per_layer"], traced, traced_detail)
        assert detail["input_hash"] == traced_detail["input_hash"]
        print(f"{workload}: metrics present, {final['attempted']} + {traced['attempted']} ops")

    again, _ = bench("sweep", 7, 1)
    first, _ = bench("sweep", 7, 1)
    for name, value in first["metrics"].items():
        if is_exact(name):
            assert again["metrics"][name]["value"] == value["value"], name
    print("sweep: work counts repeat for a fixed seed")

    for workload in workloads.WORKLOADS:
        h1 = workloads.input_hash(workloads.generate(workload, 7))
        assert h1 == workloads.input_hash(workloads.generate(workload, 7))
        assert h1 != workloads.input_hash(workloads.generate(workload, 8))
    print("input hash: repeats for a seed, changes with the seed")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("--workload", "cold", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("without sources: exits", proc.returncode, "and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
