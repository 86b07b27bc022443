"""Seeded inputs for the three benchmark workloads.

Each workload is one cycle of operations that the client repeats until
its time is up.  Only whole cycles run, so every run sees the same mix of
operation kinds, and the seed changes parameter values, never the kinds
or the grid sizes, so that per-op cost does not depend on the seed.

An op is a plain dict: ``kind`` selects the checker, ``argv`` (CLI ops)
is what the program receives, and ``params`` holds the generated values
the checker needs to build its reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("profile", "sweep", "cold")

PROFILE_GRID = 10001
TINY_GRID = 101


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _num(x: float) -> str:
    return repr(float(x))


def _scalar_alpha(rng: random.Random, length: float, mass: float) -> float:
    # alpha/(m L)^2 stays below the 0.1 validity threshold of the scalar
    # effective theory, so no ValidityWarning is expected.
    return _log_uniform(rng, 1e-4, 5e-2) * (mass * length) ** 2


def _in_decade(rng: random.Random, decade: int) -> float:
    return 10.0 ** (decade + rng.random())


def _density(rng, model, scheme, cluster, fmt, with_alpha, grid, decade):
    # L lies in a fixed decade per slot: the cycle spans 1e-2..1e2, and the
    # cost of printing 17 digits, which depends on the magnitude of the
    # values, does not change with the seed.
    length = _in_decade(rng, decade)
    params = {
        "model": model, "length": length, "scheme": scheme, "epsilon": None,
        "alpha": None, "mass": None, "grid": grid, "cluster": cluster, "format": fmt,
    }
    argv = ["density", "--model", model, "--length", _num(length), "--grid", str(grid),
            "--cluster", cluster, "--format", fmt]
    if scheme == "cutoff":
        params["epsilon"] = _log_uniform(rng, 1e-4, 1e-1)
        argv += ["--scheme", "cutoff", "--epsilon", _num(params["epsilon"])]
    if with_alpha:
        params["mass"] = _log_uniform(rng, 0.5, 5.0)
        if model == "scalar":
            params["alpha"] = _scalar_alpha(rng, length, params["mass"])
        else:
            params["alpha"] = _log_uniform(rng, 1e-3, 1e-1)
        argv += ["--alpha", _num(params["alpha"]), "--mass", _num(params["mass"])]
    return {"kind": "density", "argv": argv, "params": params}


def _profile_ops(rng: random.Random, tiny: bool) -> list[dict]:
    # The scalar density with alpha is the slowest op; three of them per
    # cycle put op_tail_ms (the 11th slowest op of a run) inside that kind
    # instead of on the boundary between two kinds.
    grid = TINY_GRID if tiny else PROFILE_GRID
    ops = [
        _density(rng, "scalar", "zeta", "uniform", "csv", False, grid, -2),
        _density(rng, "scalar", "zeta", "endpoints", "json", False, grid, -1),
        _density(rng, "scalar", "cutoff", "uniform", "csv", False, grid, 0),
        _density(rng, "scalar", "cutoff", "endpoints", "csv", False, grid, 1),
        _density(rng, "scalar", "zeta", "uniform", "csv", True, grid, 0),
        _density(rng, "scalar", "zeta", "endpoints", "csv", True, grid, 0),
        _density(rng, "scalar", "zeta", "uniform", "json", True, grid, -1),
        _density(rng, "em", "zeta", "uniform", "csv", False, grid, 1),
        _density(rng, "em", "zeta", "endpoints", "json", True, grid, -1),
    ]
    for model, decade in (("scalar", -2), ("em", 1)):
        ops.append({
            "kind": "lib.profile",
            "params": {"model": model, "length": _in_decade(rng, decade),
                       "grid": grid, "cluster": "endpoints"},
        })
    # The quick suite has no quadrature and costs under 1% of the cycle; it
    # gives the verify layer a measured time in this workload too.
    ops.append({"kind": "verify", "argv": ["verify", "--suite", "quick"], "params": {}})
    return ops


def _ladder(start: float, ratio: float, count: int) -> list[float]:
    return [start / ratio ** i for i in range(count)]


def _commute(rng: random.Random, interacting: bool, slot: int, slots: int) -> dict:
    # The quadrature effort of a report grows as its delta ladder starts
    # nearer the wall.  Each slot draws the ladder's start from its own
    # band of [0.01, 0.04]·L, so a cycle's reports cost the same whatever
    # the seed; L and the epsilons barely change the cost.
    length = _log_uniform(rng, 0.1, 10.0)
    band = (0.01 * 4.0 ** (slot / slots), 0.01 * 4.0 ** ((slot + 1) / slots))
    deltas = [length * d for d in _ladder(_log_uniform(rng, *band), 2.0, 4)]
    epsilons = _ladder(_log_uniform(rng, 5e-4, 2e-3), 2.0, 3)
    params = {"length": length, "deltas": deltas, "epsilons": epsilons,
              "alpha": None, "mass": None}
    argv = ["commute", "--length", _num(length),
            "--deltas", ",".join(map(_num, deltas)),
            "--epsilons", ",".join(map(_num, epsilons)), "--format", "json"]
    if interacting:
        params["mass"] = _log_uniform(rng, 1.0, 10.0)
        params["alpha"] = _scalar_alpha(rng, length, params["mass"])
        argv += ["--alpha", _num(params["alpha"]), "--mass", _num(params["mass"])]
    return {"kind": "commute", "argv": argv, "params": params}


def _scan_delta(rng: random.Random) -> dict:
    # One margin per decade from 1e-2 L down to 1e-6 L.  Deeper margins
    # are where the seed's quadrature breaks down; they are exercised by
    # the known-defect probes instead (see probe_ops).
    length = _log_uniform(rng, 0.1, 10.0)
    values = [length * 10.0 ** -k * rng.uniform(1.0, 9.0) for k in range(2, 7)]
    return {
        "kind": "scan.delta",
        "argv": ["scan", "--vary", "delta", "--length", _num(length),
                 "--values", ",".join(map(_num, values))],
        "params": {"length": length, "values": values},
    }


def _scan_epsilon(rng: random.Random) -> dict:
    length = _log_uniform(rng, 0.1, 10.0)
    theta = rng.uniform(0.2, math.pi - 0.2)
    values = sorted((_log_uniform(rng, 1e-4, 1e-1) for _ in range(8)), reverse=True)
    return {
        "kind": "scan.epsilon",
        "argv": ["scan", "--vary", "epsilon", "--length", _num(length),
                 "--theta", _num(theta), "--values", ",".join(map(_num, values))],
        "params": {"length": length, "theta": theta, "values": values},
    }


def _scan_length(rng: random.Random, count: int) -> dict:
    alpha = _log_uniform(rng, 1e-3, 1e-1)
    mass = _log_uniform(rng, 0.5, 5.0)
    values = sorted(_log_uniform(rng, 1e-2, 1e2) for _ in range(count))
    return {
        "kind": "scan.length",
        "argv": ["scan", "--vary", "length", "--model", "em", "--alpha", _num(alpha),
                 "--mass", _num(mass), "--values", ",".join(map(_num, values))],
        "params": {"alpha": alpha, "mass": mass, "values": values},
    }


def _points(rng: random.Random, count: int) -> dict:
    # Isolated one-point library calls: a vectorised density path that
    # makes single points slower shows up here.
    length = _log_uniform(rng, 0.1, 10.0)
    points = []
    for i in range(count):
        eps = _log_uniform(rng, 1e-4, 1e-1) if i % 2 else None
        points.append([rng.uniform(0.01, math.pi - 0.01), eps])
    return {"kind": "lib.points", "params": {"length": length, "points": points}}


def _sweep_ops(rng: random.Random, tiny: bool) -> list[dict]:
    # Three reports of each model with their own seeded ladders: the
    # median op is a report, and its quadrature effort varies with the
    # ladder, so several of them keep op_p50_ms from hinging on one draw.
    reports = [_commute(rng, interacting, slot, 3)
               for interacting in (False, True) for slot in range(3)]
    return [
        *reports,
        _scan_delta(rng),
        _scan_epsilon(rng),
        _scan_length(rng, 8),
        {"kind": "verify", "argv": ["verify", "--suite", "quick" if tiny else "full"],
         "params": {}},
        _points(rng, 16 if tiny else 128),
    ]


def _total(rng: random.Random, model: str, with_alpha: bool, fmt: str) -> dict:
    length = _log_uniform(rng, 1e-2, 1e2)
    params = {"model": model, "length": length, "alpha": None, "mass": None}
    argv = ["total", "--model", model, "--length", _num(length), "--format", fmt]
    if with_alpha:
        params["mass"] = _log_uniform(rng, 0.5, 5.0)
        params["alpha"] = _log_uniform(rng, 1e-3, 1e-1)
        argv += ["--alpha", _num(params["alpha"]), "--mass", _num(params["mass"])]
    return {"kind": "total", "argv": argv, "params": params}


def _cold_ops(rng: random.Random, tiny: bool) -> list[dict]:
    return [
        _total(rng, "scalar", False, "csv"),
        _total(rng, "em", True, "json"),
        _density(rng, "scalar", "zeta", "uniform", "csv", False, 101, 0),
        _commute(rng, False, 0, 1),
        {"kind": "verify", "argv": ["verify", "--suite", "quick"], "params": {}},
        _scan_length(rng, 4),
    ]


def generate(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """One cycle of ops for ``workload``; the same seed gives the same ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    ops = {"profile": _profile_ops, "sweep": _sweep_ops, "cold": _cold_ops}[workload](rng, tiny)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def input_hash(ops: list[dict]) -> str:
    """Digest of the generated inputs, to show they repeat for a seed."""
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def probe_ops() -> list[dict]:
    """Known seed defects, run once per benchmark run outside the timed ops.

    They are fixed inputs, not seeded: each is a documented defect whose
    result is reported as a failure until the program is fixed.
    """
    return [
        {"id": "deep_delta_window", "kind": "scan.delta",
         "argv": ["scan", "--vary", "delta", "--length", "1.0", "--values", "1e-08"],
         "params": {"length": 1.0, "values": [1e-8]}},
        {"id": "right_wall_zeta_density", "kind": "lib.z_point",
         "params": {"length": 1.0, "z": 1.0 - 1e-10}},
        {"id": "cutoff_tiny_eps_near_wall", "kind": "scan.epsilon",
         "argv": ["scan", "--vary", "epsilon", "--length", "1.0", "--theta", "1e-10",
                  "--values", "1e-12"],
         "params": {"length": 1.0, "theta": 1e-10, "values": [1e-12]}},
        {"id": "em_total_huge_length", "kind": "total",
         "argv": ["total", "--model", "em", "--length", "1e+80", "--format", "json"],
         "params": {"model": "em", "length": 1e80, "alpha": None, "mass": None}},
    ]
