"""Turn one op's output into the compact record the checker reads.

Shared by the in-process worker and the cold client; imports nothing
from platevac and nothing heavy, so it adds no cost to either.
"""

from __future__ import annotations

import hashlib
import json
import random

MAX_TEXT = 65536


def digest(data: str) -> str:
    return hashlib.sha1(data.encode()).hexdigest()


def sample_indices(n: int, key) -> list[int]:
    """Rows to check: both ends (next to both walls), the middle, and three
    rows picked from ``key`` so that the same op checks the same rows."""
    if n <= 8:
        return list(range(n))
    picks = {0, 1, n // 2, n - 2, n - 1}
    rng = random.Random(f"rows:{key}:{n}")
    while len(picks) < 8:
        picks.add(rng.randrange(n))
    return sorted(picks)


def _density_rows(fmt: str, text: str) -> tuple[list[str], list]:
    if fmt == "json":
        payload = json.loads(text)
        return payload["columns"], payload["rows"]
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines[0].split(","), lines[1:]


def count_rows(kind: str, text: str) -> int:
    """Result rows in a small (non-density) CLI output."""
    if kind == "total":
        return 1
    if kind == "verify":
        return len(json.loads(text)["checks"])
    if kind == "commute":
        payload = json.loads(text)
        return len(payload["integrate_then_regularize"]) + len(payload["cutoff_full_interval"]) + 1
    return max(0, text.count("\n") - 1)  # CSV scans: lines minus the header


def cli_record(op: dict, exit_code, text: str, err: str) -> dict:
    """Record of a CLI op: exit code, digest, row count and either the
    whole output (small) or sampled density rows (large)."""
    record = {"exit": exit_code, "err": err[-2000:], "digest": digest(text), "rows": 0}
    if exit_code != 0:
        return record
    try:
        if op["kind"] == "density":
            header, rows = _density_rows(op["params"]["format"], text)
            record["rows"] = len(rows)
            record["header"] = header
            record["sample"] = [
                [i, [float(x) for x in (rows[i].split(",") if isinstance(rows[i], str) else rows[i])]]
                for i in sample_indices(len(rows), op["id"])
            ]
        else:
            record["rows"] = count_rows(op["kind"], text)
            record["text"] = text[:MAX_TEXT]
    except (ValueError, KeyError, IndexError) as exc:
        record["parse_error"] = repr(exc)
    return record
