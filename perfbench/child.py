"""Traced stand-in for ``python -m platevac`` in the cold workload's traced run.

Usage: python perfbench/child.py <platevac arguments...>

Imports platevac.cli, installs the tracer and runs ``cli.main`` on the
arguments, so stdout and the exit code are those of the real command.
The last line on stderr is ``PERFBENCH_TRACE <json>``: the layer totals
of this process plus its own import time.
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings

START = time.perf_counter_ns()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402

WARNING_NAMES = ("IntegrationWarning", "ValidityWarning")


def main() -> int:
    before = time.perf_counter_ns()
    from platevac import cli

    import_ns = time.perf_counter_ns() - before
    tracer = Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = tracer.run_op(lambda: cli.main(sys.argv[1:]))
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    summary = tracer.snapshot()
    summary["import_ns"] = import_ns
    summary["warnings"] = sum(1 for w in caught if w.category.__name__ in WARNING_NAMES)
    summary["process_ns"] = time.perf_counter_ns() - START
    sys.stderr.write("PERFBENCH_TRACE " + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
