"""Record the frozen outputs that the benchmark checks every op against.

    PYTHONPATH=src:bench python3 bench/record_expected.py

Runs every op once on every member of every pool, so that any seed can be
checked, and rewrites ``bench/expected.json``. Re-record only when a change
is meant to alter ringlab's output, and say so in the change.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

from workloads import EXPECTED_PATH, OPS, WORKLOADS, observe, prepare


def record() -> dict:
    expected: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, workload in WORKLOADS.items():
            prepare(workload, workdir)
            expected[name] = {m: observe(name, OPS[name](m, workdir)) for m in workload.members}
    return expected


if __name__ == "__main__":
    EXPECTED_PATH.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
