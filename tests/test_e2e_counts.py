"""Pinned per-layer op counts of the end-to-end benchmark's smoke runs.

The paper's cost unit (``OpCounter`` cells and node visits) is the one
benchmark figure that does not depend on the machine.  Each case runs
``benchmarks/e2e/run.py --smoke --workload W --seed 0 --trace 1`` in a
fresh process and compares its count metrics exactly.  A change that
moves one of these numbers changes what the program computes, and must
say so and update the pin.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "run.py"

# workload -> (core.cell_reads_per_query, core.cell_writes_per_update,
#              core.node_visits_per_query, engine.subqueries_per_read)
PINNED = {
    "ddc_mixed_2d": (84.95945945945945, 17.36046511627907, 37.445945945945944, 0.0),
    "engine_batch_3d": (10.66875, 179.9375, 10.66875, 2.29375),
    "engine_hot_reads": (1.1326530612244898, 88.5, 1.1326530612244898, 0.3163265306122449),
}

COUNTS = (
    "core.cell_reads_per_query",
    "core.cell_writes_per_update",
    "core.node_visits_per_query",
    "engine.subqueries_per_read",
)


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_smoke_counts_pinned(workload):
    done = subprocess.run(
        # --allow-env: the counts do not depend on the REPRO_* switches
        # the harness refuses for timing runs.
        [sys.executable, str(RUN), "--smoke", "--workload", workload,
         "--seed", "0", "--trace", "1", "--allow-env"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    document = json.loads(done.stdout.strip().splitlines()[-1])
    assert document["correct"] and document["failed"] == 0
    metrics = document["metrics"]
    assert tuple(metrics[name]["value"] for name in COUNTS) == PINNED[workload]
