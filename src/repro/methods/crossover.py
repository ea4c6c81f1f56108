"""One-shot batch-crossover calibration probe.

Every method has a batch size below which its shared-work batch path
(vectorised gathers, path-sharing descents) loses to the plain scalar
loop — the per-call setup never amortises.  Earlier revisions pinned
that threshold per class with hand-tuned constants measured on one
machine; this module replaces them with a measured decision: the first
time a method with ``batch_crossover = "auto"`` dispatches a batch, a
small probe cube is built, both paths are timed along a geometric
ladder of batch sizes, and the crossover is where the lines fitted
through those timings meet (see :func:`_probe`) — a fit, because a
rung-by-rung comparison hinges on its closest rung, where one
preempted repetition flips the answer for the life of the process.
The result is cached per ``(class, dims)``, so the probe runs once per
process — for ``vector`` a ~40k-cell tree and a few milliseconds, paid
on the first batch call, never on the hot path.

The probe is observable and overridable:

* ``REPRO_BATCH_CROSSOVER=<int>`` pins every auto-calibrated method to
  one threshold (deterministic CI runs, A/B experiments);
* :func:`calibration_report` returns the measured table so benchmarks
  can record *why* a crossover landed where it did;
* per-instance ``batch_crossover_override`` bypasses the probe
  entirely (the benchmarks use it to audit the batch path below the
  crossover).

Timing uses the observability clock wrapper, never ``time.*`` directly
(project rule REP008).
"""

from __future__ import annotations

import math
import os
import statistics
from typing import TYPE_CHECKING, Any

import numpy as np

from ..obs.clock import MonotonicClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import RangeSumMethod

__all__ = [
    "PROBE_BATCH_SIZES",
    "calibrated_crossover",
    "calibration_report",
    "reset_calibration",
]

#: Geometric ladder of batch sizes the probe times both paths at.
PROBE_BATCH_SIZES = (4, 16, 64, 256)

#: Probe cube side per axis — big enough that tree descents have real
#: depth, small enough that the probe costs milliseconds.
_PROBE_SIDE = 32

#: Timings are the best of this many repetitions: noise only ever adds
#: time, so one preempted repetition never reaches the fit.
_REPS = 2

_CACHE: dict[tuple[type, int], int] = {}
_REPORT: dict[tuple[str, int], list[dict[str, Any]]] = {}

_CLOCK = MonotonicClock()


def reset_calibration() -> None:
    """Drop every cached probe result (tests re-calibrate after this)."""
    _CACHE.clear()
    _REPORT.clear()


def calibration_report() -> dict[str, list[dict[str, Any]]]:
    """Measured probe rows per calibrated ``"<method>/<dims>d"`` key."""
    return {
        f"{name}/{dims}d": rows for (name, dims), rows in sorted(_REPORT.items())
    }


def calibrated_crossover(cls: "type[RangeSumMethod]", dims: int) -> int:
    """The measured batch/scalar threshold for ``cls`` at ``dims`` axes.

    Returns the fitted batch size from which the batch path beats the
    scalar loop, clamped to the ladder; if the batch path never
    amortises, one past the largest rung — i.e. batches up to 256 stay
    scalar, larger ones are trusted to amortise.
    """
    pinned = os.environ.get("REPRO_BATCH_CROSSOVER")
    if pinned:
        return max(1, int(pinned))
    key = (cls, dims)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    # Publish a provisional threshold before probing: the probe itself
    # issues *_many calls, and the instance-level override it sets must
    # not recurse into calibration.
    _CACHE[key] = PROBE_BATCH_SIZES[-1]
    try:
        crossover, rows = _probe(cls, dims)
    except Exception:  # pragma: no cover - probe must never break serving
        del _CACHE[key]
        raise
    _CACHE[key] = crossover
    _REPORT[(cls.name, dims)] = rows
    return crossover


def _probe(cls: "type[RangeSumMethod]", dims: int) -> tuple[int, list[dict[str, Any]]]:
    """Time both paths on a probe cube; returns (crossover, rows).

    Fits the batch path as ``setup + slope * n`` (least squares over the
    ladder) and the scalar loop as ``per_query * n``; they cross at
    ``setup / (per_query - slope)``, clamped to the ladder.
    """
    rng = np.random.default_rng(1729)
    shape = (_PROBE_SIDE,) * dims
    data = rng.integers(0, 10, size=shape)
    method = cls.from_array(data)
    rows: list[dict[str, Any]] = []
    for size in PROBE_BATCH_SIZES:
        cells = [
            tuple(int(value) for value in row)
            for row in rng.integers(0, _PROBE_SIDE, size=(size, dims))
        ]
        batch_seconds = _time_path(method, cells, force_batch=True)
        scalar_seconds = _time_path(method, cells, force_batch=False)
        rows.append(
            {
                "batch": size,
                "batch_seconds": batch_seconds,
                "scalar_seconds": scalar_seconds,
                "batch_wins": batch_seconds <= scalar_seconds,
            }
        )
    slope, setup = statistics.linear_regression(
        PROBE_BATCH_SIZES, [row["batch_seconds"] for row in rows]
    )
    per_query = sum(row["scalar_seconds"] for row in rows) / sum(PROBE_BATCH_SIZES)
    low, high = PROBE_BATCH_SIZES[0], PROBE_BATCH_SIZES[-1] + 1
    if per_query <= slope:
        return high, rows
    return min(max(math.ceil(setup / (per_query - slope)), low), high), rows


def _time_path(
    method: "RangeSumMethod", cells: list[tuple[int, ...]], force_batch: bool
) -> float:
    """Best-of-reps wall time for one path over one probe batch."""

    def run() -> None:
        if force_batch:
            method.prefix_sum_many(cells)
        else:
            for cell in cells:
                method.prefix_sum(cell)

    best = float("inf")
    method.batch_crossover_override = 1 if force_batch else None
    try:
        run()  # warm-up: first-touch setup
        for _ in range(_REPS):
            start = _CLOCK.now()
            run()
            best = min(best, _CLOCK.now() - start)
    finally:
        method.batch_crossover_override = None
    return best
