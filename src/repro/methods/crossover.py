"""Leftover of the removed batch-crossover calibration probe.

Every method now commits its batch crossover as a class constant
(``RangeSumMethod.batch_crossover``; the measurements are in
``docs/algorithms.md`` §8), so there is nothing to calibrate or reset.
This module remains only because the end-to-end harness
(``benchmarks/e2e/inproc.py``) still imports :func:`reset_calibration`;
the benchmark change that drops that import deletes this module.
"""

from __future__ import annotations

__all__ = ["reset_calibration"]


def reset_calibration() -> None:
    """No-op: batch crossovers are class constants, never calibrated."""
