"""Reproduction of "The Dynamic Data Cube" (Geffner, Agrawal, El Abbadi, EDBT 2000).

Public API highlights:

* :class:`~repro.core.ddc.DynamicDataCube` — the paper's contribution:
  O(log^d n) range-sum queries *and* point updates.
* :class:`~repro.core.growth.GrowableCube` — Section 5's dynamically
  growing, sparse-friendly cube over unbounded integer coordinates.
* :mod:`repro.methods` — the baselines the paper compares against
  (naive array, prefix sum, relative prefix sum) plus a d-dimensional
  Fenwick tree comparator, all behind one interface.
* :mod:`repro.olap` — the data-cube front-end from the paper's
  motivating examples (named dimensions, SUM/COUNT/AVERAGE).
* :mod:`repro.model` — the paper's analytic cost and storage model
  (Tables 1-2, Figure 1).
* :class:`~repro.engine.ShardedEngine` — the serving layer: K shards,
  serial or worker-process fan-out, epoch-invalidated result cache.
* :class:`~repro.obs.Observability` — opt-in serving observability:
  span tracing, latency/op histograms with Prometheus-style exposition,
  and a slow-query log (free when disabled).
"""

from .core.basic_ddc import BasicDynamicDataCube
from .core.bc_tree import BcTree
from .core.ddc import DynamicDataCube
from .core.growth import GrowableCube
from .counters import OpCounter
from .engine import ShardedEngine
from .exceptions import ReproError
from .methods import (
    FenwickCube,
    NaiveArray,
    PrefixSumCube,
    RangeSumMethod,
    RelativePrefixSumCube,
    build_method,
    create_method,
    method_names,
)
from .obs import Observability

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "BcTree",
    "BasicDynamicDataCube",
    "DynamicDataCube",
    "GrowableCube",
    "OpCounter",
    "ReproError",
    "ShardedEngine",
    "Observability",
    "RangeSumMethod",
    "NaiveArray",
    "PrefixSumCube",
    "RelativePrefixSumCube",
    "FenwickCube",
    "create_method",
    "build_method",
    "method_names",
]
