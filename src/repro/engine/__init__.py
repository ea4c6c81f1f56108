"""Sharded parallel serving engine with an epoch-invalidated result cache.

The scaling layer on top of the range-sum structures: partition the cube
along its leading dimension into K independent shards, route updates to
owners, decompose queries into per-shard sub-ranges read in turn on the
calling thread, and serve repeat reads from an LRU cache whose entries
are validated against per-shard write epochs.  See ``docs/engine.md``.

Fault tolerance (``docs/resilience.md``): attach a
:class:`~repro.engine.resilience.ResiliencePolicy` to run every read
fan-out with deadline budgets, retry-with-backoff, per-shard circuit
breakers, and graceful degradation; test it all deterministically by
passing a :class:`~repro.engine.resilience.FaultInjector` as
``faults=``, which the fan-out consults before every shard read.

Process parallelism (``docs/engine.md``): construct the engine with
``executor="process"`` to serve every shard from a shared-memory
prefix-sum slab (:class:`~repro.engine.shm.ShardSlabStore`) whose
writes a persistent worker-process pool
(:class:`~repro.engine.process.ProcessExecutor`) applies; reads take
the same fan-out, so resilience and chaos tooling compose as-is.
"""

from .cache import MISS, EpochLruCache
from .engine import ShardedEngine
from .process import ProcessExecutor, ShmShardReplica
from .resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    Deadline,
    FaultInjector,
    FaultScript,
    PartialResult,
    ResiliencePolicy,
    is_partial,
)
from .sharding import ShardPlan, ShardSpan
from .shm import ShardSlabStore

__all__ = [
    "ShardedEngine",
    "ShardPlan",
    "ShardSpan",
    "EpochLruCache",
    "MISS",
    "ProcessExecutor",
    "ShmShardReplica",
    "ShardSlabStore",
    "ResiliencePolicy",
    "Deadline",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "PartialResult",
    "is_partial",
    "FaultInjector",
    "FaultScript",
]
