"""Sharded parallel serving engine with an epoch-invalidated result cache.

The scaling layer on top of the range-sum structures: partition the cube
along its leading dimension into K independent shards, route updates to
owners, decompose queries into per-shard sub-ranges read in turn on the
calling thread, and serve repeat reads from an LRU cache whose entries
are validated against per-shard write epochs.  See ``docs/engine.md``.

Errors (``docs/engine.md``): an answer is exact or an error.  A shard
read's error propagates unchanged to the caller; nothing retries,
degrades or answers with part of a sum.

Process parallelism (``docs/engine.md``): construct the engine with
``executor="process"`` to serve every shard from a shared-memory
prefix-sum slab (:class:`~repro.engine.shm.ShardSlabStore`) whose
writes a persistent worker-process pool
(:class:`~repro.engine.process.ProcessExecutor`) applies; reads take
the same fan-out.  A worker that dies mid-apply leaves its shard
failed: every later call on it raises
:class:`~repro.exceptions.WorkerCrashedError`.
"""

from .cache import MISS, EpochLruCache
from .engine import ShardedEngine
from .process import ProcessExecutor, ShmShardReplica
from .resilience import is_partial
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
    "is_partial",
]
