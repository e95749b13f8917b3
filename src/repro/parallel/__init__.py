"""repro.parallel: worker-pool execution for the sharded engine.

Two coordinated pieces:

* :class:`~repro.parallel.sharded.ParallelShardedIndex` -- the sharded
  engine's worker-pool execution mode (process or thread workers, one per
  shard), with batched dispatch, concurrent query fan-out, sequenced
  cross-shard moves, and graceful inline fallback on worker failure;
* :mod:`~repro.parallel.workers` -- the shard-worker command protocol and
  the process/thread worker implementations.
"""

from repro.parallel.sharded import ParallelShardedIndex, ShardLedger
from repro.parallel.workers import (
    ProcessWorker,
    ShardServer,
    ThreadWorker,
    WorkerFailure,
)

__all__ = [
    "ParallelShardedIndex",
    "ShardLedger",
    "ProcessWorker",
    "ThreadWorker",
    "ShardServer",
    "WorkerFailure",
]

PARALLEL_MODES = ("off", "thread", "process")
