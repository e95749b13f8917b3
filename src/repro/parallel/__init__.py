"""repro.parallel: the worker-pool shard executor.

``ShardedIndex(..., mode="process")`` imports this package to run its
shards on a pool (:mod:`repro.parallel.workers`): one worker process
exclusively owns one shard, commands travel over a pipe or a shared-memory
mailbox (:mod:`repro.parallel.shm`) in ``RPK1`` column frames
(:mod:`repro.parallel.pack`), and :class:`PoolExecutor` reconciles each
response's I/O deltas into the router's ledgers.  The router itself --
routing, ledgers, sequenced moves, fallback on a worker's death -- lives in
:mod:`repro.engine.sharded`.
"""

from repro.parallel.workers import (
    PoolExecutor,
    ProcessWorker,
    ShardServer,
    WorkerFailure,
)

__all__ = [
    "PoolExecutor",
    "ProcessWorker",
    "ShardServer",
    "WorkerFailure",
]
