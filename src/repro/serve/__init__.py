"""``repro.serve`` -- the concurrent serving layer.

A long-lived asyncio TCP daemon around the repo's index engines: a single
writer task behind a bounded queue absorbs a sustained update stream while
snapshot read replicas serve range/kNN with bounded, reported staleness,
per-client token buckets shed overload with explicit ``RETRY_AFTER``
responses, and the durability layer's WAL/checkpoints make every
acknowledged write crash-recoverable.  ``repro serve`` runs the daemon;
``repro bench-serve`` drives it with the multi-process load generator and
emits the BENCH ``serve`` section (p50/p99/max latency, sustained ops/sec,
reject rate per client count).
"""

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.lifecycle import (
    ShutdownRequested,
    describe_teardown,
    handle_signals,
    teardown_run,
)
from repro.serve.protocol import ProtocolError, ServeClient, ServeError
from repro.serve.replica import ReplicaSet, knn_search
from repro.serve.server import ServeConfig, ServerThread, ServeServer
from repro.serve.service import EngineService

__all__ = [
    "AdmissionController",
    "EngineService",
    "ProtocolError",
    "ReplicaSet",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeServer",
    "ServerThread",
    "ShutdownRequested",
    "TokenBucket",
    "describe_teardown",
    "handle_signals",
    "knn_search",
    "teardown_run",
]
