"""Snapshot read replicas: read scaling with bounded, *reported* staleness.

The daemon's primary index is owned by a single writer thread; serving
every read through it would serialize reads behind writes.  Instead the
replica loop periodically forks the primary -- ``build_document`` at a
quiescent point on the writer executor (the same in-memory document the
generic ``save_index``/``load_index`` snapshots write to disk), then
``load_document`` once per replica off the writer path -- and swaps the
fresh read-only copies in atomically.  Readers that already picked an old
replica finish on it; nothing blocks on the swap.

Staleness is bounded by the refresh interval and *reported*, never hidden:
every replica-served response carries ``{"seq", "lag_ops", "age_s"}`` so a
client can tell exactly how far behind the answer may be, and can ask for
``fresh: true`` (a primary read serialized after the queued writes) when
it needs read-your-writes.

Each replica guards its index with a lock.  A read leaves the tree as it
found it, but every read is charged: it bumps the replica's shared
``IOStats`` counters and, when the index sits on a buffer pool, moves the
pool's LRU frames.  Two executor threads must therefore not walk the same
replica concurrently.  Scaling reads means more replicas, not more threads
per replica.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.geometry import Point, Rect
from repro.storage.snapshot import load_document

#: kNN result entry: (distance, object id, position) -- the same shape
#: ``RTree.nearest`` returns.
Neighbor = Tuple[float, int, Point]


def knn_search(index, point: Sequence[float], k: int, domain: Rect) -> List[Neighbor]:
    """k nearest objects as (distance, id, point), nearest first.

    Uses the index's own best-first ``nearest`` when it has one: every
    2-D index kind does (the R-tree family, the CT-R-tree, the LSM-R-tree).
    Of what the daemon serves, only ``ShardedIndex`` still takes the
    fallback (so does the ``SelfHealingIndex`` wrapper): an
    expanding-window search over ``range_search``.  The window doubles
    until it either holds ``k`` objects whose true distance fits inside it
    (circle-in-square: those are guaranteed complete) or covers the whole
    domain (then all objects are candidates).  Fallback ties break by
    object id.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    target = tuple(float(c) for c in point)
    nearest = getattr(index, "nearest", None)
    if nearest is not None:
        return [tuple(entry) for entry in nearest(target, k=k)]
    extent = max(
        (hi - lo for lo, hi in zip(domain.lo, domain.hi)), default=1.0
    )
    radius = max(extent / 32.0, 1e-9)
    while True:
        lo = tuple(c - radius for c in target)
        hi = tuple(c + radius for c in target)
        covers = all(
            wlo <= dlo and whi >= dhi
            for wlo, whi, dlo, dhi in zip(lo, hi, domain.lo, domain.hi)
        )
        matches = index.range_search(Rect(lo, hi))
        found = [
            (math.dist(target, pos), oid, pos) for oid, pos in matches
        ]
        if covers:
            found.sort(key=lambda e: (e[0], e[1]))
            return found[:k]
        complete = [entry for entry in found if entry[0] <= radius]
        if len(complete) >= k:
            complete.sort(key=lambda e: (e[0], e[1]))
            return complete[:k]
        radius *= 2.0


class SnapshotReplica:
    """One read-only copy of the primary at a known sequence number."""

    __slots__ = ("index", "lock", "seq", "built_at", "reads")

    def __init__(self, index, seq: int, built_at: float) -> None:
        self.index = index
        self.lock = threading.Lock()
        self.seq = seq
        self.built_at = built_at
        self.reads = 0


class ReplicaSet:
    """The daemon's rotating pool of snapshot replicas."""

    def __init__(
        self,
        n_replicas: int,
        domain: Rect,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.n_replicas = max(0, n_replicas)
        self.domain = domain
        self._clock = clock
        self._replicas: List[SnapshotReplica] = []
        self._rr = itertools.count()
        self.refreshes = 0

    @property
    def enabled(self) -> bool:
        return self.n_replicas > 0

    @property
    def ready(self) -> bool:
        return bool(self._replicas)

    @property
    def seq(self) -> int:
        """Sequence number the current replica generation was forked at."""
        return self._replicas[0].seq if self._replicas else -1

    def install(
        self, document: Dict, seq: int, built_at: Optional[float] = None
    ) -> None:
        """Load ``document`` into a fresh replica generation and cut over.

        The swap is a single reference assignment: in-flight reads finish
        on the generation they picked, new reads see the fresh one.
        """
        if not self.enabled:
            return
        at = built_at if built_at is not None else self._clock()
        fresh = [
            SnapshotReplica(load_document(document), seq, at)
            for _ in range(self.n_replicas)
        ]
        self._replicas = fresh
        self.refreshes += 1

    def _pick(self) -> SnapshotReplica:
        replicas = self._replicas
        if not replicas:
            raise RuntimeError("no replica installed yet")
        return replicas[next(self._rr) % len(replicas)]

    def staleness_of(
        self, replica: SnapshotReplica, applied_seq: int
    ) -> Dict[str, float]:
        return {
            "seq": replica.seq,
            "lag_ops": max(0, applied_seq - replica.seq),
            "age_s": max(0.0, self._clock() - replica.built_at),
        }

    def query_range(
        self, lo: Sequence[float], hi: Sequence[float], applied_seq: int
    ) -> Tuple[List[Tuple[int, Point]], Dict[str, float]]:
        replica = self._pick()
        with replica.lock:
            replica.reads += 1
            matches = replica.index.range_search(Rect(lo, hi))
        return matches, self.staleness_of(replica, applied_seq)

    def query_knn(
        self, point: Sequence[float], k: int, applied_seq: int
    ) -> Tuple[List[Neighbor], Dict[str, float]]:
        replica = self._pick()
        with replica.lock:
            replica.reads += 1
            neighbors = knn_search(replica.index, point, k, self.domain)
        return neighbors, self.staleness_of(replica, applied_seq)

    def to_dict(self, applied_seq: int) -> Dict[str, object]:
        out: Dict[str, object] = {
            "n_replicas": self.n_replicas,
            "refreshes": self.refreshes,
            "ready": self.ready,
        }
        if self._replicas:
            head = self._replicas[0]
            out.update(self.staleness_of(head, applied_seq))
            out["reads"] = sum(r.reads for r in self._replicas)
        return out
