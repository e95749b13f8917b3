"""The engine service behind the daemon: one index, one writing actor.

:class:`EngineService` wraps a registered index (or the sharded
router) the same way :class:`~repro.workload.SimulationDriver` does for the
batch path: it keeps the acknowledged-positions ledger, logs every write to
the WAL *before* acknowledging it, charges I/O under the standard
categories, and checkpoints only at quiescent points.  The concurrency
contract mirrors the worker-pool one (one actor touches the structure at a
time):

* ``ack_update`` runs on the event-loop thread -- it is pure bookkeeping
  (WAL append + ledger write), never touches the index.
* ``apply``, ``query_*``, ``fork_document`` and ``checkpoint`` touch the
  index and therefore run only on the daemon's single writer executor
  (or on the event loop while it is provably quiescent).

Because the WAL is written before the ack and the ledger tracks *acked*
(not applied) positions, a crash at any point recovers exactly the acked
prefix: :func:`repro.durability.recover` replays what was acknowledged,
nothing more, nothing less -- the same guarantee the batch driver gives.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.geometry import Point, Rect
from repro.engine.buffer import PendingUpdate
from repro.resilience.dedup import DedupJournal
from repro.serve.replica import Neighbor, knn_search
from repro.storage.iostats import IOCategory
from repro.storage.snapshot import build_document

#: One acknowledged write queued for the writer task:
#: (oid, old position or None, new position, timestamp, ack sequence).
WriteOp = Tuple[int, Optional[Point], Point, float, int]


class EngineService:
    """Owns the primary index and its durability hooks for the daemon."""

    def __init__(
        self,
        index,
        store,
        kind: str,
        domain: Rect,
        *,
        durability=None,
    ) -> None:
        self.index = index
        self.store = store
        self.kind = kind
        self.domain = domain
        self.durability = durability
        if durability is not None and not durability.attached:
            durability.attach(index, kind=kind)
        #: Last *acknowledged* position per object -- the ``old_point`` the
        #: next update for that object logs and applies with.
        self.positions: Dict[int, Point] = {}
        #: Monotone op counters: acked advances at WAL-log time (event
        #: loop), applied advances when the writer lands the op.
        self.acked = 0
        self.applied = 0
        #: Per-client idempotency watermarks (event-loop only, like the
        #: ledger).  Journaled through checkpoints so a stamped retry
        #: dedups across a daemon restart.
        self.dedup = DedupJournal()
        if durability is not None:
            durability.state_provider = lambda: {"dedup": self.dedup.to_state()}

    # -- load (writer thread or pre-serving setup) -----------------------

    def load(
        self, positions: Mapping[int, Point], now: Optional[float] = None
    ) -> None:
        """Bulk-load current positions as BUILD I/O + baseline checkpoint."""
        with self.store.stats.category(IOCategory.BUILD):
            for oid, point in positions.items():
                pos = tuple(point)
                self.index.insert(oid, pos, now=now)
                self.positions[oid] = pos
        if self.durability is not None:
            self.durability.checkpoint()

    def adopt_recovered(self, recovery_report=None) -> None:
        """Take over state rebuilt by :func:`repro.durability.recover`.

        The constructor's ``index`` is the recovered structure; this
        derives the acked-positions ledger from it and restores the dedup
        journal from the checkpoint's ``app_state`` plus the replayed WAL
        tail's idempotency stamps -- the restart half of exactly-once.
        Called instead of :meth:`load` (which bulk-inserts from a trace and
        would double-apply everything the recovered index already holds).
        """
        self.positions = {
            oid: tuple(pos)
            for oid, pos in self.index.range_search(self.domain)
        }
        if recovery_report is not None:
            app_state = recovery_report.app_state or {}
            self.dedup = DedupJournal.from_state(app_state.get("dedup"))
            self.dedup.absorb_replay(recovery_report.dedup_records)
            if self.durability is not None:
                self.durability.state_provider = (
                    lambda: {"dedup": self.dedup.to_state()}
                )

    # -- write path ------------------------------------------------------

    def ack_update(
        self,
        oid: int,
        point: Sequence[float],
        t: float,
        *,
        client: Optional[str] = None,
        rid: Optional[int] = None,
    ) -> WriteOp:
        """Log + ledger one write; returns the op to queue.  Loop thread.

        The WAL append happens here, *before* the caller sends the ack --
        so an ack always implies durability (per the sync policy), even
        though the index applies the op later.  If the append raises
        (e.g. an injected crash), nothing was acked and the ledger is
        untouched.  ``client``/``rid`` is the caller's idempotency stamp,
        journaled on the record; the caller must have consulted
        :attr:`dedup` first -- this method always applies.
        """
        pos = tuple(float(c) for c in point)
        old = self.positions.get(oid)
        if self.durability is not None:
            if old is None:
                self.durability.log_insert(oid, pos, t, client=client, rid=rid)
            else:
                self.durability.log_update(
                    oid, old, pos, t, client=client, rid=rid
                )
        self.positions[oid] = pos
        self.acked += 1
        return (oid, old, pos, t, self.acked)

    def apply(self, batch: Sequence[WriteOp]) -> int:
        """Apply acked ops in ack order.  Writer thread only."""
        applied = 0
        apply_batch = getattr(self.index, "apply_batch", None)
        with self.store.stats.category(IOCategory.UPDATE):
            if apply_batch is not None:
                pending = [
                    PendingUpdate(
                        oid=oid, old_point=old, point=pos, t=t, seq=seq
                    )
                    for oid, old, pos, t, seq in batch
                ]
                applied = int(apply_batch(pending))
            else:
                for oid, old, pos, t, _seq in batch:
                    if old is None:
                        self.index.insert(oid, pos, now=t)
                    else:
                        self.index.update(oid, old, pos, now=t)
                    applied += 1
        self.applied += applied
        if self.durability is not None:
            self.durability.note_applied(applied)
        return applied

    # -- read path (writer thread for fresh reads; replicas elsewhere) ---

    def query_range(
        self, lo: Sequence[float], hi: Sequence[float]
    ) -> List[Tuple[int, Point]]:
        with self.store.stats.category(IOCategory.QUERY):
            return self.index.range_search(Rect(lo, hi))

    def query_knn(self, point: Sequence[float], k: int) -> List[Neighbor]:
        with self.store.stats.category(IOCategory.QUERY):
            return knn_search(self.index, point, k, self.domain)

    # -- snapshots / checkpoints -----------------------------------------

    def fork_document(self) -> Tuple[int, Dict]:
        """-> (applied seq, snapshot document).  Writer thread only, so the
        document is a consistent fork: no apply races the page walk."""
        return self.applied, build_document(self.index, kind=self.kind)

    def maybe_checkpoint(self) -> None:
        """Cadence-driven checkpoint; caller must hold quiescence."""
        if self.durability is not None:
            self.durability.maybe_checkpoint()

    def checkpoint(self) -> Optional[int]:
        """Forced checkpoint; caller must hold quiescence (queue empty and
        the writer idle) so the covered WAL seq is truthful."""
        if self.durability is None:
            return None
        info = self.durability.checkpoint()
        return getattr(info, "ordinal", None)

    # -- lifecycle / introspection ---------------------------------------

    def close_durability(self) -> None:
        if self.durability is not None:
            self.durability.close()

    def close_index(self) -> None:
        closer = getattr(self.index, "close", None)
        if closer is not None:
            closer()

    def stats_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "objects": len(self.positions),
            "acked": self.acked,
            "applied": self.applied,
            "dedup": self.dedup.metrics_dict(),
        }
        out["io"] = self.store.stats.to_dict()
        if self.durability is not None:
            out["durability"] = self.durability.metrics_dict()
        return out
