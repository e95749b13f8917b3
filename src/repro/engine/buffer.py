"""The batched update executor: a memtable-style buffer over any index.

Update-intensive follow-ups to the paper (LSM-based R-trees, buffered
bulk-apply schemes) get their wins from one observation: a moving object
reports many locations, but only the newest matters.  :class:`UpdateBuffer`
holds pending location updates in memory, **coalesces** superseded updates
to the same object id, and group-applies a batch per flush.

I/O accounting rules (so per-op figures stay comparable to the paper's
ledgers):

* buffering an update charges **nothing** -- the memtable is main memory
  (a production system would add a sequential log write, which the paper's
  page-I/O metric does not count for in-place indexes either);
* a flush charges exactly the page accesses its apply makes, under whatever
  :class:`~repro.storage.iostats.IOStats` category is active at the caller
  (the driver flushes inside its UPDATE scope).  The lazy family applies a
  batch in one :class:`~repro.storage.pager.PageEpoch`: each page it
  touches is charged at most one read and at most one write (a page a
  split allocates, one more), nothing kept from one batch to the next; an
  index without ``apply_batch`` is charged update by update;
* reads must not see stale data: the executor's contract is that callers
  flush before serving a query (the driver does), so a batched run returns
  the same query results as an unbatched one -- identical as sets; the
  order within a result, like the tree's shape, may differ.

Flush policies: **size** (``batch_size`` distinct pending objects) and
**time-horizon** (oldest pending update older than ``horizon`` relative to
the incoming timestamp).  Either alone or both together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Protocol, Sequence, runtime_checkable

from repro.core.geometry import Point
from repro.engine.protocol import SpatialIndex
from repro.obs.metrics import get_registry


@runtime_checkable
class UpdateLog(Protocol):
    """What the buffer needs from a write-ahead log.

    Satisfied by :class:`repro.durability.manager.DurabilityManager` (the
    protocol lives here so the engine layer never imports durability --
    dependency points outward, durability -> engine).
    """

    def log_insert(self, oid: int, point: Sequence[float], t: float) -> int: ...

    def log_update(
        self,
        oid: int,
        old_point: Sequence[float],
        point: Sequence[float],
        t: float,
    ) -> int: ...

    def log_flush(self) -> None: ...


@dataclass(frozen=True)
class FlushPolicy:
    """When the buffer drains.

    Args:
        batch_size: flush once this many distinct objects pend (0 disables
            the size trigger).
        horizon: flush once ``now - oldest_pending_t >= horizon`` (None
            disables the time trigger).  A horizon bounds the staleness a
            crash could lose and keeps time-driven structures' clocks from
            drifting far behind the stream.
    """

    batch_size: int = 64
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0")
        if self.horizon is not None and self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.batch_size == 0 and self.horizon is None:
            raise ValueError(
                "FlushPolicy needs a size trigger, a time trigger, or both"
            )

    def should_flush(
        self, pending: int, oldest_t: Optional[float], now: Optional[float]
    ) -> bool:
        return self.flush_reason(pending, oldest_t, now) is not None

    def flush_reason(
        self, pending: int, oldest_t: Optional[float], now: Optional[float]
    ) -> Optional[str]:
        """Which trigger fires: ``"size"``, ``"horizon"``, or None.

        The tag feeds :class:`FlushStats` and the ``engine.buffer.flush.*``
        obs counters, so a run's flush mix (policy-driven vs. forced by
        queries, stream end, or a CRITICAL health transition) is auditable.
        """
        if pending == 0:
            return None
        if self.batch_size and pending >= self.batch_size:
            return "size"
        if (
            self.horizon is not None
            and oldest_t is not None
            and now is not None
            and now - oldest_t >= self.horizon
        ):
            return "horizon"
        return None


@dataclass
class PendingUpdate:
    """The newest buffered state of one object.

    ``old_point`` is the position the *index* still holds (None if the
    object was never applied), frozen at first buffering; coalescing only
    advances ``point``/``t``.
    """

    oid: int
    old_point: Optional[Point]
    point: Point
    t: float
    seq: int
    absorbed: int = 0


@dataclass
class FlushStats:
    """Lifetime tallies of one buffer (monotone; snapshot for deltas)."""

    buffered: int = 0
    coalesced: int = 0
    applied: int = 0
    flushes: int = 0
    #: Flush tally by trigger tag ("size", "horizon", "query", "final",
    #: "critical", "manual").
    reasons: Dict[str, int] = field(default_factory=dict)

    def copy(self) -> "FlushStats":
        return FlushStats(
            self.buffered,
            self.coalesced,
            self.applied,
            self.flushes,
            dict(self.reasons),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "buffered": self.buffered,
            "coalesced": self.coalesced,
            "applied": self.applied,
            "flushes": self.flushes,
            "reasons": dict(self.reasons),
        }


class UpdateBuffer:
    """Coalescing memtable for location updates against one index.

    Args:
        policy: when to drain (size and/or time-horizon triggers).
        wal: optional write-ahead log.  When set, every update is logged
            **before** it is buffered -- the acknowledgement a caller gets
            from :meth:`put` then implies the update survives a crash (per
            the log's sync policy), even though the index has not applied
            it yet.  Coalescing does not thin the log: each superseded
            update was individually acknowledged, so each is individually
            recoverable.
    """

    def __init__(
        self,
        policy: Optional[FlushPolicy] = None,
        wal: Optional[UpdateLog] = None,
    ) -> None:
        self.policy = policy if policy is not None else FlushPolicy()
        self.wal = wal
        self._pending: Dict[int, PendingUpdate] = {}
        self._seq = 0
        self.stats = FlushStats()

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def oldest_t(self) -> Optional[float]:
        """Timestamp of the oldest pending (coalesced) update."""
        if not self._pending:
            return None
        return min(update.t for update in self._pending.values())

    def pending_for(self, oid: int) -> Optional[PendingUpdate]:
        return self._pending.get(oid)

    def iter_pending(self) -> List[PendingUpdate]:
        """The pending updates in arrival (seq) order; read-only callers.

        ``_pending`` is kept in seq order (a coalescing :meth:`put` moves
        its entry to the end), so this is a copy, not a sort.  The LSM
        memtable serves queries straight from here (main memory,
        uncharged) and snapshots serialize it in this canonical order.
        """
        return list(self._pending.values())

    def drop(self, oid: int) -> Optional[PendingUpdate]:
        """Discard the pending update for ``oid`` (a delete superseded it).

        The WAL is *not* thinned -- each dropped update was individually
        acknowledged and stays individually recoverable; the caller's
        tombstone supersedes it on replay exactly as it did live.
        """
        return self._pending.pop(oid, None)

    def put(
        self,
        oid: int,
        old_point: Optional[Sequence[float]],
        point: Sequence[float],
        t: float,
    ) -> None:
        """Buffer a location update; supersedes any pending one for ``oid``.

        ``old_point`` is the position the caller's ledger holds -- the last
        *acknowledged* position, which on replay is exactly the state the
        log reproduces record by record (so logging the caller's view keeps
        the traditional R-tree's delete-by-old-point correct during both
        coalesced apply and replay).
        """
        if self.wal is not None:
            # Log before acknowledging; a crash after this line loses
            # nothing that put() promised.
            if old_point is None:
                self.wal.log_insert(oid, point, t)
            else:
                self.wal.log_update(oid, old_point, point, t)
        stats = self.stats
        pending = self._pending
        stats.buffered += 1
        self._seq = seq = self._seq + 1
        position = tuple(point)
        existing = pending.pop(oid, None)
        if existing is not None:
            existing.point = position
            existing.t = t
            existing.seq = seq
            existing.absorbed += 1
            stats.coalesced += 1
            # Re-inserted at the end: the dict stays in seq order.
            pending[oid] = existing
            return
        pending[oid] = PendingUpdate(
            oid, None if old_point is None else tuple(old_point), position, t, seq
        )

    def flush_reason(self, now: Optional[float] = None) -> Optional[str]:
        """Which of the policy's triggers fires now (``"size"``,
        ``"horizon"`` or None).  ``oldest_t`` is a scan of every pending
        update, so it is only taken when the policy has a horizon to test
        it against."""
        policy = self.policy
        oldest_t = None if policy.horizon is None else self.oldest_t
        return policy.flush_reason(len(self._pending), oldest_t, now)

    def should_flush(self, now: Optional[float] = None) -> bool:
        return self.flush_reason(now) is not None

    def flush(self, index: SpatialIndex, reason: str = "manual") -> int:
        """Apply every pending update to ``index`` in timestamp order.

        ``reason`` tags why the buffer drained ("size", "horizon", "query",
        "final", "critical", or the default "manual") in :class:`FlushStats`
        and the ``engine.buffer.flush.<reason>`` obs counter.

        Applies are ordered by ``(t, arrival)`` ascending so a time-driven
        index (the CT-R-tree's adaptation clock) observes the same monotone
        ``now`` sequence an unbatched run would; ties preserve arrival order.
        Returns the number of index operations performed.

        Exception safety: each pending entry is removed only after *its*
        apply succeeds.  If the index raises mid-batch, the failed and
        still-unapplied updates stay pending -- a retry (or a WAL replay
        after a crash) sees them again instead of silently losing them.

        Batch dispatch: an index exposing ``apply_batch`` receives the whole
        sorted batch in one call and the per-update loop below is not used.
        The lazy-R-tree and alpha-tree apply it page by page in one
        :class:`~repro.storage.pager.PageEpoch`: each page is read and
        written at most once (one read per hash bucket, one read and one
        write per touched leaf, escapees' descents reading only what the
        batch has not); the sharded router queues it per shard for its
        executor (one op at a time inline, concurrent sub-batches on a
        worker pool); the LSM's flush sink turns it into a run.  The
        per-update loop below opens no epoch.

        The ``apply_batch`` contract: the batch arrives in ``(t, seq)``
        order; a provider that may also be handed an uncoalesced batch (the
        serving daemon's writer does that) resolves a repeated id to its
        last entry; the return value is the op count, ``len(batch)``.  It is
        all-or-nothing per call for anything the provider can check up
        front -- an id it does not hold raises ``KeyError`` before a page is
        changed -- and whenever it raises, everything stays pending; moves
        are idempotent, so re-applying the batch after the fault is repaired
        is safe.
        """
        if not self._pending:
            return 0
        # ``_pending`` is in seq order and sorted() is stable, so sorting
        # by ``t`` alone yields the ``(t, seq)`` order.
        batch: List[PendingUpdate] = sorted(
            self._pending.values(), key=attrgetter("t")
        )
        applied = 0
        apply_batch = getattr(index, "apply_batch", None)
        if apply_batch is not None:
            applied = int(apply_batch(batch))
            self._pending.clear()
            self.stats.applied += applied
        else:
            try:
                for update in batch:
                    if update.old_point is None:
                        index.insert(update.oid, update.point, now=update.t)
                    else:
                        index.update(
                            update.oid,
                            update.old_point,
                            update.point,
                            now=update.t,
                        )
                    del self._pending[update.oid]
                    applied += 1
            finally:
                self.stats.applied += applied
        self.stats.flushes += 1
        self.stats.reasons[reason] = self.stats.reasons.get(reason, 0) + 1
        registry = get_registry()
        if registry.enabled:
            registry.inc(f"engine.buffer.flush.{reason}")
        if self.wal is not None:
            self.wal.log_flush()
        return applied
