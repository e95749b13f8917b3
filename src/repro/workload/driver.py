"""The simulation driver: replay updates and queries against an index.

The driver merges the online update stream with a Poisson query stream in
timestamp order and executes both against an index, attributing page I/O to
``IOCategory.UPDATE`` / ``IOCategory.QUERY`` -- the two quantities every
figure in the paper plots.

Every structure conforming to the :class:`~repro.engine.protocol.SpatialIndex`
protocol can be driven -- the four evaluated trees, and the engine's sharded
router over any of them.  Passing an :class:`~repro.engine.UpdateBuffer`
switches the driver to batched execution: updates are coalesced in memory
and group-applied per flush, with a mandatory flush before every query so
query results are identical to an unbatched run.

Passing a :class:`~repro.durability.DurabilityManager` makes the replay
crash-safe: every update is written to the manager's WAL *before* it is
applied (or buffered), a baseline checkpoint is taken after :meth:`load`,
and further checkpoints fire automatically at the manager's
``checkpoint_every`` cadence -- always at quiescent points (no
buffered-but-unapplied records), so a checkpoint's covered WAL position is
truthful.

``IndexKind``, ``make_index`` and ``RunResult`` moved to :mod:`repro.engine`
(the registry owns construction now); they are re-exported here unchanged
for backward compatibility.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Dict, Iterable, Mapping, Optional, Sequence

# Back-compat re-exports: these lived here before the engine layer existed.
from repro.engine.registry import IndexKind, make_index  # noqa: F401
from repro.engine.results import RunResult  # noqa: F401
from repro.engine.buffer import UpdateBuffer
from repro.engine.protocol import PageStore, SpatialIndex
from repro.core.geometry import Point
from repro.citysim.trace import TraceRecord
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.storage.iostats import IOCategory
from repro.workload.queries import RangeQuery


class SimulationDriver:
    """Replays a merged update/query timeline against one index."""

    def __init__(
        self,
        index: SpatialIndex,
        pager: PageStore,
        kind: str = "index",
        metrics: Optional[MetricsRegistry] = None,
        update_buffer: Optional[UpdateBuffer] = None,
        durability=None,
    ) -> None:
        self.index = index
        self.pager = pager
        self.kind = kind
        #: Observability sink; defaults to the process-global registry,
        #: which is disabled unless an entry point opted in.
        self.metrics = metrics if metrics is not None else get_registry()
        #: Batched execution: when set, updates buffer + coalesce here and
        #: group-apply on flush (size/time policy, and always before a query).
        self.update_buffer = update_buffer
        #: Durability: a :class:`~repro.durability.DurabilityManager`; the
        #: driver attaches it to the index (one WAL, sharded engine or not)
        #: and hands it to the buffer so logging precedes acknowledgement
        #: on both execution paths.
        self.durability = durability
        if durability is not None:
            if not durability.attached:
                # The snapshot layer derives the kind tag from the instance
                # (index_kind_of), so no kind needs to be plumbed here.
                durability.attach(index)
            if update_buffer is not None and update_buffer.wal is None:
                update_buffer.wal = durability
        #: Self-healing wrapper hooks (duck-typed so the driver never
        #: imports the health layer): a wrapped index exposes its monitor's
        #: CRITICAL-transition flag (forced buffer flush) and the
        #: post-cutover checkpoint request (taken at quiescent points).
        self._healing = (
            index
            if hasattr(index, "checkpoint_if_due")
            and hasattr(index, "health_state")
            else None
        )
        #: Last known position per object (the baselines' update() needs the
        #: old point; the driver is the "server" that knows it).
        self.positions: Dict[int, Point] = {}

    def load(
        self, positions: Mapping[int, Point], now: Optional[float] = None
    ) -> None:
        """Initial bulk of current positions, charged as BUILD I/O.

        ``now`` is the timestamp of the position snapshot (e.g.
        ``Trace.load_time``).  Passing it matters for the CT-R-tree: its
        internal clock ticks by one per ``now``-less operation, so a large
        untimed load would fast-forward the adaptation clock past the first
        online updates.
        """
        with self.pager.stats.category(IOCategory.BUILD):
            for oid, point in positions.items():
                self.index.insert(oid, point, now=now)
                self.positions[oid] = tuple(point)
        # The bulk is not logged record-by-record; a baseline checkpoint
        # makes it durable wholesale, so recovery always has a floor state.
        if self.durability is not None:
            self.durability.checkpoint()

    def adopt(self, positions: Mapping[int, Point]) -> None:
        """Register positions already loaded (e.g. by the CT builder)."""
        self.positions.update({oid: tuple(p) for oid, p in positions.items()})

    def run(
        self,
        updates: Iterable[TraceRecord],
        queries: Sequence[RangeQuery] = (),
    ) -> RunResult:
        """Execute both streams in timestamp order; returns the I/O ledger.

        On equal timestamps the update is applied before the query runs (the
        tag slot below breaks the tie), so a query always observes the state
        as of its own instant.  With an update buffer, "applied" means
        "buffered": the pending batch is flushed before the query executes,
        so the observed state is identical either way.
        """
        stats = self.pager.stats
        metrics = self.metrics
        obs_on = metrics.enabled
        buffer = self.update_buffer
        durability = self.durability
        healing = self._healing
        buffer_stats_before = buffer.stats.copy() if buffer is not None else None
        # Live (mutable) counters: per-event deltas without per-event copies.
        update_live = stats.live(IOCategory.UPDATE)
        query_live = stats.live(IOCategory.QUERY)
        update_before = update_live.copy()
        query_before = query_live.copy()
        result = RunResult(kind=self.kind)
        run_t0 = perf_counter()

        # The tag slot orders updates before queries on equal timestamps; the
        # third slot is a tiebreaker so heapq.merge never compares the
        # (unorderable) event payloads.
        update_events = ((r.t, 0, i, r) for i, r in enumerate(updates))
        query_events = ((q.t, 1, i, q) for i, q in enumerate(queries))
        for t, tag, _seq, event in heapq.merge(update_events, query_events):
            if tag == 0:
                record: TraceRecord = event
                if obs_on:
                    event_t0 = perf_counter()
                    io_before = update_live.total
                with stats.category(IOCategory.UPDATE):
                    old = self.positions.get(record.oid)
                    if buffer is not None:
                        # put() writes the WAL record itself (before it
                        # acknowledges) when the buffer carries a log.
                        buffer.put(record.oid, old, record.point, t)
                        reason = buffer.flush_reason(t)
                        if reason is not None:
                            applied = buffer.flush(self.index, reason)
                            if durability is not None:
                                durability.note_applied(applied)
                    else:
                        if durability is not None:
                            if old is None:
                                durability.log_insert(record.oid, record.point, t)
                            else:
                                durability.log_update(
                                    record.oid, old, record.point, t
                                )
                        if old is None:
                            self.index.insert(record.oid, record.point, now=t)
                        else:
                            self.index.update(record.oid, old, record.point, now=t)
                        if durability is not None:
                            durability.note_applied(1)
                # A transition into CRITICAL force-drains pending updates:
                # the flag stays pending until there is actually something
                # to drain (transitions surface at flush boundaries, when
                # the buffer has just emptied), so the *next* buffered
                # update is applied immediately instead of waiting out a
                # full batch on a critically degraded index.
                if (
                    healing is not None
                    and buffer is not None
                    and len(buffer)
                    and healing.monitor.consume_critical_transition()
                ):
                    with stats.category(IOCategory.UPDATE):
                        applied = buffer.flush(self.index, "critical")
                    if durability is not None:
                        durability.note_applied(applied)
                # Checkpoints fire only at quiescent points: nothing is
                # pending here unless the buffer chose not to flush yet.
                if durability is not None and (buffer is None or not len(buffer)):
                    durability.maybe_checkpoint()
                if healing is not None and (buffer is None or not len(buffer)):
                    healing.checkpoint_if_due(durability)
                # Normalize exactly like load(): positions must compare equal
                # across both ingestion paths (a list-vs-tuple mismatch would
                # make the baselines' delete-by-old-point miss).
                self.positions[record.oid] = tuple(record.point)
                result.n_updates += 1
                if obs_on:
                    metrics.observe(
                        "driver.update.latency_s", perf_counter() - event_t0
                    )
                    metrics.observe(
                        "driver.update.ios", update_live.total - io_before
                    )
            else:
                query: RangeQuery = event
                if obs_on:
                    event_t0 = perf_counter()
                # Read-your-writes: drain the pending batch (charged as
                # update I/O -- it is deferred update work) before serving.
                if buffer is not None and len(buffer):
                    with stats.category(IOCategory.UPDATE):
                        applied = buffer.flush(self.index, "query")
                    if durability is not None:
                        durability.note_applied(applied)
                        durability.maybe_checkpoint()
                if healing is not None and (buffer is None or not len(buffer)):
                    healing.checkpoint_if_due(durability)
                if obs_on:
                    io_before = query_live.total
                with stats.category(IOCategory.QUERY):
                    matches = self.index.range_search(query.rect)
                result.result_count += len(matches)
                result.n_queries += 1
                if obs_on:
                    metrics.observe(
                        "driver.query.latency_s", perf_counter() - event_t0
                    )
                    metrics.observe(
                        "driver.query.ios", query_live.total - io_before
                    )

        # End of stream: apply whatever is still pending so the index (and
        # any snapshot taken of it) reflects every consumed update.
        if buffer is not None and len(buffer):
            with stats.category(IOCategory.UPDATE):
                applied = buffer.flush(self.index, "final")
            if durability is not None:
                durability.note_applied(applied)
                durability.maybe_checkpoint()
        if healing is not None:
            healing.checkpoint_if_due(durability)

        result.wall_clock_s = perf_counter() - run_t0
        result.update_io = update_live.copy() - update_before
        result.query_io = query_live.copy() - query_before
        if buffer is not None and buffer_stats_before is not None:
            result.n_flushes = buffer.stats.flushes - buffer_stats_before.flushes
            result.n_coalesced = (
                buffer.stats.coalesced - buffer_stats_before.coalesced
            )
            result.n_applied = buffer.stats.applied - buffer_stats_before.applied
        if obs_on:
            metrics.inc(f"driver.{self.kind}.updates", result.n_updates)
            metrics.inc(f"driver.{self.kind}.queries", result.n_queries)
            metrics.record_duration(
                f"driver.{self.kind}.run_s", result.wall_clock_s
            )
        return result
