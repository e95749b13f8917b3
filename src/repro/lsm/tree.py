"""The LSM-R-tree: memtable + immutable runs + size-tiered compaction.

Write path: every insert/update lands in the coalescing
:class:`~repro.engine.buffer.UpdateBuffer` memtable (uncharged main memory,
optionally WAL-backed, kept in arrival order) and in the set of live
oids, so a put is a slot write plus a set insert and a liveness test is a
set lookup, not a walk over the runs.  When the memtable reaches
``memtable_size`` distinct objects (tested inline: the policy has no
horizon) it drains, as one oid column and one coordinate column, into a
fresh STR-packed immutable run.  Per-update cost is therefore O(memtable)
amortized -- independent of how many objects the index holds or how many
runs it has -- which is the whole point under update-dominant traffic.

Read path: queries fan out newest-component-first (memtable, then runs
newest to oldest).  A version found in run *i* counts only if **no newer
component mentions the oid** -- a ``seen``-set alone would be wrong: an
object whose newer position moved *outside* the query rectangle never
enters the result set, so its stale in-rect version in an older run would
leak through.  The membership probe (a bisect on the run's sorted oid
columns) is uncharged; the run tree pages a query touches are charged
normally, and the number of runs probed is the query's read amplification
(bounded by compaction).

Compaction: size-tiered.  Runs whose sizes fall in the same ratio tier
merge once ``size_ratio`` of them accumulate; a hard ``max_runs`` bound
merges the cheapest adjacent pair when tiering alone leaves too many runs.
Merges take age-contiguous windows only (merging around a surviving middle
run would reorder versions).  ``compact_step()`` is synchronous and
deterministic -- tests and the single-writer serve loop decide when
compaction work happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.geometry import Point, Rect
from repro.engine.buffer import (
    FlushPolicy,
    PendingUpdate,
    UpdateBuffer,
    UpdateLog,
)
from repro.engine.protocol import PageStore, position_of
from repro.lsm.run import Run, as_column, build_run
from repro.obs.metrics import get_registry
from repro.storage.page import NO_PAGE, PageId


@dataclass(frozen=True)
class LSMConfig:
    """Compaction and memtable knobs.

    Args:
        memtable_size: distinct pending objects that trigger a flush.
        size_ratio: tier width and trigger -- runs sized within one
            ratio-power of each other share a tier, and a tier compacts
            once it holds this many runs.
        max_runs: hard read-amplification bound; exceeding it forces the
            cheapest adjacent merge even when no tier has tripped.
        run_fill: STR packing fill factor for run trees (runs are
            immutable, so they pack dense).
        auto_compact: run the compactor to quiescence after every flush;
            disable for externally stepped (deterministic) compaction.
    """

    memtable_size: int = 256
    size_ratio: int = 4
    max_runs: int = 8
    run_fill: float = 0.9
    auto_compact: bool = True

    def __post_init__(self) -> None:
        if self.memtable_size < 1:
            raise ValueError("memtable_size must be >= 1")
        if self.size_ratio < 2:
            raise ValueError("size_ratio must be >= 2")
        if self.max_runs < 2:
            raise ValueError("max_runs must be >= 2")
        if not 0.0 < self.run_fill <= 1.0:
            raise ValueError("run_fill must be in (0, 1]")


@dataclass
class CompactionStats:
    """Lifetime compaction tallies (monotone)."""

    compactions: int = 0
    runs_merged: int = 0
    entries_rewritten: int = 0
    pages_rewritten: int = 0
    bytes_rewritten: int = 0
    tombstones_dropped: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "compactions": self.compactions,
            "runs_merged": self.runs_merged,
            "entries_rewritten": self.entries_rewritten,
            "pages_rewritten": self.pages_rewritten,
            "bytes_rewritten": self.bytes_rewritten,
            "tombstones_dropped": self.tombstones_dropped,
        }


class _RunSink:
    """Flush target: takes the memtable batch as columns instead of applying it.

    ``UpdateBuffer.flush`` hands an index exposing ``apply_batch`` the whole
    batch in one call; the LSM does not apply updates in place -- it
    bulk-loads them into a fresh run -- so the sink turns the coalesced
    batch into the oid-ascending columns :func:`build_run` takes.
    """

    def __init__(self) -> None:
        self.oids = np.empty(0, dtype=np.int64)
        self.coords = np.empty((0, 0))

    def apply_batch(self, batch: Sequence[PendingUpdate]) -> int:
        oids = np.fromiter((u.oid for u in batch), np.int64, len(batch))
        order = np.argsort(oids)  # one pending update per oid: no ties
        self.oids = oids[order]
        self.coords = np.array([u.point for u in batch], dtype=np.float64)[order]
        return len(batch)


class LSMRTree:
    """A :class:`~repro.engine.protocol.SpatialIndex` with flat update cost.

    Args:
        pager: shared page store; every run tree allocates from it, so one
            ledger carries the whole index.
        max_entries: run-tree fan-out (same meaning as the other kinds).
        split: run-tree split policy (only exercised by STR packing's
            bookkeeping; runs never split after construction).
        config: memtable/compaction knobs.
        wal: optional write-ahead log for the memtable -- updates are
            logged before they are acknowledged, exactly like the engine's
            batched execution path.
    """

    def __init__(
        self,
        pager: PageStore,
        *,
        max_entries: int = 20,
        split: str = "quadratic",
        config: Optional[LSMConfig] = None,
        wal: Optional[UpdateLog] = None,
    ) -> None:
        self._pager = pager
        self.max_entries = max_entries
        self.split_policy = split
        self.config = config if config is not None else LSMConfig()
        self.memtable = UpdateBuffer(
            FlushPolicy(batch_size=self.config.memtable_size), wal=wal
        )
        #: Oids deleted since the last flush; a flush turns them into the
        #: new run's tombstones.  Disjoint from the memtable's pending set
        #: by construction (a delete drops the pending entry, an upsert
        #: clears the death mark).
        self._mem_dead: set = set()
        #: Immutable runs, oldest first; queries walk it in reverse.
        self._runs: List[Run] = []
        #: Every live oid: uncharged main-memory bookkeeping, like the
        #: runs' side tables.  An upsert adds, a delete discards.
        self._live: Set[int] = set()
        self._next_seq = 0
        self.compaction = CompactionStats()
        self.flushes = 0
        self.queries = 0
        self.query_run_probes = 0

    # -- protocol surface ---------------------------------------------------

    @property
    def pager(self) -> PageStore:
        return self._pager

    def __len__(self) -> int:
        return len(self._live)

    @property
    def height(self) -> int:
        """Max run-tree height (the memtable is flat main memory)."""
        return max((run.tree.height for run in self._runs), default=0)

    @property
    def runs(self) -> Tuple[Run, ...]:
        """The immutable runs, oldest first (read-only view)."""
        return tuple(self._runs)

    @property
    def run_count(self) -> int:
        return len(self._runs)

    def insert(
        self, obj_id: int, position: Sequence[float], now: Optional[float] = None
    ) -> PageId:
        return self._upsert(obj_id, None, position, now)

    def update(
        self,
        obj_id: int,
        old_position: Sequence[float],
        new_position: Sequence[float],
        now: Optional[float] = None,
    ) -> PageId:
        return self._upsert(obj_id, old_position, new_position, now)

    def _upsert(
        self,
        obj_id: int,
        old_position: Optional[Sequence[float]],
        position: Sequence[float],
        now: Optional[float],
    ) -> PageId:
        point = position_of(position)
        t = 0.0 if now is None else float(now)
        self.memtable.put(obj_id, old_position, point, t)
        self._live.add(obj_id)
        self._mem_dead.discard(obj_id)
        # The memtable's policy is size-only (no horizon), so this is the
        # whole flush test.
        if len(self.memtable) >= self.config.memtable_size:
            self.flush(reason="size")
        return NO_PAGE

    def delete(
        self,
        obj_id: int,
        old_position: Optional[Sequence[float]] = None,
        now: Optional[float] = None,
    ) -> bool:
        """Out-of-place delete: drop any pending version, mark a tombstone."""
        del old_position, now
        if obj_id not in self._live:
            return False
        self._live.remove(obj_id)
        self.memtable.drop(obj_id)
        # A tombstone is only worth flushing if some run still mentions the
        # oid; a purely-pending object dies entirely in memory.
        if any(run.mentions(obj_id) for run in self._runs):
            self._mem_dead.add(obj_id)
        return True

    def range_search(self, rect: Rect) -> List[Tuple[int, Point]]:
        """Fan out newest-first; each oid resolves to its newest version.

        An older-run hit survives only if *no newer component mentions the
        oid* -- the newer version may lie outside ``rect``, so presence in
        the newer run's own result set cannot be the test.
        """
        results: Dict[int, Point] = {}
        lo, hi = rect.lo, rect.hi
        if len(lo) == 2:
            # Rect.contains_point's 2-D comparisons, without a call per point.
            lo0, lo1 = lo
            hi0, hi1 = hi
            for pending in self.memtable.iter_pending():
                point = pending.point
                if lo0 <= point[0] <= hi0 and lo1 <= point[1] <= hi1:
                    results[pending.oid] = point
        else:
            for pending in self.memtable.iter_pending():
                if rect.contains_point(pending.point):
                    results[pending.oid] = pending.point
        runs_probed = 0
        for i in range(len(self._runs) - 1, -1, -1):
            runs_probed += 1
            for oid, point in self._runs[i].tree.range_search(rect):
                if oid in results:
                    continue
                if self._superseded(oid, i):
                    continue
                results[oid] = point
        self._note_query(runs_probed)
        return list(results.items())

    def nearest(
        self, point: Sequence[float], k: int = 1
    ) -> List[Tuple[float, int, Point]]:
        """The ``k`` nearest live objects as (distance, id, point).

        Each component contributes its own top-``k`` *live* candidates
        (per-run best-first search with a doubling fetch size until ``k``
        unsuppressed survivors or exhaustion), then the union is merged --
        any global winner is necessarily a within-component winner.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        target = position_of(point)
        candidates: List[Tuple[float, int, Point]] = []
        for pending in self.memtable.iter_pending():
            candidates.append(
                (math.dist(target, pending.point), pending.oid, pending.point)
            )
        runs_probed = 0
        for i in range(len(self._runs) - 1, -1, -1):
            run = self._runs[i]
            if not len(run):
                continue
            runs_probed += 1
            fetch = k
            while True:
                found = run.tree.nearest(target, fetch)
                live = [
                    (dist, oid, pt)
                    for dist, oid, pt in found
                    if not self._superseded(oid, i)
                ]
                if len(live) >= k or len(found) < fetch:
                    break
                fetch *= 2
            candidates.extend(live[:k])
        self._note_query(runs_probed)
        candidates.sort(key=lambda c: (c[0], c[1]))
        return candidates[:k]

    # -- membership resolution ----------------------------------------------

    def _superseded(self, oid: int, run_index: int) -> bool:
        """Does any component newer than ``self._runs[run_index]`` mention
        ``oid`` (newer live version or tombstone)?"""
        if oid in self._mem_dead or self.memtable.pending_for(oid) is not None:
            return True
        for j in range(len(self._runs) - 1, run_index, -1):
            if self._runs[j].mentions(oid):
                return True
        return False

    def iter_objects(self) -> Iterator[Tuple[int, Point]]:
        """Every live (oid, newest position); uncharged (diagnostics)."""
        seen = set(self._mem_dead)
        for pending in self.memtable.iter_pending():
            seen.add(pending.oid)
            yield pending.oid, pending.point
        for run in reversed(self._runs):
            for oid, point in run.tree.iter_objects():
                if oid not in seen:
                    yield oid, point
            seen.update(run.oids)
            seen.update(run.tombstones)

    # -- flush ---------------------------------------------------------------

    def flush(self, reason: str = "manual") -> int:
        """Drain the memtable into a fresh immutable run.

        Charged under the caller's active I/O category -- the driver
        flushes inside its UPDATE scope, loads inside BUILD -- so flush
        cost is attributed exactly like the in-place kinds' update cost.
        """
        if not len(self.memtable) and not self._mem_dead:
            return 0
        registry = get_registry()
        timer = (
            registry.timer("lsm.flush.time") if registry.enabled else None
        )
        with timer if timer is not None else _NULL_CTX:
            sink = _RunSink()
            applied = self.memtable.flush(sink, reason)
            tombstones = np.array(
                sorted(
                    oid
                    for oid in self._mem_dead
                    if any(run.mentions(oid) for run in self._runs)
                ),
                dtype=np.int64,
            )
            self._mem_dead.clear()
            if len(sink.oids) or len(tombstones):
                run = build_run(
                    self._pager,
                    sink.oids,
                    sink.coords,
                    tombstones,
                    self._next_seq,
                    max_entries=self.max_entries,
                    split=self.split_policy,
                    fill=self.config.run_fill,
                )
                self._next_seq += 1
                self._runs.append(run)
            self.flushes += 1
        if registry.enabled:
            registry.inc("lsm.flush.count")
            registry.inc("lsm.flush.entries", len(sink.oids))
        if self.config.auto_compact:
            self.maybe_compact()
        return applied

    # -- compaction ----------------------------------------------------------

    def _tier(self, size: int) -> int:
        """The size tier of a run: how many ratio-powers of the memtable
        capacity its entry count spans (integer arithmetic, deterministic)."""
        tier = 0
        threshold = max(1, self.config.memtable_size) * self.config.size_ratio
        while size >= threshold:
            tier += 1
            threshold *= self.config.size_ratio
        return tier

    def compaction_needed(self) -> Optional[Tuple[int, int]]:
        """The next merge window ``[start, end)`` in ``self._runs``, or None.

        Windows are age-contiguous: merging around a surviving middle run
        would let an old version leapfrog a newer one.  The lowest tripped
        tier merges first (cheapest work, fastest run-count relief); the
        ``max_runs`` bound falls back to the cheapest adjacent pair.
        """
        runs = self._runs
        if len(runs) < 2:
            return None
        tiers = [self._tier(run.size) for run in runs]
        best: Optional[Tuple[int, int]] = None
        i = 0
        while i < len(runs):
            j = i
            while j < len(runs) and tiers[j] == tiers[i]:
                j += 1
            if j - i >= self.config.size_ratio and (
                best is None or tiers[i] < tiers[best[0]]
            ):
                best = (i, j)
            i = j
        if best is not None:
            return best
        if len(runs) > self.config.max_runs:
            cheapest = min(
                range(len(runs) - 1),
                key=lambda idx: runs[idx].size + runs[idx + 1].size,
            )
            return (cheapest, cheapest + 2)
        return None

    def compact_step(self) -> Optional[Dict[str, int]]:
        """Perform one merge if triggered; returns its stats or None.

        Synchronous and deterministic: callers (the driver, the serve
        loop's single writer, tests) decide when compaction work happens.
        """
        window = self.compaction_needed()
        if window is None:
            return None
        start, end = window
        registry = get_registry()
        timer = (
            registry.timer("lsm.compaction.time") if registry.enabled else None
        )
        with timer if timer is not None else _NULL_CTX:
            info = self._merge(start, end)
        if registry.enabled:
            registry.inc("lsm.compaction.count")
            registry.inc("lsm.compaction.runs_merged", info["runs_merged"])
            registry.inc(
                "lsm.compaction.bytes_rewritten", info["bytes_rewritten"]
            )
        return info

    def maybe_compact(self) -> int:
        """Run :meth:`compact_step` to quiescence; returns steps taken."""
        steps = 0
        while self.compact_step() is not None:
            steps += 1
        return steps

    def _mentions(self, runs: Sequence[Run]) -> np.ndarray:
        """Every oid ``runs`` mention, live or tombstoned (unsorted column)."""
        tables = [t for run in runs for t in (run.oids, run.tombstones)]
        return np.concatenate([_NO_OIDS] + [as_column(t) for t in tables])

    def _merge(self, start: int, end: int) -> Dict[str, int]:
        window = self._runs[start:end]
        # One row per mention, newest run first.  ``rows`` points a live
        # mention at its coordinates and marks a tombstone with -1.
        keys: List[np.ndarray] = []
        rows: List[np.ndarray] = []
        positions: List[np.ndarray] = []
        live_rows = 0
        for run in reversed(window):
            oids, coords = run.read_columns()  # charged reads
            tombs = as_column(run.tombstones)
            keys += [oids, tombs]
            rows += [
                np.arange(live_rows, live_rows + len(oids)),
                np.full(len(tombs), -1),
            ]
            if len(oids):
                positions.append(coords)
                live_rows += len(oids)
        # First mention wins: unique() keeps each oid's first index, sorted
        # by oid -- the order a run's columns are built in.
        mentioned, first = np.unique(np.concatenate(keys), return_index=True)
        row = np.concatenate(rows)[first]
        # Versions any newer-than-window component supersedes are garbage.
        newer = np.concatenate(
            [
                self._mentions(self._runs[end:]),
                np.fromiter(self._mem_dead, np.int64, len(self._mem_dead)),
                np.fromiter(
                    (u.oid for u in self.memtable.iter_pending()), np.int64
                ),
            ]
        )
        current = ~np.isin(mentioned, newer)
        live = current & (row >= 0)
        oids = mentioned[live]
        coords = (
            np.concatenate(positions)[row[live]] if len(oids) else np.empty((0, 0))
        )
        # Tombstones survive only while an *older* run still holds a
        # version they must suppress; at the bottom of the tree they drop.
        dead = row < 0
        tombstones = mentioned[
            dead & current & np.isin(mentioned, self._mentions(self._runs[:start]))
        ]
        dropped_tombstones = int(dead.sum()) - len(tombstones)
        replacement: List[Run] = []
        pages_written = 0
        if len(oids) or len(tombstones):
            merged = build_run(
                self._pager,
                oids,
                coords,
                tombstones,
                self._next_seq,
                max_entries=self.max_entries,
                split=self.split_policy,
                fill=self.config.run_fill,
            )
            self._next_seq += 1
            pages_written = merged.page_count()
            replacement = [merged]
        for run in window:
            run.free_pages()
        self._runs[start:end] = replacement
        page_size = self._pager.page_size
        stats = self.compaction
        stats.compactions += 1
        stats.runs_merged += len(window)
        stats.entries_rewritten += len(oids)
        stats.pages_rewritten += pages_written
        stats.bytes_rewritten += pages_written * page_size
        stats.tombstones_dropped += dropped_tombstones
        return {
            "runs_merged": len(window),
            "entries": len(oids),
            "tombstones": len(tombstones),
            "pages_written": pages_written,
            "bytes_rewritten": pages_written * page_size,
            "run_count": len(self._runs),
        }

    # -- diagnostics ---------------------------------------------------------

    def _note_query(self, runs_probed: int) -> None:
        self.queries += 1
        self.query_run_probes += runs_probed
        registry = get_registry()
        if registry.enabled:
            amplification = runs_probed + (1 if len(self.memtable) else 0)
            registry.observe("lsm.query.read_amplification", amplification)

    @property
    def read_amplification(self) -> float:
        """Mean number of runs probed per query over the index lifetime."""
        return self.query_run_probes / self.queries if self.queries else 0.0

    def collect_tree_stats(self) -> Dict[str, object]:
        """The ``tree_stats`` probe: per-run shapes plus LSM counters."""
        from repro.obs.treestats import tree_stats

        per_run = [tree_stats(run.tree) for run in self._runs]
        flush_stats = self.memtable.stats.to_dict()
        return {
            "kind": "lsm",
            "size": len(self._live),
            "height": self.height,
            "node_count": sum(int(s.get("node_count", 0)) for s in per_run),
            "leaf_count": sum(int(s.get("leaf_count", 0)) for s in per_run),
            "entry_count": sum(int(s.get("entry_count", 0)) for s in per_run),
            "max_entries": self.max_entries,
            "n_runs": len(self._runs),
            "run_sizes": [len(run) for run in self._runs],
            "run_tombstones": [len(run.tombstones) for run in self._runs],
            "memtable_pending": len(self.memtable),
            "memtable_dead": len(self._mem_dead),
            "flush": flush_stats,
            "flushes": self.flushes,
            "compaction": self.compaction.to_dict(),
            "queries": self.queries,
            "read_amplification": self.read_amplification,
            "runs": per_run,
        }

    def __repr__(self) -> str:
        return (
            f"LSMRTree(live={len(self._live)}, runs={len(self._runs)}, "
            f"memtable={len(self.memtable)}, flushes={self.flushes}, "
            f"compactions={self.compaction.compactions})"
        )


_NO_OIDS = np.empty(0, dtype=np.int64)


class _NullCtx:
    def __enter__(self) -> "_NullCtx":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_CTX = _NullCtx()
