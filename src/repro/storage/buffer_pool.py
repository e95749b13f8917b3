"""An LRU buffer pool layered over the pager.

The paper charges every page access as an I/O (no caching), and the main
experiments follow suit.  The buffer pool exists for the *ablation* bench
(``benchmarks/bench_ablation.py``): it shows how much of the CT-R-tree's
advantage survives when the system has a cache, i.e. that the advantage is
structural rather than an artifact of cache-less accounting.

The pool exposes the same interface as :class:`~repro.storage.pager.Pager`,
so any index can be constructed over either.  Charging model:

* ``read`` of a cached page is free; a miss charges one read and may evict
  the least-recently-used frame (charging one write if that frame is dirty);
* ``write`` marks the frame dirty without charge; the write is charged when
  the frame is evicted, flushed, or its page is freed.  Writing a page that
  is **not** resident first charges one read (write-back caches are
  read-modify-write: the frame must be fetched before it can be mutated);
* ``allocate`` charges one write (the new block reaches disk) and caches the
  page clean;
* ``flush`` writes back every dirty frame;
* ``free`` of a dirty frame charges the deferred write-back before the page
  is released -- the cache-less :class:`~repro.storage.pager.Pager` would
  have charged those mutations immediately, so dropping them silently would
  make pooled runs look cheaper than they are.

The pool counts ``hits``/``misses``/``evictions``/``dirty_writebacks`` and
exposes them via :meth:`BufferPool.metrics_dict` for ``--metrics-out`` and
the bench files.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

from repro.storage.iostats import IOStats
from repro.storage.page import Page, PageId
from repro.storage.pager import Pager


class BufferPool:
    """LRU page cache with write-back semantics.

    Args:
        pager: the underlying page store.
        capacity: number of frames (pages) the pool may hold.
    """

    def __init__(self, pager: Pager, capacity: int = 128) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._pager = pager
        self.capacity = capacity
        # pid -> dirty flag; ordered by recency (last = most recent).
        self._frames: "OrderedDict[PageId, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_writebacks = 0

    # -- pager-compatible interface ---------------------------------------

    @property
    def stats(self) -> IOStats:
        return self._pager.stats

    @property
    def page_size(self) -> int:
        return self._pager.page_size

    @property
    def page_count(self) -> int:
        return self._pager.page_count

    @property
    def next_pid(self) -> PageId:
        return self._pager.next_pid

    def allocate(self, page: Page) -> PageId:
        pid = self._pager.allocate(page)
        self._install(pid, dirty=False)
        return pid

    def free(self, pid: PageId) -> None:
        dirty = self._frames.pop(pid, False)
        if dirty and self._pager.contains(pid):
            # The deferred write the frame was carrying comes due now: the
            # cache-less pager charged it at mutation time, so discarding it
            # here would undercount pooled runs relative to the paper model.
            self._pager.write(self._pager.inspect(pid))
            self.dirty_writebacks += 1
        self._pager.free(pid)

    def read(self, pid: PageId) -> Page:
        if pid in self._frames:
            self.hits += 1
            self._frames.move_to_end(pid)
            return self._pager.inspect(pid)
        self.misses += 1
        page = self._pager.read(pid)
        self._install(pid, dirty=False)
        return page

    def write(self, page: Page) -> None:
        pid = page.pid
        if pid in self._frames:
            self._frames[pid] = True
            self._frames.move_to_end(pid)
        else:
            # Write miss: a write-back cache mutates frames, not disk, so a
            # non-resident page must be fetched (one charged read) before it
            # can be dirtied -- installing it dirty for free would let a
            # pooled run skip reads the pager model charges.
            self.misses += 1
            self._pager.read(pid)
            self._install(pid, dirty=True)

    def inspect(self, pid: PageId) -> Page:
        return self._pager.inspect(pid)

    def contains(self, pid: PageId) -> bool:
        return self._pager.contains(pid)

    def iter_pids(self) -> Iterator[PageId]:
        return self._pager.iter_pids()

    # -- pool management ---------------------------------------------------

    def flush(self) -> int:
        """Write back all dirty frames; returns the number written."""
        flushed = 0
        for pid, dirty in list(self._frames.items()):
            if dirty and self._pager.contains(pid):
                self._pager.write(self._pager.inspect(pid))
                self._frames[pid] = False
                self.dirty_writebacks += 1
                flushed += 1
        return flushed

    def _install(self, pid: PageId, dirty: bool) -> None:
        self._frames[pid] = dirty
        self._frames.move_to_end(pid)
        while len(self._frames) > self.capacity:
            victim, victim_dirty = self._frames.popitem(last=False)
            self.evictions += 1
            if victim_dirty and self._pager.contains(victim):
                self._pager.write(self._pager.inspect(victim))
                self.dirty_writebacks += 1

    @property
    def hit_rate(self) -> float:
        accesses = self.hits + self.misses
        return self.hits / accesses if accesses else 0.0

    def metrics_dict(self) -> dict:
        """Pool telemetry as JSON-ready plain data."""
        return {
            "capacity": self.capacity,
            "frames": len(self._frames),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "dirty_writebacks": self.dirty_writebacks,
        }

    def __repr__(self) -> str:
        return (
            f"BufferPool(capacity={self.capacity}, frames={len(self._frames)}, "
            f"hit_rate={self.hit_rate:.2f})"
        )
