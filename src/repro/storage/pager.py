"""The pager: a page store that charges one I/O per page touched.

The paper's performance metric is the number of page I/Os ("We do not
distinguish between sequential page I/Os and random page I/Os -- each page is
treated equally", Section 4.1).  The pager reproduces that accounting model:

* :meth:`Pager.read` fetches a page and charges **one read**;
* :meth:`Pager.write` persists a page and charges **one write**;
* :meth:`Pager.allocate` creates a page and charges **one write** (the block
  must reach disk);
* :meth:`Pager.free` releases a page without charge (a real system would
  merely flip a bit in a free-space map).

Structures that want to inspect pages without perturbing the experiment
(tests, invariant checkers, debug dumps) use :meth:`Pager.inspect`, which is
never charged.  In a :class:`PageEpoch` each page is charged at most once.
"""

from __future__ import annotations

from types import MethodType
from typing import Dict, Iterator, List, Optional, Tuple

from repro.storage.iostats import IOStats
from repro.storage.page import NO_PAGE, Page, PageId


class PageNotAllocatedError(KeyError):
    """Raised when a page id does not refer to a live page."""


class Pager:
    """An in-memory paged store with I/O accounting.

    Args:
        page_size: block size in bytes (``S_page``); informational -- entry
            capacities are enforced by the structures themselves via
            ``N_entry``-style limits.
        stats: the :class:`IOStats` instance to charge; a fresh one is
            created when omitted.
    """

    def __init__(self, page_size: int = 4096, stats: Optional[IOStats] = None) -> None:
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStats()
        self._pages: Dict[PageId, Page] = {}
        self._next_pid: PageId = 0
        self._freed = 0

    # -- lifecycle -------------------------------------------------------

    def allocate(self, page: Page) -> PageId:
        """Assign a fresh page id to ``page``, store it, and charge one write."""
        if page.pid != NO_PAGE:
            raise ValueError(f"page already allocated with pid={page.pid}")
        pid = self._next_pid
        self._next_pid += 1
        page.pid = pid
        self._pages[pid] = page
        self.stats._active.writes += 1
        return pid

    def free(self, pid: PageId) -> None:
        """Release a page.  Not charged (free-space-map bookkeeping)."""
        page = self._pages.pop(pid, None)
        if page is None:
            raise PageNotAllocatedError(pid)
        page.pid = NO_PAGE
        self._freed += 1

    # -- charged access --------------------------------------------------
    # Each charge is one increment on the ledger's resolved counter
    # (``IOStats._active``), the body of ``IOStats.record_read`` /
    # ``record_write`` without the call.

    def read(self, pid: PageId) -> Page:
        """Fetch a page; charges one read."""
        try:
            page = self._pages[pid]
        except KeyError:
            raise PageNotAllocatedError(pid) from None
        self.stats._active.reads += 1
        return page

    def write(self, page: Page) -> None:
        """Persist a (mutated) page; charges one write."""
        # An unallocated page's ``NO_PAGE`` id is never a key.
        if page.pid not in self._pages:
            raise PageNotAllocatedError(page.pid)
        self.stats._active.writes += 1

    # -- uncharged access ------------------------------------------------

    def inspect(self, pid: PageId) -> Page:
        """Fetch a page without charging I/O (tests and invariant checks)."""
        try:
            return self._pages[pid]
        except KeyError:
            raise PageNotAllocatedError(pid) from None

    def contains(self, pid: PageId) -> bool:
        return pid in self._pages

    def iter_pids(self) -> Iterator[PageId]:
        return iter(tuple(self._pages.keys()))

    @property
    def page_count(self) -> int:
        """Number of live pages."""
        return len(self._pages)

    @property
    def next_pid(self) -> PageId:
        """The id the next :meth:`allocate` assigns."""
        return self._next_pid

    @property
    def freed_count(self) -> int:
        """Number of pages released over the pager's lifetime."""
        return self._freed

    def metrics_dict(self) -> Dict[str, object]:
        """Store telemetry (page counts + the per-category I/O ledger)."""
        return {
            "page_size": self.page_size,
            "page_count": self.page_count,
            "freed_count": self.freed_count,
            "io": self.stats.to_dict(),
        }

    def __repr__(self) -> str:
        return f"Pager(pages={self.page_count}, page_size={self.page_size})"


class PageEpoch:
    """``with PageEpoch(store):`` -- a block in which ``store`` charges each
    page at most one read and one write.

    ``read`` / ``write`` / ``allocate`` / ``free`` are rebound on the store
    object (a :class:`Pager`, a ``BufferPool``, or a wrapper whose calls are
    instance attributes) and restored on exit.  A page already read or
    allocated comes back with no second ``read``; ``write`` marks a page
    dirty, and each dirty page is written once on exit, on the error path
    too; freeing a dirty page charges its write first.  Those are the
    charges of a never-evicting ``BufferPool`` flushed on exit; a nested
    epoch on the same store charges nothing more.  The handle keeps
    ``held`` (page id -> page) and ``fetch`` (the store's own ``read``), so
    a caller that knows a page is not held may fetch and file it itself.
    """

    __slots__ = ("_store", "_own", "fetch", "held", "write", "_dirty", "_write",
                 "_allocate", "_free")

    def __init__(self, store: Pager) -> None:
        self._store = store

    def __enter__(self) -> "PageEpoch":
        store = self._store
        calls = self.fetch, self._write, self._allocate, self._free = (
            store.read, store.write, store.allocate, store.free
        )
        # A method bound to the store is its class's, uncovered on exit;
        # anything else is the store's own attribute, put back.  Not read
        # off ``vars(store)``: on CPython that turns the store's inline
        # attributes into a dict, and every later call on it slows.
        self._own: List[Tuple[str, object]] = []
        for name, call in zip(("read", "write", "allocate", "free"), calls):
            if type(call) is not MethodType or call.__self__ is not store:
                self._own.append((name, call))
        self.held: Dict[PageId, Page] = {}
        #: Dirty pages as keys, in first-write order: ``write`` is its
        #: ``setdefault``, one C call however often a page is written.
        self._dirty: Dict[Page, None] = {}
        store.write = self.write = self._dirty.setdefault
        store.read = self.read
        store.allocate = self.allocate
        store.free = self.free
        return self

    def __exit__(self, *exc_info: object) -> None:
        store = self._store
        del store.read, store.write, store.allocate, store.free
        for name, call in self._own:
            setattr(store, name, call)
        write = self._write
        for page in self._dirty:
            write(page)

    def read(self, pid: PageId) -> Page:
        page = self.held.get(pid)
        if page is None:
            page = self.held[pid] = self.fetch(pid)
        return page

    def allocate(self, page: Page) -> PageId:
        pid = self._allocate(page)
        self.held[pid] = page
        return pid

    def free(self, pid: PageId) -> None:
        page = self._store.inspect(pid)
        if page in self._dirty:
            del self._dirty[page]
            self._write(page)
        self.held.pop(pid, None)
        self._free(pid)
