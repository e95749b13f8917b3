"""The secondary hash index: object id -> data-page pointer.

Paper, Section 2.1: "in conjunction with the R-tree, we maintain a secondary
hash index on id for handling updates ... simply an array of pointers to leaf
pages of the R-tree with one entry for each object ordered by id.  Thus, all
the updates where the new location is in the same MBR as the old location can
be accomplished with a constant number of I/Os."

Because entries are ordered by id, the structure is direct-addressed: entry
``i`` lives at slot ``i % entries_per_bucket`` of bucket page
``i // entries_per_bucket``.  A lookup therefore costs exactly one page read
and an update one read plus one write; no directory or overflow chains are
needed.  An operation that reads an object's bucket and then changes its
entry (a relocating update, a delete) pays that one read and one write by
taking the page from :meth:`HashIndex.lookup` to :meth:`HashIndex.repoint`.
Both are per-*page* costs: :meth:`HashIndex.get_many` and
:meth:`HashIndex.set_many` serve any number of ids that share a bucket with
one read (plus one write) of it.  Each entry is an (id, pointer) pair -- 16
bytes at the paper's geometry, giving 256 entries per 4096-byte page, so the
paper's 8 MB budget (S_hash) covers half a million objects.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.storage.page import Page, PageId
from repro.storage.pager import Pager

#: Bytes per (object id, page pointer) entry.
ENTRY_BYTES = 16


class BucketPage(Page):
    """One page of the pointer array: slot -> data-page id (or None)."""

    __slots__ = ("slots",)

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.slots: List[Optional[PageId]] = [None] * capacity


class HashIndex:
    """Direct-addressed secondary index over dense integer object ids.

    Bucket pages are allocated lazily, so sparse id spaces only pay for the
    buckets they touch.

    Args:
        pager: page store to charge I/O against.
        entries_per_bucket: entries per bucket page; defaults to
            ``page_size // 16`` per the paper's entry size.
    """

    def __init__(self, pager: Pager, entries_per_bucket: Optional[int] = None) -> None:
        self._pager = pager
        if entries_per_bucket is None:
            entries_per_bucket = max(1, pager.page_size // ENTRY_BYTES)
        if entries_per_bucket < 1:
            raise ValueError("entries_per_bucket must be at least 1")
        self.entries_per_bucket = entries_per_bucket
        # bucket number -> bucket page id (directory; pinned in memory like a
        # hash function, so not charged).
        self._buckets: Dict[int, PageId] = {}
        self._count = 0

    # -- helpers ---------------------------------------------------------

    def _locate(self, obj_id: int) -> Tuple[int, int]:
        if obj_id < 0:
            raise ValueError(f"object ids must be non-negative, got {obj_id}")
        return divmod(obj_id, self.entries_per_bucket)

    def _bucket_for_write(self, bucket_no: int) -> BucketPage:
        """Fetch (charging a read) or lazily create the bucket page."""
        pid = self._buckets.get(bucket_no)
        if pid is None:
            page = BucketPage(self.entries_per_bucket)
            self._pager.allocate(page)
            self._buckets[bucket_no] = page.pid
            return page
        page = self._pager.read(pid)
        assert isinstance(page, BucketPage)
        return page

    # -- charged operations ----------------------------------------------

    def get(self, obj_id: int) -> Optional[PageId]:
        """The data-page pointer for ``obj_id``; one page read."""
        return self.lookup(obj_id)[0]

    def lookup(self, obj_id: int) -> Tuple[Optional[PageId], Optional[BucketPage]]:
        """The pointer for ``obj_id`` and the bucket page that holds it; one
        page read, as :meth:`get`.

        The bucket comes back so that the operation which read it can change
        the entry through :meth:`repoint` without reading the page again.
        An unallocated bucket costs nothing and yields ``(None, None)``.
        """
        if obj_id < 0:
            raise ValueError(f"object ids must be non-negative, got {obj_id}")
        per_bucket = self.entries_per_bucket
        pid = self._buckets.get(obj_id // per_bucket)
        if pid is None:
            return None, None
        # Every update's first page access: the directory holds only
        # bucket pages, so no isinstance check is spent on it.
        page = self._pager.read(pid)
        return page.slots[obj_id % per_bucket], page

    def repoint(
        self, bucket: BucketPage, obj_id: int, data_pid: Optional[PageId]
    ) -> None:
        """Point ``obj_id`` at ``data_pid`` (``None`` clears the entry) in
        the ``bucket`` that :meth:`lookup` returned for it; one write, no
        read.

        Pass the page object :meth:`lookup` returned, not a copy: anything
        that repoints objects of the same bucket in between (a split's
        :meth:`set_many` during a re-insert) reads and mutates that same
        object, so this one write carries every change.
        """
        slots = bucket.slots
        slot = obj_id % self.entries_per_bucket
        if slots[slot] is None:
            if data_pid is not None:
                self._count += 1
        elif data_pid is None:
            self._count -= 1
        slots[slot] = data_pid
        self._pager.write(bucket)

    def get_many(self, obj_ids: Sequence[int]) -> List[Optional[PageId]]:
        """The pointers for ``obj_ids`` in request order, coalescing I/O per
        bucket page.

        The read-side twin of :meth:`set_many`: ids sharing a bucket cost one
        read total.  An unallocated bucket costs nothing and an unset slot
        yields ``None``.  Every id is validated before the first page is
        read.  In a lazy-R-tree's batch the store is in a ``PageEpoch``, so
        a later :meth:`set_many` of the batch finds these buckets held and
        pays only their one write.
        """
        per_bucket = self.entries_per_bucket
        by_bucket: Dict[int, List[int]] = {}
        for position, obj_id in enumerate(obj_ids):
            bucket_no = obj_id // per_bucket
            if bucket_no in by_bucket:
                by_bucket[bucket_no].append(position)
            elif bucket_no < 0:  # floor division: exactly the negative ids
                raise ValueError(f"object ids must be non-negative, got {obj_id}")
            else:
                by_bucket[bucket_no] = [position]
        pointers: List[Optional[PageId]] = [None] * len(obj_ids)
        directory = self._buckets
        read = self._pager.read
        for bucket_no, positions in by_bucket.items():
            pid = directory.get(bucket_no)
            if pid is None:
                continue
            page = read(pid)
            assert isinstance(page, BucketPage)
            slots = page.slots
            first_id = bucket_no * per_bucket
            for position in positions:
                pointers[position] = slots[obj_ids[position] - first_id]
        return pointers

    def set(self, obj_id: int, data_pid: PageId) -> None:
        """Point ``obj_id`` at ``data_pid``; one read plus one write."""
        if obj_id < 0:
            raise ValueError(f"object ids must be non-negative, got {obj_id}")
        per_bucket = self.entries_per_bucket
        page = self._bucket_for_write(obj_id // per_bucket)
        slots = page.slots
        slot = obj_id % per_bucket
        if slots[slot] is None:
            self._count += 1
        slots[slot] = data_pid
        self._pager.write(page)

    def set_many(self, entries: Iterable[Tuple[int, PageId]]) -> None:
        """Repoint several objects, coalescing I/O per bucket page.

        Used when a node split relocates a batch of objects to a new page:
        entries landing in the same bucket cost one read and one write total.
        """
        by_bucket: Dict[int, List[Tuple[int, PageId]]] = {}
        for obj_id, data_pid in entries:
            bucket_no, slot = self._locate(obj_id)
            by_bucket.setdefault(bucket_no, []).append((slot, data_pid))
        for bucket_no, updates in by_bucket.items():
            page = self._bucket_for_write(bucket_no)
            for slot, data_pid in updates:
                if page.slots[slot] is None:
                    self._count += 1
                page.slots[slot] = data_pid
            self._pager.write(page)

    def remove(self, obj_id: int) -> bool:
        """Clear the entry ("set the hash index entry for o to null", 3.2);
        one read, plus one write when there was an entry to clear."""
        pid, bucket = self.lookup(obj_id)
        if pid is None:
            return False
        self.repoint(bucket, obj_id, None)
        return True

    # -- uncharged introspection -------------------------------------------

    def peek(self, obj_id: int) -> Optional[PageId]:
        """Like :meth:`get` but free; for tests and invariant checks."""
        bucket_no, slot = self._locate(obj_id)
        pid = self._buckets.get(bucket_no)
        if pid is None:
            return None
        page = self._pager.inspect(pid)
        assert isinstance(page, BucketPage)
        return page.slots[slot]

    def __len__(self) -> int:
        return self._count

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    @property
    def size_bytes(self) -> int:
        """Disk footprint of the allocated bucket pages."""
        return self.bucket_count * self._pager.page_size

    def __repr__(self) -> str:
        return f"HashIndex(entries={self._count}, buckets={self.bucket_count})"
