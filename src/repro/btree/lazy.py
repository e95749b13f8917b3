"""The lazy B+-tree: Figure 1's secondary hash index, transplanted to 1-D.

Exactly the paper's Section-2.1 move: keep a hash index on object id pointing
at the leaf page holding the object.  An update whose new key stays inside
the leaf's covered interval rewrites the leaf in place -- one bucket read,
one leaf read, one leaf write -- and the B+-tree structure does not change.
Updates that cross a separator fall back to a pointer-based delete plus a
fresh insert.
"""

from __future__ import annotations

from bisect import insort
from typing import List, Optional, Tuple

from repro.btree.bptree import BNode, BPlusTree
from repro.hashindex import HashIndex
from repro.storage.page import PageId
from repro.storage.pager import Pager


class LazyBPlusTree:
    """B+-tree with lazy updates through a secondary hash index on object id."""

    def __init__(
        self,
        pager: Pager,
        max_entries: int = 20,
        hash_index: Optional[HashIndex] = None,
    ) -> None:
        self.tree = BPlusTree(
            pager, max_entries=max_entries, on_entries_moved=self._entries_moved
        )
        self.hash = hash_index if hash_index is not None else HashIndex(pager)
        self.lazy_hits = 0
        self.relocations = 0

    def _entries_moved(self, pairs: List[Tuple[int, PageId]]) -> None:
        self.hash.set_many(pairs)

    @property
    def pager(self) -> Pager:
        return self.tree.pager

    def __len__(self) -> int:
        return len(self.tree)

    # -- operations ---------------------------------------------------------

    def insert(self, obj_id: int, key: float) -> PageId:
        pid = self.tree.insert(obj_id, key)
        self.hash.set(obj_id, pid)
        return pid

    def delete(self, obj_id: int) -> bool:
        pid, bucket = self.hash.lookup(obj_id)
        if pid is None:
            return False
        if self.tree.delete_at(obj_id, pid) is None:
            return False
        self.hash.repoint(bucket, obj_id, None)
        return True

    def update(
        self,
        obj_id: int,
        old_key: float,
        new_key: float,
        now: Optional[float] = None,
    ) -> PageId:
        """Move ``obj_id`` to ``new_key``; lazy while the leaf interval holds.

        ``old_key``/``now`` are accepted for interface parity and unused.
        """
        del old_key, now
        pid, bucket = self.hash.lookup(obj_id)
        if pid is None:
            raise KeyError(f"object {obj_id} is not indexed")
        leaf = self.tree.pager.read(pid)
        assert isinstance(leaf, BNode)
        index = leaf.find_entry(obj_id)
        if index is None:
            raise KeyError(f"stale hash pointer for object {obj_id}")
        composite = (float(new_key), obj_id)
        if leaf.covers(composite):
            leaf.entries.pop(index)
            insort(leaf.entries, composite)
            self.tree.pager.write(leaf)
            self.lazy_hits += 1
            return pid
        self.relocations += 1
        self.tree.delete_from_node(leaf, index)
        new_pid = self.tree.insert(obj_id, new_key)
        self.hash.repoint(bucket, obj_id, new_pid)
        return new_pid

    def range_search(self, low: float, high: float) -> List[Tuple[int, float]]:
        return self.tree.range_search(low, high)

    def search(self, key: float) -> List[int]:
        return self.tree.search(key)

    def __repr__(self) -> str:
        return (
            f"LazyBPlusTree(size={len(self.tree)}, "
            f"lazy_hits={self.lazy_hits}, relocations={self.relocations})"
        )
