"""A paged B+-tree over scalar keys.

The substrate for the change-tolerant extension study: objects are (id, key)
pairs where the key is a constantly-evolving scalar (a sensor reading).
Leaves hold sorted entries and are doubly linked for range scans; internal
nodes hold separators.  I/O is charged through the shared pager: one read
per node visited, one write per node mutated -- identical to the R-tree
family, so 1-D comparisons are apples-to-apples.

Two design notes:

* **Composite keys.**  Sensor readings collide (two sensors at 20.0 degC),
  and duplicate keys wreck separator invariants.  Internally every entry and
  separator is the composite ``(key, obj_id)`` -- totally ordered and unique
  -- while the public API speaks plain scalars.
* **Relaxed deletion.**  Like the lazy R-tree variants, an underfull node is
  tolerated; only an empty node is unlinked.  Every update is a delete +
  re-insert (the traditional cost the lazy/CT variants attack).

Each node mirrors its covered composite interval ``(low, high]`` as
uncharged metadata -- the 1-D analogue of the R-tree's ``mbr`` mirror --
which is what gives the lazy variant its "same interval" test.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import Callable, Iterator, List, Optional, Tuple

from repro.storage.page import NO_PAGE, Page, PageId
from repro.storage.pager import Pager

#: Composite key: (scalar key, object id) -- unique and totally ordered.
Composite = Tuple[float, int]

LOW_SENTINEL: Composite = (-math.inf, -1)
HIGH_SENTINEL: Composite = (math.inf, 1 << 62)

#: Callback fired when leaf entries move pages (splits), mirroring the
#: R-tree's hook so a secondary hash index can stay exact.
MovedCallback = Callable[[List[Tuple[int, PageId]]], None]


class BNode(Page):
    """One B+-tree node (leaf or internal)."""

    __slots__ = (
        "leaf",
        "entries",
        "keys",
        "children",
        "parent",
        "prev_leaf",
        "next_leaf",
        "low",
        "high",
    )

    def __init__(self, leaf: bool) -> None:
        super().__init__()
        self.leaf = leaf
        #: Leaf payload: sorted composites.
        self.entries: List[Composite] = []
        #: Internal payload: separator composites (len == len(children) - 1).
        self.keys: List[Composite] = []
        self.children: List[PageId] = []
        self.parent: PageId = NO_PAGE
        self.prev_leaf: PageId = NO_PAGE
        self.next_leaf: PageId = NO_PAGE
        #: Covered interval (low, high]; metadata mirror of the parent's
        #: separators (sentinels at the edges).
        self.low: Composite = LOW_SENTINEL
        self.high: Composite = HIGH_SENTINEL

    @property
    def is_root(self) -> bool:
        return self.parent == NO_PAGE

    def covers(self, composite: Composite) -> bool:
        return self.low < composite <= self.high

    def find_entry(self, obj_id: int) -> Optional[int]:
        for i, (_key, oid) in enumerate(self.entries):
            if oid == obj_id:
                return i
        return None

    def __repr__(self) -> str:
        kind = "leaf" if self.leaf else "internal"
        size = len(self.entries) if self.leaf else len(self.children)
        return f"BNode(pid={self.pid}, {kind}, size={size})"


class BPlusTree:
    """Disk-based B+-tree mapping scalar keys to object ids.

    Args:
        pager: shared page store.
        max_entries: leaf capacity and internal fan-out (``N_entry``).
        on_entries_moved: see :data:`MovedCallback`.
    """

    def __init__(
        self,
        pager: Pager,
        max_entries: int = 20,
        on_entries_moved: Optional[MovedCallback] = None,
    ) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self._pager = pager
        self.max_entries = max_entries
        self.on_entries_moved = on_entries_moved
        self._size = 0
        root = BNode(leaf=True)
        pager.allocate(root)
        self._root_pid = root.pid

    # -- properties --------------------------------------------------------

    @property
    def pager(self) -> Pager:
        return self._pager

    @property
    def root_pid(self) -> PageId:
        return self._root_pid

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        height = 1
        node = self._inspect(self._root_pid)
        while not node.leaf:
            height += 1
            node = self._inspect(node.children[0])
        return height

    # -- node access ---------------------------------------------------------

    def _read(self, pid: PageId) -> BNode:
        node = self._pager.read(pid)
        assert isinstance(node, BNode)
        return node

    def _inspect(self, pid: PageId) -> BNode:
        node = self._pager.inspect(pid)
        assert isinstance(node, BNode)
        return node

    def _descend(self, composite: Composite) -> List[BNode]:
        """Root-to-leaf path for a composite key (charged reads)."""
        node = self._read(self._root_pid)
        path = [node]
        while not node.leaf:
            index = bisect_left(node.keys, composite)
            node = self._read(node.children[index])
            path.append(node)
        return path

    # -- insertion ---------------------------------------------------------------

    def insert(self, obj_id: int, key: float) -> PageId:
        """Insert (key, obj_id); returns the leaf page id holding it."""
        composite = (float(key), obj_id)
        path = self._descend(composite)
        leaf = path[-1]
        insort(leaf.entries, composite)
        self._size += 1
        if len(leaf.entries) > self.max_entries:
            return self._split(path, obj_id)
        self._pager.write(leaf)
        return leaf.pid

    def _split(self, path: List[BNode], placed_oid: int) -> PageId:
        """Split the overfull tail of the path upward; returns the leaf pid
        that ended up holding ``placed_oid``."""
        placed_pid = NO_PAGE
        while path:
            node = path.pop()
            if node.leaf:
                mid = len(node.entries) // 2
                separator = node.entries[mid - 1]
                right = BNode(leaf=True)
                right.entries = node.entries[mid:]
                node.entries = node.entries[:mid]
                right.low, right.high = separator, node.high
                node.high = separator
                right.next_leaf = node.next_leaf
                right.prev_leaf = node.pid
                self._pager.allocate(right)
                if right.next_leaf != NO_PAGE:
                    old_next = self._read(right.next_leaf)
                    old_next.prev_leaf = right.pid
                    self._pager.write(old_next)
                node.next_leaf = right.pid
                self._pager.write(node)
                moved = [(oid, right.pid) for _k, oid in right.entries]
                if moved and self.on_entries_moved is not None:
                    self.on_entries_moved(moved)
                if placed_pid == NO_PAGE:
                    in_right = any(oid == placed_oid for _k, oid in right.entries)
                    placed_pid = right.pid if in_right else node.pid
            else:
                mid = len(node.children) // 2
                separator = node.keys[mid - 1]
                right = BNode(leaf=False)
                right.keys = node.keys[mid:]
                right.children = node.children[mid:]
                node.keys = node.keys[: mid - 1]
                node.children = node.children[:mid]
                right.low, right.high = separator, node.high
                node.high = separator
                self._pager.allocate(right)
                self._pager.write(node)
                for child_pid in right.children:
                    self._inspect(child_pid).parent = right.pid

            if path:
                parent = path[-1]
                index = parent.children.index(node.pid)
                parent.keys.insert(index, separator)
                parent.children.insert(index + 1, right.pid)
                right.parent = parent.pid
                if len(parent.children) <= self.max_entries:
                    self._pager.write(parent)
                    return placed_pid
                # else: continue the loop and split the parent too
            else:
                new_root = BNode(leaf=False)
                new_root.keys = [separator]
                new_root.children = [node.pid, right.pid]
                self._pager.allocate(new_root)
                node.parent = new_root.pid
                right.parent = new_root.pid
                self._root_pid = new_root.pid
                return placed_pid
        return placed_pid

    # -- deletion --------------------------------------------------------------

    def delete(self, obj_id: int, key: float) -> bool:
        """Remove (key, obj_id) by descending on the key (charged reads)."""
        composite = (float(key), obj_id)
        path = self._descend(composite)
        leaf = path[-1]
        index = bisect_left(leaf.entries, composite)
        if index >= len(leaf.entries) or leaf.entries[index] != composite:
            return False
        self._remove_from_leaf(leaf, index)
        return True

    def delete_at(self, obj_id: int, leaf_pid: PageId) -> Optional[float]:
        """Pointer-based deletion (the secondary-index shortcut); returns the
        removed key or None for a stale pointer."""
        if not self._pager.contains(leaf_pid):
            return None
        leaf = self._read(leaf_pid)
        if not leaf.leaf:
            return None
        index = leaf.find_entry(obj_id)
        if index is None:
            return None
        key = leaf.entries[index][0]
        self._remove_from_leaf(leaf, index)
        return key

    def delete_from_node(self, leaf: BNode, index: int) -> float:
        """Remove entry ``index`` from an already-read (pinned) leaf."""
        key = leaf.entries[index][0]
        self._remove_from_leaf(leaf, index)
        return key

    def _remove_from_leaf(self, leaf: BNode, index: int) -> None:
        leaf.entries.pop(index)
        self._size -= 1
        if leaf.entries or leaf.is_root:
            self._pager.write(leaf)
            return
        self._unlink_empty_leaf(leaf)

    def _unlink_empty_leaf(self, leaf: BNode) -> None:
        """Relaxed underflow: only empty nodes are removed.

        The chain splice only rewires pointers; the vacated key interval is
        redistributed by :meth:`_remove_from_parent` through the separator
        bookkeeping (the absorbing sibling is chosen by the *parent*, which
        is not always the chain neighbour)."""
        if leaf.prev_leaf != NO_PAGE:
            prev = self._read(leaf.prev_leaf)
            prev.next_leaf = leaf.next_leaf
            self._pager.write(prev)
        if leaf.next_leaf != NO_PAGE:
            nxt = self._read(leaf.next_leaf)
            nxt.prev_leaf = leaf.prev_leaf
            self._pager.write(nxt)
        self._remove_from_parent(leaf)

    def _remove_from_parent(self, node: BNode) -> None:
        parent_pid = node.parent
        vacated = (node.low, node.high)
        node_pid = node.pid  # free() resets the page's pid
        self._pager.free(node_pid)
        if parent_pid == NO_PAGE:
            # The tree emptied entirely: re-bootstrap a leaf root.
            root = BNode(leaf=True)
            self._pager.allocate(root)
            self._root_pid = root.pid
            return
        parent = self._read(parent_pid)
        index = parent.children.index(node_pid)
        parent.children.pop(index)
        if parent.keys:
            if index == 0:
                # The vacated low interval flows to the new first child.
                parent.keys.pop(0)
                self._widen_low(parent.children[0], vacated[0])
            else:
                parent.keys.pop(index - 1)
                self._widen_high(parent.children[index - 1], vacated[1])
        if not parent.children:
            self._remove_from_parent(parent)
            return
        self._pager.write(parent)
        self._collapse_root()

    def _widen_low(self, pid: PageId, new_low: Composite) -> None:
        """Push an interval's lower bound down the leftmost spine (metadata)."""
        node = self._inspect(pid)
        node.low = new_low
        if not node.leaf:
            self._widen_low(node.children[0], new_low)

    def _widen_high(self, pid: PageId, new_high: Composite) -> None:
        """Push an interval's upper bound down the rightmost spine (metadata)."""
        node = self._inspect(pid)
        node.high = new_high
        if not node.leaf:
            self._widen_high(node.children[-1], new_high)

    def _collapse_root(self) -> None:
        root = self._inspect(self._root_pid)
        while not root.leaf and len(root.children) == 1:
            child = self._read(root.children[0])
            child.parent = NO_PAGE
            self._pager.free(root.pid)
            self._root_pid = child.pid
            self._pager.write(child)
            # The new root spans everything: push the sentinel bounds down
            # both spines (metadata).
            self._widen_low(child.pid, LOW_SENTINEL)
            self._widen_high(child.pid, HIGH_SENTINEL)
            root = child

    # -- update -------------------------------------------------------------------

    def update(
        self, obj_id: int, old_key: float, new_key: float, now: Optional[float] = None
    ) -> PageId:
        """Traditional update: delete at the old key, re-insert at the new."""
        del now
        if not self.delete(obj_id, old_key):
            raise KeyError(f"object {obj_id} not found at key {old_key}")
        return self.insert(obj_id, new_key)

    # -- queries --------------------------------------------------------------------

    def range_search(self, low: float, high: float) -> List[Tuple[int, float]]:
        """All (obj_id, key) with ``low <= key <= high`` via the leaf chain."""
        if high < low:
            return []
        path = self._descend((float(low), -1))
        leaf = path[-1]
        results: List[Tuple[int, float]] = []
        while True:
            for key, oid in leaf.entries:
                if key > high:
                    return results
                if key >= low:
                    results.append((oid, key))
            if leaf.next_leaf == NO_PAGE:
                return results
            leaf = self._read(leaf.next_leaf)

    def search(self, key: float) -> List[int]:
        return [oid for oid, _k in self.range_search(key, key)]

    # -- uncharged introspection --------------------------------------------------------

    def iter_leaves(self) -> Iterator[BNode]:
        node = self._inspect(self._root_pid)
        while not node.leaf:
            node = self._inspect(node.children[0])
        while True:
            yield node
            if node.next_leaf == NO_PAGE:
                return
            node = self._inspect(node.next_leaf)

    def iter_entries(self) -> Iterator[Tuple[int, float]]:
        for leaf in self.iter_leaves():
            for key, oid in leaf.entries:
                yield oid, key

    def node_count(self) -> int:
        count = 0
        stack = [self._root_pid]
        while stack:
            node = self._inspect(stack.pop())
            count += 1
            if not node.leaf:
                stack.extend(node.children)
        return count

    def __repr__(self) -> str:
        return f"BPlusTree(size={self._size}, height={self.height})"
