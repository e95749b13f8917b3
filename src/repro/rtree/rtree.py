"""A paged Guttman R-tree with pluggable split policy and loose-MBR support.

This is the traditional R-tree of the paper's evaluation [7]: objects are
points in leaf pages, every node occupies one page with at most
``max_entries`` slots, and a location update is processed as a search +
delete + re-insert.  Two behavioural knobs turn it into the other family
members:

* ``alpha > 0``: every MBR expansion overshoots the minimum by ``alpha``
  (Section 2.2's loose MBRs) -- used by :class:`~repro.rtree.alpha.AlphaTree`
  and by the CT-R-tree's overflow buffers;
* ``shrink_on_delete=False`` + :meth:`RTree.delete_at`: pointer-based lazy
  deletion that never tightens ancestor MBRs -- used by
  :class:`~repro.rtree.lazy.LazyRTree`.

I/O charging: every node visited is one page read; every node mutated is one
page write; allocating a node is one write; freeing is not charged.  Parent
pointers and the ``mbr`` mirror are uncharged metadata (DESIGN.md section 5).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.geometry import Point, Rect, check_point
from repro.rtree.node import Entry, RTreeNode
from repro.rtree.splits import SPLIT_POLICIES, quadratic_split_columns
from repro.storage.page import NO_PAGE, PageId
from repro.storage.pager import Pager

#: Callback fired when leaf entries move to a different page (splits,
#: condense-reinsertion), so owners of secondary indexes can repoint them.
MovedCallback = Callable[[List[Tuple[int, PageId]]], None]


class RTree:
    """Disk-based R-tree over point objects.

    Args:
        pager: page store (shared with other structures in an experiment).
        max_entries: fan-out ``N_entry`` (Table 1 default 20).
        min_fill: minimum fill factor for splits/condensation (Guttman's m).
        split: one of ``linear``, ``quadratic``, ``rstar``.
        alpha: loose-MBR expansion factor; 0 keeps MBRs minimal.
        shrink_on_delete: tighten ancestor MBRs during deletion (traditional
            behaviour); lazy variants disable it.
        on_entries_moved: see :data:`MovedCallback`.
    """

    def __init__(
        self,
        pager: Pager,
        max_entries: int = 20,
        min_fill: float = 0.4,
        split: str = "quadratic",
        alpha: float = 0.0,
        shrink_on_delete: bool = True,
        on_entries_moved: Optional[MovedCallback] = None,
        forced_reinsert: float = 0.0,
    ) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError("min_fill must be in (0, 0.5]")
        if split not in SPLIT_POLICIES:
            raise ValueError(f"unknown split policy {split!r}; choose from {sorted(SPLIT_POLICIES)}")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not 0.0 <= forced_reinsert < 0.5:
            raise ValueError("forced_reinsert must be in [0, 0.5)")
        self._pager = pager
        self.max_entries = max_entries
        self.min_entries = max(2, int(math.ceil(max_entries * min_fill)))
        self.split_policy = split
        self._split_fn = SPLIT_POLICIES[split]
        #: The column form of the policy, when it has one (quadratic only).
        self._split_columns = (
            quadratic_split_columns if split == "quadratic" else None
        )
        self.alpha = alpha
        self.shrink_on_delete = shrink_on_delete
        self.on_entries_moved = on_entries_moved
        #: R*-style forced reinsertion: on the first overflow of a level per
        #: operation, evict this fraction of the node's outermost entries and
        #: re-insert them instead of splitting (Beckmann et al.'s p = 30%).
        self.forced_reinsert = forced_reinsert
        self._reinserted_levels: set = set()
        self._size = 0
        self._dim = 0

        root = RTreeNode(level=0)
        pager.allocate(root)
        self._root_pid = root.pid

    # -- basic properties ---------------------------------------------------

    @property
    def pager(self) -> Pager:
        return self._pager

    @property
    def root_pid(self) -> PageId:
        return self._root_pid

    @property
    def height(self) -> int:
        """Number of node levels (1 for a lone leaf root)."""
        return self._pager.inspect(self._root_pid).level + 1  # type: ignore[union-attr]

    @property
    def dim(self) -> int:
        """Dimension of the indexed boxes (0 until the first insert).

        Read from the root until the tree has one, then kept: every entry
        shares it, so no later root differs.
        """
        if not self._dim:
            self._dim = self._pager.inspect(self._root_pid).entries.dim  # type: ignore[union-attr]
        return self._dim

    def __len__(self) -> int:
        return self._size

    # -- charged node access --------------------------------------------------

    def _read(self, pid: PageId) -> RTreeNode:
        node = self._pager.read(pid)
        assert isinstance(node, RTreeNode)
        return node

    def _inspect(self, pid: PageId) -> RTreeNode:
        node = self._pager.inspect(pid)
        assert isinstance(node, RTreeNode)
        return node

    # -- insertion ---------------------------------------------------------

    def insert(
        self, obj_id: int, point: Sequence[float], now: Optional[float] = None
    ) -> PageId:
        """Insert a point object; returns the leaf page id holding it.

        ``now`` is ignored (interface parity with the CT-R-tree).  A point
        with a coordinate that is not a finite float, or not of the tree's
        dimension, is refused with ``ValueError`` before any page is read.
        """
        del now
        check_point(obj_id, point, self.dim)
        self._reinserted_levels.clear()
        # ``Rect(point, point)``'s coercion and its one validation that a
        # point can fail.
        p = tuple(map(float, point))
        if not p:
            raise ValueError("rectangles must have at least one dimension")
        pid = self._insert_packed(p, p, obj_id, 0)
        self._size += 1
        return pid

    def _insert_entry(self, entry: Entry, level: int) -> PageId:
        """Insert a materialized entry at ``level``: the entries that
        condensation orphans and forced reinsertion evicts, at any level."""
        rect = entry.rect
        return self._insert_packed(rect.lo, rect.hi, entry.child, level)

    def _insert_packed(self, lo: Point, hi: Point, child: int, level: int) -> PageId:
        """Insert the box ``[lo, hi]`` (canonical float bounds) pointing at
        ``child`` into a node at ``level``; returns the page that holds it.

        Least-enlargement descent, then an append straight into the node's
        columns: an :class:`Entry` is built only when the node overflows
        (the split or forced reinsertion takes one), a :class:`Rect` only
        when the node's MBR must grow to cover the box.
        """
        path = self._choose_path(lo, hi, level)
        node = path[-1]
        entries = node.entries
        entries.append_packed(lo, hi, child)
        if len(entries.children) > self.max_entries:
            return self._overflow(path, Entry(Rect._make(lo, hi), child))
        self._pager.write(node)
        mbr = node.mbr
        # A point's two bounds are one tuple: one containment test covers it.
        if mbr is None or not (
            mbr.contains_point(lo) and (hi is lo or mbr.contains_point(hi))
        ):
            self._grow_mbrs(path, Rect._make(lo, hi))
        return node.pid

    def _overflow(self, path: List[RTreeNode], placed: Entry) -> PageId:
        """Treat the overfull ``path[-1]`` that ``placed`` just entered:
        forced reinsertion on the first overflow of a level per operation
        (when enabled), else a split."""
        node = path[-1]
        if (
            self.forced_reinsert > 0
            and not node.is_root
            and node.level not in self._reinserted_levels
        ):
            return self._forced_reinsert(path, placed)
        return self._split_and_place(path, placed)

    def _forced_reinsert(self, path: List[RTreeNode], placed: Entry) -> PageId:
        """R*-style overflow treatment: evict the entries farthest from the
        node's center and re-insert them, deferring the split.  Applied at
        most once per level per operation."""
        node = path[-1]
        self._reinserted_levels.add(node.level)
        tight = node.tight_mbr()
        assert tight is not None
        center = tight.center
        ranked = sorted(
            node.entries.materialize(),
            key=lambda e: sum((a - b) ** 2 for a, b in zip(e.rect.center, center)),
            reverse=True,
        )
        evict_count = max(1, int(self.forced_reinsert * len(node.entries)))
        evicted = ranked[:evict_count]
        node.entries = ranked[evict_count:]
        node.mbr = node.tight_mbr()
        self._pager.write(node)
        parent = path[-2]
        idx = parent.find_entry(node.pid)
        assert idx is not None
        parent.entries.set_rect(idx, node.mbr)
        self._pager.write(parent)
        # The kept entries include the one just placed, which may lie
        # outside what the ancestors above ``parent`` cover.
        self._grow_mbrs(path[:-1], node.mbr)

        level = node.level
        for entry in evicted:
            pid = self._insert_entry(entry, level)
            if level > 0:
                self._inspect(entry.child).parent = pid
            elif pid != node.pid and self.on_entries_moved is not None:
                # Report each relocation immediately: a later reinsertion may
                # split the page this one landed on, and that split's own
                # report must come after (not be clobbered by) this one.
                self.on_entries_moved([(entry.child, pid)])
        # Any reinsertion after ``placed`` settled may have split its node and
        # moved it again, so resolve the final location by child id (ids are
        # unique per level: object ids at leaves, page ids at branches).
        placed_pid = self._find_child_page(placed.child, level)
        assert placed_pid != NO_PAGE
        return placed_pid

    def _find_child_page(self, child: int, level: int) -> PageId:
        """Locate (uncharged) the node at ``level`` holding an entry with
        this child id -- operation-internal bookkeeping, like parent
        pointers."""
        stack = [self._root_pid]
        while stack:
            node = self._inspect(stack.pop())
            if node.level == level:
                if node.find_entry(child) is not None:
                    return node.pid
            elif node.level > level:
                stack.extend(node.entries.child_list())
        return NO_PAGE

    def _choose_path(self, rlo: Point, rhi: Point, level: int) -> List[RTreeNode]:
        """Read the root-to-target path for the box ``[rlo, rhi]``, choosing
        least-enlargement children.

        The per-node choose-subtree scan is one whole-node kernel
        (``SoAEntries.choose_subtree`` over the packed coordinate columns)
        evaluating Guttman's least-enlargement/least-area rule with the
        float comparisons of a per-entry ``Rect`` loop.
        """
        read = self._pager.read
        node = read(self._root_pid)
        assert isinstance(node, RTreeNode)
        path = [node]
        while node.level > level:
            entries = node.entries
            best = entries.choose_subtree(rlo, rhi)
            if best < 0:
                raise RuntimeError("internal node without entries on insert path")
            node = read(entries.children[best])
            assert isinstance(node, RTreeNode)
            path.append(node)
        return path

    def _expanded(
        self, current: Optional[Rect], addition: Rect, inflate: bool
    ) -> Tuple[Rect, bool]:
        """Grow ``current`` to cover ``addition``; loose by ``alpha`` when
        ``inflate`` is set and growth actually happened."""
        if current is None:
            return addition, True
        if current.contains_rect(addition):
            return current, False
        minimal = current.union(addition)
        if inflate and self.alpha > 0:
            minimal = minimal.inflated(self.alpha)
        return minimal, True

    def _grow_mbrs(self, path: List[RTreeNode], rect: Rect) -> None:
        """Propagate an MBR expansion from ``path[-1]`` toward the root.

        The target node itself was already written by the caller; each
        ancestor whose entry rectangle changes costs one write.  Loose-MBR
        inflation applies to *leaf* MBRs only -- the alpha-tree's leeway is
        for boundary objects (Section 2.2); inflating every level would
        compound overlap and needlessly multiply query paths.
        """
        node = path[-1]
        node.mbr, changed = self._expanded(node.mbr, rect, inflate=node.is_leaf)
        if not changed:
            return
        for parent in reversed(path[:-1]):
            idx = parent.find_entry(node.pid)
            assert idx is not None, "child missing from parent during MBR adjustment"
            parent.entries.set_rect(idx, node.mbr)
            self._pager.write(parent)
            parent.mbr, changed = self._expanded(parent.mbr, node.mbr, inflate=False)
            if not changed:
                break
            node = parent

    def _split_groups(self, entries):
        """The two groups of an overfull node's entries.

        Under a policy with a column form (the quadratic split) the node is
        split by row index over its coordinate columns and both groups are
        gathered from them; any other policy is handed the node's entries
        materialized into :class:`Entry` objects.
        """
        split_columns = self._split_columns
        if split_columns is not None:
            keep, move = split_columns(entries.los, entries.his, self.min_entries)
            return entries.take(keep), entries.take(move)
        return self._split_fn(entries.materialize(), self.min_entries)

    def _split_and_place(self, path: List[RTreeNode], placed: Entry) -> PageId:
        """Split the overfull ``path[-1]``, propagating upward; returns the
        page id that ended up holding ``placed``."""
        placed_pid = NO_PAGE
        placed_level = path[-1].level
        while path:
            node = path.pop()
            group_keep, group_move = self._split_groups(node.entries)
            node.entries = group_keep
            node.mbr = node.tight_mbr()
            sibling = RTreeNode(level=node.level)
            sibling.entries = group_move
            sibling.mbr = sibling.tight_mbr()
            sibling.tag = node.tag
            self._pager.allocate(sibling)
            self._pager.write(node)

            moved = sibling.entries.child_list()
            if node.level > 0:
                for child in moved:
                    self._inspect(child).parent = sibling.pid
            elif self.on_entries_moved is not None and moved:
                self.on_entries_moved([(child, sibling.pid) for child in moved])

            if placed_pid == NO_PAGE and node.level == placed_level:
                # ``placed`` sits in exactly one of the groups of this
                # (bottom-most) split; child ids are unique per level, so
                # membership by id resolves its page.
                if placed.child in moved:
                    placed_pid = sibling.pid
                else:
                    placed_pid = node.pid

            if path:
                parent = path[-1]
                idx = parent.find_entry(node.pid)
                assert idx is not None
                parent.entries.set_rect(idx, node.mbr)
                parent.entries.append(Entry(sibling.mbr, sibling.pid))
                sibling.parent = parent.pid
                if len(parent.entries) <= self.max_entries:
                    self._pager.write(parent)
                    break
                # else: loop continues and splits the parent
            else:
                new_root = RTreeNode(level=node.level + 1)
                new_root.tag = node.tag
                new_root.entries = [
                    Entry(node.mbr, node.pid),
                    Entry(sibling.mbr, sibling.pid),
                ]
                new_root.mbr = node.mbr.union(sibling.mbr)
                self._pager.allocate(new_root)
                node.parent = new_root.pid
                sibling.parent = new_root.pid
                self._root_pid = new_root.pid
                return placed_pid

        # Split absorbed mid-path: the ancestors above the last split must
        # still grow to cover the newly inserted rectangle.
        if path:
            self._grow_mbrs(path, placed.rect)
        return placed_pid

    # -- deletion ---------------------------------------------------------

    def delete(self, obj_id: int, point: Sequence[float]) -> bool:
        """Traditional deletion: locate by spatial search, then condense."""
        self._reinserted_levels.clear()
        found = self._find_leaf(tuple(point), obj_id)
        if found is None:
            return False
        path, entry_index = found
        leaf = path[-1]
        leaf.entries.delete_row(entry_index)
        self._size -= 1
        self._condense(path)
        return True

    def _find_leaf(
        self, point: Point, obj_id: int
    ) -> Optional[Tuple[List[RTreeNode], int]]:
        """DFS for the leaf holding ``obj_id`` at ``point``; charged reads."""
        root = self._read(self._root_pid)
        stack: List[List[RTreeNode]] = [[root]]
        while stack:
            path = stack.pop()
            node = path[-1]
            if node.is_leaf:
                idx = node.entries.find_point_entry(obj_id, point)
                if idx is not None:
                    return path, idx
                continue
            for child_pid in node.entries.children_containing_point(point):
                child = self._read(child_pid)
                stack.append(path + [child])
        return None

    def _condense(self, path: List[RTreeNode]) -> None:
        """Guttman CondenseTree over an already-read root-to-leaf path."""
        orphans: List[Tuple[List[Entry], int]] = []
        modified = [False] * len(path)
        modified[-1] = True  # the leaf lost an entry

        for i in range(len(path) - 1, 0, -1):
            node, parent = path[i], path[i - 1]
            idx = parent.find_entry(node.pid)
            assert idx is not None
            if len(node.entries) < self.min_entries:
                parent.entries.delete_row(idx)
                modified[i - 1] = True
                if len(node.entries):
                    orphans.append((node.entries.materialize(), node.level))
                self._pager.free(node.pid)
                modified[i] = False
            else:
                if self.shrink_on_delete:
                    tight = node.tight_mbr()
                    if tight is not None and tight != node.mbr:
                        node.mbr = tight
                        parent.entries.set_rect(idx, tight)
                        modified[i - 1] = True
                if modified[i]:
                    self._pager.write(node)

        root = path[0]
        if modified[0]:
            self._pager.write(root)
        if self.shrink_on_delete:
            root.mbr = root.tight_mbr()

        # Re-insert orphaned entries at their original level.
        for entries, level in orphans:
            for entry in entries:
                pid = self._insert_entry(entry, level)
                if level > 0:
                    self._inspect(entry.child).parent = pid
                elif self.on_entries_moved is not None:
                    self.on_entries_moved([(entry.child, pid)])

        self._collapse_root()

    def _collapse_root(self) -> None:
        root = self._inspect(self._root_pid)
        while not root.is_leaf and len(root.entries) == 1:
            child_pid = root.entries.child_at(0)
            child = self._read(child_pid)
            child.parent = NO_PAGE
            self._pager.free(root.pid)
            self._root_pid = child_pid
            root = child
        if not root.is_leaf and not root.entries:
            root.level = 0
            self._pager.write(root)

    def delete_at(self, obj_id: int, leaf_pid: PageId) -> Optional[Point]:
        """Pointer-based deletion (Section 2.1): no spatial search, no MBR
        shrinking; an emptied leaf is unlinked from its parent chain.

        Returns the deleted point, or None when the page did not hold the
        object (the caller's pointer was stale).
        """
        if not self._pager.contains(leaf_pid):
            return None
        node = self._read(leaf_pid)
        if not node.is_leaf:
            return None
        idx = node.find_entry(obj_id)
        if idx is None:
            return None
        return self.delete_from_node(node, idx)

    def delete_from_node(self, node: RTreeNode, idx: int) -> Point:
        """Remove entry ``idx`` from an already-read (pinned) leaf.

        Splitting this out of :meth:`delete_at` lets the lazy update path --
        which has just read the leaf for the same-MBR test -- avoid paying a
        second read for the same page.
        """
        point = node.entries.point_at(idx)
        self.delete_many_from_node(node, (idx,))
        return point

    def delete_many_from_node(self, node: RTreeNode, indexes: Sequence[int]) -> None:
        """Remove the entries at ``indexes`` from an already-read leaf and
        settle the page once: one write, or an unlink if that emptied it --
        the batch apply's one write per touched leaf, which also carries any
        in-place overwrites the same visit made."""
        entries = node.entries
        for idx in sorted(indexes, reverse=True):
            entries.delete_row(idx)
        self._size -= len(indexes)
        if entries or node.is_root:
            self._pager.write(node)
        else:
            self._unlink_empty(node)

    def _unlink_empty(self, node: RTreeNode) -> None:
        """Free an emptied node and detach it from its parent, recursively."""
        while not node.is_root and not node.entries:
            parent = self._read(node.parent)
            idx = parent.find_entry(node.pid)
            assert idx is not None
            parent.entries.delete_row(idx)
            self._pager.free(node.pid)
            node = parent
        if node.entries or node.is_root:
            self._pager.write(node)
        if node.is_root and not node.entries and not node.is_leaf:
            node.level = 0

    # -- update -------------------------------------------------------------

    def update(
        self,
        obj_id: int,
        old_point: Sequence[float],
        new_point: Sequence[float],
        now: Optional[float] = None,
    ) -> PageId:
        """Traditional update: delete at the old location, re-insert at the new.

        Paper Section 2.1: "object with id i moves from its current location
        (x1,y1) to new location (x2,y2).  This can be handled in an R-tree by
        first deleting this object from its current location and then
        re-inserting it in the new location."

        ``now`` is accepted for interface parity with the CT-R-tree (whose
        adaptation is time-driven) and ignored.  ``new_point`` is checked
        before the delete, so a point the tree cannot hold loses no object.
        """
        del now
        check_point(obj_id, new_point, self.dim)
        if not self.delete(obj_id, old_point):
            raise KeyError(f"object {obj_id} not found at {tuple(old_point)}")
        return self.insert(obj_id, new_point)

    # -- queries ------------------------------------------------------------

    def range_search(self, rect: Rect) -> List[Tuple[int, Point]]:
        """All (obj_id, point) pairs inside the closed rectangle ``rect``.

        Each visited node is scanned whole by one packed-column kernel
        (``points_in`` at a leaf, ``intersecting_children`` at a branch),
        which returns its matches in entry order.
        """
        results: List[Tuple[int, Point]] = []
        qlo = rect.lo
        qhi = rect.hi
        stack = [self._root_pid]
        while stack:
            node = self._read(stack.pop())
            if node.is_leaf:
                results.extend(node.entries.points_in(qlo, qhi))
            else:
                stack.extend(node.entries.intersecting_children(qlo, qhi))
        return results

    def search_point(self, point: Sequence[float]) -> List[int]:
        """Object ids stored exactly at ``point``."""
        rect = Rect.from_point(tuple(point))
        return [obj_id for obj_id, _ in self.range_search(rect)]

    def nearest(self, point: Sequence[float], k: int = 1) -> List[Tuple[float, int, Point]]:
        """The ``k`` nearest objects to ``point`` as (distance, id, point),
        nearest first.

        Best-first search (Hjaltason & Samet): a priority queue ordered by
        lower-bound distance holds both unexplored nodes and concrete
        objects; nodes are read (charged) only when their bound is still
        competitive.  Each visited node's bounds come from one whole-node
        kernel (``min_distances`` / ``point_distances``), and an entry is
        queued only if its bound is not above the k-th smallest object
        distance queued so far: such an entry could only pop after ``k``
        objects had, so dropping it changes neither the results nor the
        pages read.  Equal bounds are kept, so ties pop in queue order.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        target = tuple(point)
        push = heapq.heappush
        pop = heapq.heappop
        heap: List[Tuple[float, int, int, Optional[Point]]] = [
            (0.0, 0, self._root_pid, None)
        ]
        counter = 1
        # Negated distances of the k nearest objects queued so far (a
        # max-heap); ``cutoff`` is the largest of them once there are k.
        kth: List[float] = []
        cutoff = math.inf
        results: List[Tuple[float, int, Point]] = []
        while heap and len(results) < k:
            distance, _tie, ident, payload = pop(heap)
            if payload is not None:
                results.append((distance, ident, payload))
                continue
            node = self._read(ident)
            entries = node.entries
            if node.is_leaf:
                for dist, (child, obj_point) in zip(
                    entries.point_distances(target), entries.iter_points()
                ):
                    if dist > cutoff:
                        continue
                    push(heap, (dist, counter, child, obj_point))
                    counter += 1
                    if dist < cutoff:  # a tie or a NaN never tightens it
                        if len(kth) < k:
                            push(kth, -dist)
                            if len(kth) == k:
                                cutoff = -kth[0]
                        else:
                            heapq.heapreplace(kth, -dist)
                            cutoff = -kth[0]
            else:
                for bound, child in zip(
                    entries.min_distances(target), entries.child_list()
                ):
                    if bound <= cutoff:
                        push(heap, (bound, counter, child, None))
                        counter += 1
        return results

    # -- uncharged introspection ----------------------------------------------

    def iter_leaves(self) -> Iterator[RTreeNode]:
        stack = [self._root_pid]
        while stack:
            node = self._inspect(stack.pop())
            if node.is_leaf:
                yield node
            else:
                stack.extend(node.entries.child_list())

    def iter_objects(self) -> Iterator[Tuple[int, Point]]:
        for leaf in self.iter_leaves():
            yield from leaf.entries.iter_points()

    def node_count(self) -> int:
        count = 0
        stack = [self._root_pid]
        while stack:
            node = self._inspect(stack.pop())
            count += 1
            if not node.is_leaf:
                stack.extend(node.entries.child_list())
        return count

    def __repr__(self) -> str:
        return (
            f"RTree(size={self._size}, height={self.height}, "
            f"split={self.split_policy!r}, alpha={self.alpha})"
        )
