"""The Change Tolerant R-tree (paper Section 3).

Structure (Phase 4, Section 3.1.4):

* a **structural R-tree** whose leaf level holds the qs-regions mined from
  update history; qs-region rectangles are permanent -- never split when
  overfull, never dropped when underfull;
* an unbounded **page chain** under every qs-region holding the objects
  currently inside it (X-tree style overflow);
* an **overflow buffer** on every structural node for objects outside all
  qs-regions: a linked list of pages while short, converted to an
  alpha-R-tree once longer than ``T_list`` pages;
* the **secondary hash index** of Figure 1 mapping object id to the data
  page holding it, enabling constant-I/O in-region updates.

Dynamic operations follow Section 3.2 (`Insert`, `Delete`, `UpdateLoc`,
`Search`, `RangeSearch`); Appendix A's adaptation -- online discovery of new
qs-regions inside overflow alpha-R-trees and retirement of churning
qs-regions -- is delegated to :class:`repro.core.adaptive.AdaptationManager`.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.geometry import (
    Point,
    Rect,
    check_point,
    rect_enlargement,
    rect_intersects,
)
from repro.core.overflow import (
    OWNER_LIST,
    OWNER_QS,
    DataPage,
    NodeBuffer,
    QSEntry,
)
from repro.core.params import CTParams
from repro.core.qsregion import QSRegion
from repro.hashindex import HashIndex
from repro.rtree.node import Entry, RTreeNode
from repro.rtree.rtree import RTree
from repro.rtree.splits import SPLIT_POLICIES
from repro.storage.page import NO_PAGE, PageId
from repro.storage.pager import Pager


def infinite_rect(dim: int) -> Rect:
    """The all-covering rectangle; the root's buffer accepts any location."""
    return Rect((-math.inf,) * dim, (math.inf,) * dim)


class CTNode(RTreeNode):
    """A structural node: R-tree node machinery plus an overflow buffer.

    Leaf-level (``level == 0``) entries are :class:`QSEntry` qs-region slots;
    internal entries are ordinary (rect, child-pid) pairs.

    Entry storage stays a plain python list (``LIST_ENTRIES``):
    QSEntry records carry chains/fill ledgers that have no packed
    struct-of-arrays form.  The skeleton is small but not cold: every
    relocation walks it.  On ``replay_ct`` (height 3, 381 qs-regions)
    ``_locate`` tests ~40 rectangles per relocation, and relocations -- 14 %
    of updates -- took 56 % of update time while each test was a
    ``Rect.contains_point`` call; ``_locate`` now compares the ``lo``/``hi``
    tuples inline.
    """

    __slots__ = ("buffer",)

    LIST_ENTRIES = True

    def __init__(self, level: int = 0) -> None:
        super().__init__(level)
        self.buffer = NodeBuffer()

    def find_qs(self, region_id: int) -> Optional[QSEntry]:
        for entry in self.entries:
            if isinstance(entry, QSEntry) and entry.region_id == region_id:
                return entry
        return None


class CTRTree:
    """The change-tolerant R-tree index over point objects.

    Args:
        pager: shared page store.
        domain: the indexed space (the city bounds); used for adaptation and
            validation, not for pruning.
        regions: the qs-regions (Phases 1-3 output) forming the permanent
            leaf level; rectangles are accepted too.
        ct_params: thresholds (``T_list``, ``alpha``, adaptation knobs).
        max_entries: structural fan-out and data-page capacity (``N_entry``).
        hash_index: shared secondary index; created on demand.
        adaptive: enable Appendix A's online qs-region discovery/retirement.
    """

    def __init__(
        self,
        pager: Pager,
        domain: Rect,
        regions: Sequence[Union[QSRegion, Rect]] = (),
        *,
        ct_params: Optional[CTParams] = None,
        max_entries: int = 20,
        min_fill: float = 0.4,
        split: str = "quadratic",
        hash_index: Optional[HashIndex] = None,
        adaptive: bool = True,
    ) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self._pager = pager
        self.domain = domain
        self.params = ct_params if ct_params is not None else CTParams()
        self.max_entries = max_entries
        self.min_entries = max(2, int(math.ceil(max_entries * min_fill)))
        self.page_capacity = max_entries
        if split not in SPLIT_POLICIES:
            raise ValueError(f"unknown split policy {split!r}")
        self._split_fn = SPLIT_POLICIES[split]
        self.hash = hash_index if hash_index is not None else HashIndex(pager)
        self.adaptive = adaptive

        #: Overflow alpha-R-trees, keyed by owning structural node pid.
        self._buffer_trees: Dict[PageId, RTree] = {}
        #: The owning node's MBR at buffer-conversion time: tree-buffer
        #: residents must stay inside it for queries to find them.
        self._buffer_bounds: Dict[PageId, Rect] = {}

        self._size = 0
        self._clock = 0.0
        self._next_region_id = 0
        self.lazy_hits = 0
        self.relocations = 0

        root = CTNode(level=0)
        pager.allocate(root)
        self._root_pid = root.pid

        # Appendix A machinery (imported late: adaptive.py imports this module).
        from repro.core.adaptive import AdaptationManager

        self.adaptation = AdaptationManager(self)

        for region in regions:
            rect = region.rect if isinstance(region, QSRegion) else region
            self.add_qs_region(rect)

    # -- basic properties --------------------------------------------------

    @property
    def pager(self) -> Pager:
        return self._pager

    @property
    def root_pid(self) -> PageId:
        return self._root_pid

    @property
    def height(self) -> int:
        return self._inspect(self._root_pid).level + 1

    def __len__(self) -> int:
        return self._size

    @property
    def region_count(self) -> int:
        return sum(1 for _ in self.iter_qs_entries())

    def _tick(self, now: Optional[float]) -> float:
        if now is None:
            self._clock += 1.0
        else:
            now = float(now)
            if now > self._clock:
                self._clock = now
        return self._clock

    # -- node access ---------------------------------------------------------

    def _read(self, pid: PageId) -> CTNode:
        node = self._pager.read(pid)
        assert isinstance(node, CTNode)
        return node

    def _inspect(self, pid: PageId) -> CTNode:
        node = self._pager.inspect(pid)
        assert isinstance(node, CTNode)
        return node

    # -- structural construction ----------------------------------------------

    def add_qs_region(
        self, rect: Rect, created_at: Optional[float] = None
    ) -> Tuple[QSEntry, PageId]:
        """Register a permanent qs-region (repeated-insertion construction).

        Returns the new entry and the pid of the structural leaf holding it.
        """
        if created_at is None:
            created_at = self._clock
        qs = QSEntry(rect, self._next_region_id, created_at=created_at)
        self._next_region_id += 1
        node_pid = self._structural_insert_qs(qs)
        return qs, node_pid

    def _structural_insert_qs(self, qs: QSEntry) -> PageId:
        path = self._choose_path(qs.rect)
        leaf = path[-1]
        leaf.entries.append(qs)
        self._reown_chain(qs, leaf.pid)
        if len(leaf.entries) > self.max_entries:
            return self._split_and_place(path, qs)
        self._pager.write(leaf)
        self._grow_mbrs(path, qs.rect)
        return leaf.pid

    def _choose_path(self, rect: Rect) -> List[CTNode]:
        node = self._read(self._root_pid)
        path = [node]
        rlo = rect.lo
        rhi = rect.hi
        enlargement_of = rect_enlargement
        while not node.is_leaf:
            best: Optional[Entry] = None
            best_enl = float("inf")
            best_area = float("inf")
            for entry in node.entries:
                entry_rect = entry.rect
                area = entry_rect.area
                enl = enlargement_of(entry_rect.lo, entry_rect.hi, rlo, rhi, area)
                if enl < best_enl or (enl == best_enl and area < best_area):
                    best_enl = enl
                    best_area = area
                    best = entry
            assert best is not None, "internal structural node without entries"
            node = self._read(best.child)
            path.append(node)
        return path

    def _grow_mbrs(self, path: List[CTNode], rect: Rect) -> None:
        node = path[-1]
        if node.mbr is None:
            node.mbr = rect
        elif node.mbr.contains_rect(rect):
            return
        else:
            node.mbr = node.mbr.union(rect)
        for parent in reversed(path[:-1]):
            idx = parent.find_entry(node.pid)
            assert idx is not None
            parent.entries[idx].rect = node.mbr
            self._pager.write(parent)
            if parent.mbr is not None and parent.mbr.contains_rect(node.mbr):
                break
            parent.mbr = node.mbr if parent.mbr is None else parent.mbr.union(node.mbr)
            node = parent

    def _split_and_place(self, path: List[CTNode], placed: object) -> PageId:
        """Split the overfull tail of ``path``; qs-region rectangles are never
        split -- only structural *nodes* are, redistributing whole entries."""
        displaced: List[Tuple[int, Point]] = []
        placed_pid = NO_PAGE
        placed_rect = placed.rect  # type: ignore[attr-defined]

        while path:
            node = path.pop()
            group_keep, group_move = self._split_fn(node.entries, self.min_entries)
            displaced.extend(self._drain_buffer(node))
            node.entries = list(group_keep)
            node.mbr = node.tight_mbr()
            sibling = CTNode(level=node.level)
            sibling.entries = list(group_move)
            sibling.mbr = sibling.tight_mbr()
            self._pager.allocate(sibling)
            self._pager.write(node)

            if node.is_leaf:
                for qs in sibling.entries:
                    assert isinstance(qs, QSEntry)
                    self._reown_chain(qs, sibling.pid)
            else:
                for entry in sibling.entries:
                    self._inspect(entry.child).parent = sibling.pid

            if placed_pid == NO_PAGE:
                if any(e is placed for e in sibling.entries):
                    placed_pid = sibling.pid
                elif any(e is placed for e in node.entries):
                    placed_pid = node.pid

            if path:
                parent = path[-1]
                idx = parent.find_entry(node.pid)
                assert idx is not None
                parent.entries[idx].rect = node.mbr
                parent.entries.append(Entry(sibling.mbr, sibling.pid))
                sibling.parent = parent.pid
                if len(parent.entries) <= self.max_entries:
                    self._pager.write(parent)
                    break
            else:
                new_root = CTNode(level=node.level + 1)
                new_root.entries = [
                    Entry(node.mbr, node.pid),
                    Entry(sibling.mbr, sibling.pid),
                ]
                new_root.mbr = node.mbr.union(sibling.mbr)
                self._pager.allocate(new_root)
                node.parent = new_root.pid
                sibling.parent = new_root.pid
                self._root_pid = new_root.pid
                path = []
                break

        if path:
            self._grow_mbrs(path, placed_rect)
        # Buffer residents of split nodes are re-homed once the tree is
        # consistent again (splits outside of adaptation never carry any).
        for obj_id, point in displaced:
            pid = self._place(obj_id, point, self._clock)
            self.hash.set(obj_id, pid)
        return placed_pid

    def _reown_chain(self, qs: QSEntry, node_pid: PageId) -> None:
        """Point a qs-region's data pages at their (new) owning node."""
        for pid in qs.chain:
            page = self._pager.inspect(pid)
            assert isinstance(page, DataPage)
            page.owner = (OWNER_QS, node_pid, qs.region_id)

    def _drain_buffer(self, node: CTNode) -> List[Tuple[int, Point]]:
        """Empty a node's overflow buffer, charging reads, freeing pages."""
        objects: List[Tuple[int, Point]] = []
        buf = node.buffer
        if buf.kind == NodeBuffer.KIND_LIST:
            for pid in buf.pages:
                page = self._pager.read(pid)
                assert isinstance(page, DataPage)
                objects.extend(page.records.items())
                self._pager.free(pid)
        else:
            tree = self._buffer_trees.pop(node.pid)
            self._buffer_bounds.pop(node.pid, None)
            stack = [tree.root_pid]
            while stack:
                tnode = self._pager.read(stack.pop())
                assert isinstance(tnode, RTreeNode)
                if tnode.is_leaf:
                    objects.extend((e.child, e.point) for e in tnode.entries)
                    self.adaptation.forget_leaf(tnode.pid)
                else:
                    stack.extend(e.child for e in tnode.entries)
                self._pager.free(tnode.pid)
        node.buffer = NodeBuffer()
        self._size -= len(objects)
        return objects

    # -- insertion (Section 3.2, Insert(o)) ------------------------------------

    def insert(self, obj_id: int, point: Sequence[float], now: Optional[float] = None) -> PageId:
        """Insert object ``obj_id`` at ``point``; returns its data page id.

        A point with a coordinate that is not a finite float, or not of the
        domain's dimension, is refused with ``ValueError`` before any page
        is read.
        """
        point = tuple(point)
        check_point(obj_id, point, self.domain.dim)
        now = self._tick(now)
        pid = self._place(obj_id, point, now)
        self.hash.set(obj_id, pid)
        return pid

    def _place(self, obj_id: int, point: Point, now: float) -> PageId:
        """Core placement: min-area containing qs-region, else the lowest
        containing node's overflow buffer."""
        candidates, fallback = self._locate(point)
        self._size += 1
        if not candidates:
            return self._buffer_insert(fallback, obj_id, point, now)
        # ``min`` by area, first occurrence winning ties.
        node, qs = candidates[0]
        if len(candidates) > 1:
            best_area = qs.rect.area
            for pair in candidates:
                area = pair[1].rect.area
                if area < best_area:
                    best_area = area
                    node, qs = pair
        return self._qs_append(node, qs, obj_id, point)

    def _locate(self, point: Point) -> Tuple[List[Tuple[CTNode, QSEntry]], CTNode]:
        """All containing leaf-level qs-regions, plus the lowest containing
        structural node (the root as last resort).

        Nodes are visited depth-first from the root, children pushed in
        entry order, and candidates appended in visiting order: ``_place``
        breaks area ties by first occurrence, so the order decides where
        objects land.  In 2-D the containment tests compare the rectangles'
        ``lo``/``hi`` tuples inline (what :meth:`Rect.contains_point` does);
        other dimensions call that method.
        """
        read = self._pager.read
        root = read(self._root_pid)
        assert isinstance(root, CTNode)
        candidates: List[Tuple[CTNode, QSEntry]] = []
        fallback = root
        fallback_key = (float("inf"), float("inf"))
        stack = [root]
        two_d = len(point) == 2
        if two_d:
            x, y = point
        while stack:
            node = stack.pop()
            mbr = node.mbr
            if mbr is not None:
                if two_d:
                    lo = mbr.lo
                    hi = mbr.hi
                    inside = lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]
                else:
                    inside = mbr.contains_point(point)
                if inside:
                    key = (node.level, mbr.area)
                    if key < fallback_key:
                        fallback_key = key
                        fallback = node
            leaf = node.level == 0
            for entry in node.entries:
                rect = entry.rect
                if two_d:
                    lo = rect.lo
                    hi = rect.hi
                    if not (lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]):
                        continue
                elif not rect.contains_point(point):
                    continue
                if leaf:
                    assert isinstance(entry, QSEntry)
                    candidates.append((node, entry))
                else:
                    child = read(entry.child)
                    assert isinstance(child, CTNode)
                    stack.append(child)
        return candidates, fallback

    def _qs_append(self, node: CTNode, qs: QSEntry, obj_id: int, point: Point) -> PageId:
        """Add a record to a qs-region's chain: "the object is inserted into
        the first non-full page of this MBR.  If all pages are full, a new
        page is allocated"."""
        index = qs.first_non_full(self.page_capacity)
        if index is not None:
            page = self._pager.read(qs.chain[index])
            assert isinstance(page, DataPage)
            page.add(obj_id, point)
            qs.fills[index] += 1
            self._pager.write(page)
            return page.pid
        page = DataPage(
            self.page_capacity, (OWNER_QS, node.pid, qs.region_id), qs.rect
        )
        page.add(obj_id, point)
        self._pager.allocate(page)
        qs.chain.append(page.pid)
        qs.fills.append(1)
        self._pager.write(node)  # the chain directory grew
        return page.pid

    def _buffer_tolerance(self, node: CTNode) -> Rect:
        """Lazy-update tolerance for a node-buffer resident: the node's MBR;
        the root tolerates anything (it must accept out-of-coverage points)."""
        if node.pid == self._root_pid or node.mbr is None:
            return infinite_rect(self.domain.dim)
        return node.mbr

    def _buffer_insert(self, node: CTNode, obj_id: int, point: Point, now: float) -> PageId:
        buf = node.buffer
        if buf.kind == NodeBuffer.KIND_LIST:
            index = buf.first_non_full(self.page_capacity)
            if index is not None:
                page = self._pager.read(buf.pages[index])
                assert isinstance(page, DataPage)
                page.add(obj_id, point)
                buf.fills[index] += 1
                self._pager.write(page)
                return page.pid
            # The list -> alpha-R-tree conversion is "the first measure to
            # handle movement pattern changes" (Appendix A); a non-adaptive
            # tree keeps plain linked lists no matter how long they grow.
            if len(buf.pages) < self.params.t_list or not self.adaptive:
                # List pages carry no tolerance rectangle: the linked list is
                # unordered staging with no MBR to be "within", so every
                # update of a list resident relocates (Section 3.2's lazy
                # path only exists where an MBR does -- qs-regions and the
                # overflow alpha-R-trees).  This is what makes buffer
                # residents churn out quickly and promotion worthwhile.
                page = DataPage(
                    self.page_capacity,
                    (OWNER_LIST, node.pid),
                    None,
                )
                page.add(obj_id, point)
                self._pager.allocate(page)
                buf.pages.append(page.pid)
                buf.fills.append(1)
                self._pager.write(node)
                return page.pid
            self._convert_buffer(node)
        tree = self._buffer_trees[node.pid]
        pid = tree.insert(obj_id, point)
        if self.adaptive:
            rehomed = self.adaptation.after_buffer_insert(node, tree, pid, now)
            if rehomed is not None:
                # The insertion tipped the leaf into promotion: the object now
                # lives in the new qs-region's chain, not at ``pid``.
                pid = rehomed[obj_id]
        return pid

    def _convert_buffer(self, node: CTNode) -> None:
        """Linked list -> alpha-R-tree conversion (Section 3.2): "If the number
        of pages of the linked list [reaches] T_list ... an alpha-R-tree is
        created, to which all data in the linked list are moved"."""
        buf = node.buffer
        tree = RTree(
            self._pager,
            max_entries=self.max_entries,
            split="quadratic",
            alpha=self.params.alpha,
            shrink_on_delete=False,
        )
        self._inspect_tag(tree.root_pid, node.pid)
        moved: List[Tuple[int, Point]] = []
        for pid in buf.pages:
            page = self._pager.read(pid)
            assert isinstance(page, DataPage)
            moved.extend(page.records.items())
            self._pager.free(pid)
        for obj_id, point in moved:
            tree.insert(obj_id, point)
        # Repoint the hash only once the tree is final, coalescing buckets;
        # from now on splits repoint eagerly via the callback.
        self.hash.set_many(
            (entry.child, leaf.pid)
            for leaf in tree.iter_leaves()
            for entry in leaf.entries
        )
        tree.on_entries_moved = self.hash.set_many
        buf.kind = NodeBuffer.KIND_TREE
        buf.pages = []
        buf.fills = []
        self._pager.write(node)
        self._buffer_trees[node.pid] = tree
        self._buffer_bounds[node.pid] = self._buffer_tolerance(node)

    def _inspect_tag(self, pid: PageId, tag: object) -> None:
        page = self._pager.inspect(pid)
        assert isinstance(page, RTreeNode)
        page.tag = tag

    # -- deletion (Section 3.2, Delete(o)) ---------------------------------------

    def delete(self, obj_id: int, now: Optional[float] = None) -> bool:
        """"Search the hash-index for o.  Delete o from the page and
        deallocate the page if it is empty.  Set the hash-index entry for o
        to null."""
        now = self._tick(now)
        pid, bucket = self.hash.lookup(obj_id)
        if pid is None:
            return False
        page = self._pager.read(pid)
        if isinstance(page, DataPage):
            if page.remove(obj_id) is None:
                return False
            self._after_page_removal(page, now)
        elif isinstance(page, RTreeNode):
            tree = self._buffer_trees.get(page.tag)  # type: ignore[arg-type]
            if tree is None:
                return False
            idx = page.find_entry(obj_id)
            if idx is None:
                return False
            tree.delete_from_node(page, idx)
        else:
            return False
        self._size -= 1
        self.hash.repoint(bucket, obj_id, None)
        return True

    def _after_page_removal(self, page: DataPage, now: float) -> None:
        """Post-removal bookkeeping: write or deallocate the page, keep the
        advisory fill directory in step, and feed adaptation statistics.

        An emptied page is dropped from its directory, which rewrites the
        owning node: read the node, free the page, write the node.
        Otherwise only the page itself is written back.
        """
        owner = page.owner
        node = self._inspect(owner[1])
        pid = page.pid
        emptied = not page.records
        if emptied:
            charged_node = self._pager.read(node.pid)
            assert charged_node is node
        qs = None
        if owner[0] == OWNER_QS:
            qs = node.find_qs(owner[2])
            if qs is not None:
                index = qs.chain.index(pid)
                if emptied:
                    del qs.chain[index]
                    del qs.fills[index]
                else:
                    qs.fills[index] -= 1
        else:
            buf = node.buffer
            if pid in buf.pages:
                index = buf.pages.index(pid)
                if emptied:
                    del buf.pages[index]
                    del buf.fills[index]
                else:
                    buf.fills[index] -= 1
        if emptied:
            self._pager.free(pid)
            self._pager.write(node)
        else:
            self._pager.write(page)
        if qs is not None:
            qs.removals += 1
            if self.adaptive:
                self.adaptation.after_region_removal(node, qs, now)

    # -- update (Section 3.2, UpdateLoc(o)) ---------------------------------------

    def update(
        self,
        obj_id: int,
        old_point: Sequence[float],
        new_point: Sequence[float],
        now: Optional[float] = None,
    ) -> PageId:
        """"Consult the hash index for o. ... If (x2,y2) does not belong to
        the same MBR, perform Delete(o) and Insert(o)."

        The lazy path -- the new location tolerated by the page's rectangle --
        costs one hash-bucket read, one data-page read, one data-page write.
        ``old_point`` is unused (interface parity with the R-tree baselines).

        A point with a coordinate that is not a finite float, or not of the
        domain's dimension, fails every tolerance test; it is refused with
        ``ValueError`` before the object leaves its page.
        """
        del old_point
        # A lazy hit runs straight through: clock tick (``_tick`` inlined),
        # hash bucket, data page, tolerance test, write.
        if now is None:
            self._clock += 1.0
        else:
            now = float(now)
            if now > self._clock:
                self._clock = now
        now = self._clock
        new_point = tuple(new_point)
        pid, bucket = self.hash.lookup(obj_id)
        if pid is None:
            raise KeyError(f"object {obj_id} is not indexed")
        page = self._pager.read(pid)

        if type(page) is DataPage:
            records = page.records
            if obj_id not in records:
                raise KeyError(f"stale hash pointer for object {obj_id}")
            tolerance = page.tolerance
            if tolerance is not None:
                lo = tolerance.lo
                if len(new_point) == 2 == len(lo):
                    hi = tolerance.hi
                    x, y = new_point
                    inside = lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]
                else:
                    inside = tolerance.contains_point(new_point)
                if inside:
                    records[obj_id] = new_point
                    self._pager.write(page)
                    self.lazy_hits += 1
                    return pid
            check_point(obj_id, new_point, self.domain.dim)
            self.relocations += 1
            del records[obj_id]
            self._after_page_removal(page, now)
            self._size -= 1
            new_pid = self._place(obj_id, new_point, now)
            self.hash.repoint(bucket, obj_id, new_pid)
            return new_pid

        assert isinstance(page, RTreeNode)
        tree = self._buffer_trees.get(page.tag)  # type: ignore[arg-type]
        if tree is None:
            raise KeyError(f"stale buffer-tree pointer for object {obj_id}")
        idx = page.find_entry(obj_id)
        if idx is None:
            raise KeyError(f"stale hash pointer for object {obj_id}")
        bound = self._buffer_bounds.get(page.tag, self.domain)  # type: ignore[arg-type]
        if (
            page.mbr is not None
            and page.mbr.contains_point(new_point)
            and bound.contains_point(new_point)
        ):
            page.entries[idx] = Entry.for_point(new_point, obj_id)
            self._pager.write(page)
            self.lazy_hits += 1
            return pid
        check_point(obj_id, new_point, self.domain.dim)
        self.relocations += 1
        tree.delete_from_node(page, idx)
        self._size -= 1
        new_pid = self._place(obj_id, new_point, now)
        self.hash.repoint(bucket, obj_id, new_pid)
        return new_pid

    # -- queries (Section 3.2, Search / RangeSearch) -----------------------------

    def range_search(self, rect: Rect) -> List[Tuple[int, Point]]:
        """All objects inside the closed rectangle.

        Every visited structural node contributes its overflow buffer:
        "since objects can also be stored in the internal nodes, the search
        visits the set of buffer pages at each internal node".

        In 2-D the intersection tests compare coordinates inline; other
        dimensions call :func:`rect_intersects`.
        """
        results: List[Tuple[int, Point]] = []
        qlo = rect.lo
        qhi = rect.hi
        two_d = len(qlo) == 2
        if two_d:
            ql0, ql1 = qlo
            qh0, qh1 = qhi
        read = self._pager.read
        stack = [self._root_pid]
        while stack:
            node = read(stack.pop())
            assert isinstance(node, CTNode)
            self._search_buffer(node, rect, results)
            leaf = node.level == 0
            for entry in node.entries:
                elo = entry.rect.lo
                ehi = entry.rect.hi
                if two_d:
                    if not (
                        elo[0] <= qh0
                        and ql0 <= ehi[0]
                        and elo[1] <= qh1
                        and ql1 <= ehi[1]
                    ):
                        continue
                elif not rect_intersects(elo, ehi, qlo, qhi):
                    continue
                if not leaf:
                    stack.append(entry.child)
                    continue
                assert isinstance(entry, QSEntry)
                for pid in entry.chain:
                    page = read(pid)
                    assert isinstance(page, DataPage)
                    results.extend(page.matches(rect))
        return results

    def _search_buffer(
        self, node: CTNode, rect: Rect, results: List[Tuple[int, Point]]
    ) -> None:
        buf = node.buffer
        if buf.kind == NodeBuffer.KIND_LIST:
            # "If the overflow buffer is a linked list, the search checks all
            # the pages since the data in the linked list is unordered."
            for pid in buf.pages:
                page = self._pager.read(pid)
                assert isinstance(page, DataPage)
                results.extend(page.matches(rect))
        else:
            # "If it is an alpha-R-tree, an R-tree range search is performed."
            results.extend(self._buffer_trees[node.pid].range_search(rect))

    def search_point(self, point: Sequence[float]) -> List[int]:
        rect = Rect.from_point(tuple(point))
        return [obj_id for obj_id, _ in self.range_search(rect)]

    def nearest(self, point: Sequence[float], k: int = 1) -> List[Tuple[float, int, Point]]:
        """The ``k`` nearest objects to ``point`` as (distance, id, point).

        Best-first search adapted to the CT-R-tree's three storage places:
        structural subtrees and qs-region chains enter the priority queue
        with their rectangle's lower-bound distance; a visited node's
        overflow buffer is scanned immediately (list pages are unordered, so
        there is no better bound than reading them; buffer alpha-R-trees
        recurse through their own node bounds).
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        target = tuple(point)
        counter = 0
        # Heap items: (bound, tiebreak, kind, payload).
        heap: List[Tuple[float, int, str, object]] = []

        def push(bound: float, kind: str, payload: object) -> None:
            nonlocal counter
            heapq.heappush(heap, (bound, counter, kind, payload))
            counter += 1

        def push_data_page(pid: PageId) -> None:
            page = self._pager.read(pid)
            assert isinstance(page, DataPage)
            for obj_id, obj_point in page.records.items():
                push(math.dist(target, obj_point), "object", (obj_id, obj_point))

        def visit_node(pid: PageId) -> None:
            node = self._read(pid)
            buf = node.buffer
            if buf.kind == NodeBuffer.KIND_LIST:
                for page_pid in buf.pages:
                    push_data_page(page_pid)
            else:
                push(0.0, "buffer-tree-node", self._buffer_trees[node.pid].root_pid)
            if node.is_leaf:
                for qs in node.entries:
                    assert isinstance(qs, QSEntry)
                    if qs.chain:
                        push(qs.rect.min_distance(target), "qs", qs)
            else:
                for entry in node.entries:
                    push(entry.rect.min_distance(target), "node", entry.child)

        push(0.0, "node", self._root_pid)
        results: List[Tuple[float, int, Point]] = []
        while heap and len(results) < k:
            _bound, _tie, kind, payload = heapq.heappop(heap)
            if kind == "object":
                obj_id, obj_point = payload  # type: ignore[misc]
                results.append((math.dist(target, obj_point), obj_id, obj_point))
            elif kind == "node":
                visit_node(payload)  # type: ignore[arg-type]
            elif kind == "qs":
                qs = payload
                assert isinstance(qs, QSEntry)
                for pid in qs.chain:
                    push_data_page(pid)
            else:  # buffer-tree-node
                tree_node = self._pager.read(payload)  # type: ignore[arg-type]
                assert isinstance(tree_node, RTreeNode)
                if tree_node.is_leaf:
                    for entry in tree_node.entries:
                        push(
                            math.dist(target, entry.point),
                            "object",
                            (entry.child, entry.point),
                        )
                else:
                    for entry in tree_node.entries:
                        push(
                            entry.rect.min_distance(target),
                            "buffer-tree-node",
                            entry.child,
                        )
        return results

    # -- uncharged introspection -------------------------------------------------

    def iter_nodes(self) -> Iterator[CTNode]:
        stack = [self._root_pid]
        while stack:
            node = self._inspect(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(e.child for e in node.entries)

    def iter_qs_entries(self) -> Iterator[Tuple[CTNode, QSEntry]]:
        for node in self.iter_nodes():
            if node.is_leaf:
                for qs in node.entries:
                    assert isinstance(qs, QSEntry)
                    yield node, qs

    def iter_objects(self) -> Iterator[Tuple[int, Point]]:
        for node in self.iter_nodes():
            buf = node.buffer
            if buf.kind == NodeBuffer.KIND_LIST:
                for pid in buf.pages:
                    page = self._pager.inspect(pid)
                    assert isinstance(page, DataPage)
                    yield from page.records.items()
            else:
                yield from self._buffer_trees[node.pid].iter_objects()
            if node.is_leaf:
                for qs in node.entries:
                    assert isinstance(qs, QSEntry)
                    for pid in qs.chain:
                        page = self._pager.inspect(pid)
                        assert isinstance(page, DataPage)
                        yield from page.records.items()

    def buffered_object_count(self) -> int:
        """Objects living in node buffers (outside all qs-regions)."""
        count = 0
        for node in self.iter_nodes():
            buf = node.buffer
            if buf.kind == NodeBuffer.KIND_LIST:
                count += buf.object_count()
            else:
                count += len(self._buffer_trees[node.pid])
        return count

    def __repr__(self) -> str:
        return (
            f"CTRTree(size={self._size}, regions={self.region_count}, "
            f"height={self.height}, lazy_hits={self.lazy_hits}, "
            f"relocations={self.relocations})"
        )
