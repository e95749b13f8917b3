"""Data pages and overflow buffers for the CT-R-tree (Section 3.1.4).

Objects in a CT-R-tree live in :class:`DataPage` records, in one of two
places:

* the **page chain** of a qs-region ("there is a possibly unlimited overflow
  buffer (which can span multiple pages) attached to these MBRs, as in the
  X-tree"), or
* the **overflow buffer of a structural node** for objects that fall outside
  every qs-region ("it is stored in the lowest internal node whose MBR
  contains the new location").  A node buffer starts as an unordered linked
  list of pages and is converted to an alpha-R-tree once it exceeds
  ``T_list`` pages (Section 3.2 / Appendix A).

Each data page carries two pieces of uncharged header metadata: its *owner*
(which structural node / qs-region the page belongs to) and its *tolerance
rectangle* -- the region within which an object on this page may be updated
in place.  For qs-chain pages the tolerance is the qs-region rectangle
itself.  List-buffer pages have **no** tolerance (``None``): the linked list
is unordered staging with no MBR of its own, so every update of a list
resident relocates the object -- which is what lets settled objects migrate
into (or be promoted to) qs-regions instead of lingering in buffers.
Overflow alpha-R-trees get lazy updates through their own leaf MBRs,
intersected with the owning node's MBR at conversion time so residents stay
findable; structural MBRs only ever grow, keeping that bound valid.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.geometry import Point, Rect
from repro.storage.page import Page, PageId

#: Owner tag for a page in a qs-region's chain: ("qs", node_pid, region_id).
OWNER_QS = "qs"
#: Owner tag for a page in a node's linked-list buffer: ("list", node_pid).
OWNER_LIST = "list"

Owner = Tuple


class DataPage(Page):
    """A page of object records (capacity ``N_entry``)."""

    __slots__ = ("records", "capacity", "owner", "tolerance")

    def __init__(self, capacity: int, owner: Owner, tolerance: Optional[Rect]) -> None:
        super().__init__()
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.records: Dict[int, Point] = {}
        self.owner = owner
        self.tolerance = tolerance

    @property
    def is_full(self) -> bool:
        return len(self.records) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self.records

    def add(self, obj_id: int, point: Point) -> None:
        if self.is_full:
            raise ValueError(f"page {self.pid} is full")
        self.records[obj_id] = point

    def remove(self, obj_id: int) -> Optional[Point]:
        return self.records.pop(obj_id, None)

    def matches(self, rect: Rect) -> List[Tuple[int, Point]]:
        """Records whose point falls inside the closed rectangle, in record
        order.  2-D compares coordinates inline (``Rect.contains_point``'s
        own test); other dimensions call the method."""
        lo = rect.lo
        hi = rect.hi
        if len(lo) != 2:
            return [
                (oid, pt) for oid, pt in self.records.items() if rect.contains_point(pt)
            ]
        l0, l1 = lo
        h0, h1 = hi
        return [
            (oid, pt)
            for oid, pt in self.records.items()
            if l0 <= pt[0] <= h0 and l1 <= pt[1] <= h1
        ]

    def __len__(self) -> int:
        return len(self.records)


class QSEntry:
    """A qs-region slot in a structural leaf node.

    The rectangle is permanent: "they are never removed from the index
    (i.e. they are allowed to be underfull ...) and they are not split when
    overfull" -- except by Appendix A's explicit retirement.

    ``chain`` and ``fills`` form the page directory.  ``fills`` mirrors each
    page's record count; like parent pointers it is advisory in-memory
    metadata (DESIGN.md section 5): finding "the first non-full page" does
    not charge extra reads, but touching the chosen page still costs its
    read and write.

    ``removals`` / ``window_start`` drive Appendix A's retirement test
    (removal rate vs ``T_remove``).
    """

    __slots__ = ("rect", "region_id", "chain", "fills", "removals", "window_start")

    def __init__(self, rect: Rect, region_id: int, created_at: float = 0.0) -> None:
        self.rect = rect
        self.region_id = region_id
        self.chain: List[PageId] = []
        self.fills: List[int] = []
        self.removals = 0
        self.window_start = created_at

    def first_non_full(self, capacity: int) -> Optional[int]:
        """Chain index of the first page with free space, else None."""
        for i, fill in enumerate(self.fills):
            if fill < capacity:
                return i
        return None

    def object_count(self) -> int:
        return sum(self.fills)

    def __repr__(self) -> str:
        return (
            f"QSEntry(region={self.region_id}, pages={len(self.chain)}, "
            f"objects={self.object_count()})"
        )


class NodeBuffer:
    """A structural node's overflow buffer directory.

    ``kind`` is ``"list"`` (page chain) or ``"tree"`` (alpha-R-tree; the tree
    object itself is owned by the CT-R-tree, keyed by node pid, since Python
    object graphs do not live inside pages).
    """

    KIND_LIST = "list"
    KIND_TREE = "tree"

    __slots__ = ("kind", "pages", "fills")

    def __init__(self) -> None:
        self.kind = NodeBuffer.KIND_LIST
        self.pages: List[PageId] = []
        self.fills: List[int] = []

    def first_non_full(self, capacity: int) -> Optional[int]:
        for i, fill in enumerate(self.fills):
            if fill < capacity:
                return i
        return None

    def object_count(self) -> int:
        """List-mode record count (tree mode is tracked by the tree itself)."""
        return sum(self.fills)

    def __repr__(self) -> str:
        return f"NodeBuffer(kind={self.kind}, pages={len(self.pages)})"
