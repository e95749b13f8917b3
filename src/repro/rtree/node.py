"""Paged R-tree nodes with a packed struct-of-arrays entry layout.

A node occupies one page and holds up to ``N_entry`` entries (Table 1's
fan-out).  Leaf entries pair a (degenerate) rectangle with an object id;
branch entries pair a child MBR with the child's page id.

Entries are stored in one layout, a :class:`SoAEntries` container packing
the entry rectangles into flat ``array('d')`` coordinate columns (one per
dimension per bound) plus a parallel ``array('q')`` child/object-id
column.  Node scans are whole-node buffer kernels (``repro.core.geometry``)
that return what a per-entry loop over ``Rect`` methods returns, bit for
bit (``tests/test_soa_kernels.py``).  The one opt-out is
:class:`~repro.core.ctrtree.CTNode`, which sets ``LIST_ENTRIES`` and keeps
a plain python list because its leaf slots are
:class:`~repro.core.qsregion.QSEntry` records, which have no packed form.

The container presents a list-like surface (``append``/indexing/
iteration/equality) so call sites that only iterate keep working;
mutating sites in ``rtree.py``/``lazy.py`` use the explicit column API
(``set_rect``, ``set_point``, ``delete_row``, ``find_child``...).
Indexing it yields a live :class:`EntryView` proxy whose attribute writes
go straight through to the buffers.

Best-first kNN reads a whole node's bounds in one call:
``min_distances(point)`` gives every entry's ``Rect.min_distance`` (a
branch's child bounds) and ``point_distances(point)`` every point entry's
``math.dist`` (a leaf's candidates), the same doubles as those calls.
``SoAEntries.take(rows)`` gathers rows into a new container, which is how
a column split rebuilds its two groups.

Two fields are *metadata* in the sense of DESIGN.md section 5 -- bookkeeping a
real system would pin in memory, maintained without I/O charge, symmetrically
for every index:

* ``parent``: the parent page id, used by pointer-based deletion
  (Section 2.1: "if the deletion operation directly provides a pointer to the
  page in which the object is stored, then the cost for searching in the
  R-tree can be saved");
* ``mbr``: a mirror of this node's bounding rectangle as registered in its
  parent, used for the lazy same-MBR test.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.geometry import (
    Point,
    Rect,
    node_choose_subtree,
    node_containing_point_indices,
    node_intersecting_children,
    node_intersecting_indices,
    node_min_distances,
    node_point_distances,
    node_points_in,
    node_union,
)
from repro.storage.page import NO_PAGE, Page, PageId


class Entry:
    """One slot of a node: a rectangle plus a child pointer or object id."""

    __slots__ = ("rect", "child")

    def __init__(self, rect: Rect, child: int) -> None:
        self.rect = rect
        self.child = child

    @classmethod
    def for_point(cls, point: Point, obj_id: int) -> "Entry":
        return cls(Rect.from_point(point), obj_id)

    @property
    def point(self) -> Point:
        """The stored location of a leaf (point) entry."""
        return self.rect.lo

    def __repr__(self) -> str:
        return f"Entry({self.rect!r}, child={self.child})"


class EntryView:
    """A live proxy for one packed entry of a :class:`SoAEntries` container.

    Reading ``.rect`` materializes a :class:`Rect` from the coordinate
    columns; writing ``.rect``/``.child`` stores through to the buffers.
    Views stay valid while the owning container exists (they reference the
    container, not the node), but are invalidated by row removals before
    their index.
    """

    __slots__ = ("_owner", "_i")

    def __init__(self, owner: "SoAEntries", i: int) -> None:
        self._owner = owner
        self._i = i

    @property
    def rect(self) -> Rect:
        return self._owner.rect_at(self._i)

    @rect.setter
    def rect(self, rect: Rect) -> None:
        self._owner.set_rect(self._i, rect)

    @property
    def child(self) -> int:
        return self._owner.children[self._i]

    @child.setter
    def child(self, child: int) -> None:
        self._owner.children[self._i] = child

    @property
    def point(self) -> Point:
        return self._owner.point_at(self._i)

    def to_entry(self) -> Entry:
        return Entry(self.rect, self.child)

    def __repr__(self) -> str:
        return f"EntryView({self.rect!r}, child={self.child})"


#: Anything accepted where an entry is stored: a real :class:`Entry`, a
#: packed-entry view, or any object exposing ``.rect`` and ``.child``.
EntryLike = Union[Entry, EntryView]


class SoAEntries:
    """Packed struct-of-arrays entry storage for one node.

    Columns: ``children`` is an ``array('q')`` of child page ids / object
    ids; ``los[d]``/``his[d]`` are ``array('d')`` coordinate columns, one
    per dimension.  The dimensionality is fixed by the first appended
    entry (the empty container is dimension-agnostic).
    """

    __slots__ = ("dim", "children", "los", "his")

    def __init__(self) -> None:
        self.dim: int = 0
        self.children: array = array("q")
        self.los: Tuple[array, ...] = ()
        self.his: Tuple[array, ...] = ()

    # -- shape ---------------------------------------------------------------

    def _ensure_dim(self, dim: int) -> None:
        if self.dim == 0:
            self.dim = dim
            self.los = tuple(array("d") for _ in range(dim))
            self.his = tuple(array("d") for _ in range(dim))
        elif dim != self.dim:
            raise ValueError(
                f"dimension mismatch: container is {self.dim}-D, entry is {dim}-D"
            )

    def __len__(self) -> int:
        return len(self.children)

    # -- element access ------------------------------------------------------

    def _index(self, i: int) -> int:
        n = len(self.children)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("entry index out of range")
        return i

    def rect_at(self, i: int) -> Rect:
        return Rect._make(
            tuple(c[i] for c in self.los), tuple(c[i] for c in self.his)
        )

    def point_at(self, i: int) -> Point:
        return tuple(c[i] for c in self.los)

    def child_at(self, i: int) -> int:
        return self.children[i]

    def __getitem__(self, i: int) -> EntryView:
        return EntryView(self, self._index(i))

    def __setitem__(self, i: int, entry: EntryLike) -> None:
        i = self._index(i)
        self.set_rect(i, entry.rect)
        self.children[i] = entry.child

    def __iter__(self) -> Iterator[EntryView]:
        for i in range(len(self.children)):
            yield EntryView(self, i)

    def __eq__(self, other: object) -> bool:
        return _entries_equal(self, other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SoAEntries(n={len(self.children)}, dim={self.dim})"

    # -- mutation ------------------------------------------------------------

    def append(self, entry: EntryLike) -> None:
        rect = entry.rect
        lo = rect.lo
        self._ensure_dim(len(lo))
        hi = rect.hi
        for d, col in enumerate(self.los):
            col.append(lo[d])
        for d, col in enumerate(self.his):
            col.append(hi[d])
        self.children.append(entry.child)

    def append_packed(self, lo: Point, hi: Point, child: int) -> None:
        """Append already-canonical float bounds without building a Rect."""
        if len(lo) != self.dim:
            self._ensure_dim(len(lo))
        for col, coord in zip(self.los, lo):
            col.append(coord)
        for col, coord in zip(self.his, hi):
            col.append(coord)
        self.children.append(child)

    def extend(self, entries: Iterable[EntryLike]) -> None:
        for entry in entries:
            self.append(entry)

    def delete_row(self, i: int) -> None:
        """Remove entry ``i`` (negative counts from the end) from every
        column; nothing is built for it.  An index out of range raises
        ``IndexError`` before any column changes."""
        del self.children[i]
        for col in self.los:
            del col[i]
        for col in self.his:
            del col[i]

    def clear(self) -> None:
        for col in self.los:
            del col[:]
        for col in self.his:
            del col[:]
        del self.children[:]

    def set_rect(self, i: int, rect: Rect) -> None:
        lo = rect.lo
        self._ensure_dim(len(lo))
        hi = rect.hi
        for d, col in enumerate(self.los):
            col[i] = lo[d]
        for d, col in enumerate(self.his):
            col[i] = hi[d]

    def set_point(self, i: int, point: Sequence[float]) -> None:
        """Store a degenerate (point) rect, coercing like ``Rect.from_point``."""
        self._ensure_dim(len(point))
        for d, col in enumerate(self.los):
            coord = float(point[d])
            col[i] = coord
            self.his[d][i] = coord

    # -- lookups -------------------------------------------------------------

    def find_child(self, child: int) -> Optional[int]:
        try:
            return self.children.index(child)
        except ValueError:
            return None

    def find_point_entry(self, child: int, point: Point) -> Optional[int]:
        """First index with this child id *and* ``lo == point`` (tuple
        float equality, as ``entry.rect.lo == point``).

        A manual scan rather than ``children.index(child, start)``:
        ``array.array.index`` only grew start/stop in Python 3.10, and
        this package supports 3.9.
        """
        children = self.children
        los = self.los
        dim = self.dim
        if len(point) != dim:
            return None
        for i in range(len(children)):
            if children[i] == child and all(
                los[d][i] == point[d] for d in range(dim)
            ):
                return i
        return None

    def child_list(self) -> List[int]:
        return self.children.tolist()

    def take(self, rows: Sequence[int]) -> "SoAEntries":
        """A new container holding the given rows, in the order given --
        how a column split rebuilds its two groups."""
        out = SoAEntries()
        out.dim = self.dim
        children = self.children
        out.children = array("q", [children[i] for i in rows])
        out.los = tuple(array("d", [c[i] for i in rows]) for c in self.los)
        out.his = tuple(array("d", [c[i] for i in rows]) for c in self.his)
        return out

    def materialize(self) -> List[Entry]:
        """Unpack into real :class:`Entry` objects (stable identity, cached
        area) — what the split policies without a column form are handed."""
        los = self.los
        his = self.his
        return [
            Entry(
                Rect._make(
                    tuple(c[i] for c in los), tuple(c[i] for c in his)
                ),
                child,
            )
            for i, child in enumerate(self.children)
        ]

    def iter_packed(self) -> Iterator[Tuple[Point, Point, int]]:
        """Yield ``(lo, hi, child)`` per entry without Rect allocation —
        the snapshot encoder's path."""
        los = self.los
        his = self.his
        for i, child in enumerate(self.children):
            yield (
                tuple(c[i] for c in los),
                tuple(c[i] for c in his),
                child,
            )

    def iter_points(self) -> Iterator[Tuple[int, Point]]:
        """Yield ``(child, point)`` per (leaf) entry."""
        return zip(self.children, zip(*self.los))

    def fill_points(self, oids: array, columns: Sequence[array]) -> None:
        """Replace the contents with point entries held in packed columns:
        ``oids`` an ``array('q')``, ``columns`` one ``array('d')`` per
        dimension.  The container keeps the arrays it is given.  The bulk
        loaders' path: a leaf is filled from column slices, with no
        per-entry object.
        """
        self.dim = len(columns)
        self.children = oids
        self.los = tuple(columns)
        self.his = tuple(column[:] for column in columns)

    def point_columns(self) -> Tuple[array, Tuple[array, ...]]:
        """A leaf's ``(oids, columns)``: the ``array('q')`` id column and one
        ``array('d')`` coordinate column per dimension (none when empty).
        Read-only for callers; the inverse of :meth:`fill_points`."""
        return self.children, self.los

    # -- whole-node scans ----------------------------------------------------

    def intersecting_indices(self, qlo: Point, qhi: Point) -> List[int]:
        return node_intersecting_indices(self.los, self.his, qlo, qhi)

    def intersecting_children(self, qlo: Point, qhi: Point) -> List[int]:
        return node_intersecting_children(
            self.children, self.los, self.his, qlo, qhi
        )

    def containing_point_indices(self, point: Sequence[float]) -> List[int]:
        return node_containing_point_indices(self.los, self.his, point)

    def children_containing_point(self, point: Sequence[float]) -> List[int]:
        children = self.children
        return [
            children[i]
            for i in node_containing_point_indices(self.los, self.his, point)
        ]

    def points_in(self, qlo: Point, qhi: Point) -> List[Tuple[int, Point]]:
        return node_points_in(self.children, self.los, qlo, qhi)

    def choose_subtree(self, rlo: Point, rhi: Point) -> int:
        return node_choose_subtree(self.los, self.his, rlo, rhi)

    def union_rect(self) -> Optional[Rect]:
        return node_union(self.los, self.his)

    def min_distances(self, point: Sequence[float]) -> List[float]:
        return node_min_distances(self.los, self.his, point)

    def point_distances(self, point: Sequence[float]) -> List[float]:
        return node_point_distances(self.los, point)


def _entries_equal(container: SoAEntries, other: object) -> bool:
    """Element-wise (rect, child) equality against any entry sequence."""
    if isinstance(other, (SoAEntries, list, tuple)):
        if len(container) != len(other):  # type: ignore[arg-type]
            return False
        for i, entry in enumerate(other):  # type: ignore[arg-type]
            rect = getattr(entry, "rect", None)
            if rect is None:
                return False
            if container.rect_at(i) != rect or container.child_at(i) != entry.child:
                return False
        return True
    return NotImplemented  # type: ignore[return-value]


class RTreeNode(Page):
    """One R-tree node; ``level == 0`` means leaf."""

    __slots__ = ("level", "_entries", "parent", "mbr", "tag")

    #: True for subclasses that keep their entries in a plain python list
    #: instead of a packed :class:`SoAEntries` (CTNode's QSEntry slots).
    LIST_ENTRIES = False

    def __init__(self, level: int = 0) -> None:
        super().__init__()
        self.level = level
        self._entries: object = [] if type(self).LIST_ENTRIES else SoAEntries()
        self.parent: PageId = NO_PAGE
        self.mbr: Optional[Rect] = None
        #: Owner metadata: the CT-R-tree tags overflow alpha-R-tree nodes with
        #: the structural node that owns the buffer, so a hash pointer landing
        #: on this page can be resolved back to the right buffer.
        self.tag: Optional[object] = None

    @property
    def entries(self):
        return self._entries

    @entries.setter
    def entries(self, value) -> None:
        if type(self).LIST_ENTRIES:
            self._entries = list(value)
            return
        if isinstance(value, SoAEntries):
            self._entries = value
            return
        container = SoAEntries()
        container.extend(value)
        self._entries = container

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def is_root(self) -> bool:
        return self.parent == NO_PAGE

    def tight_mbr(self) -> Optional[Rect]:
        """The minimum bounding rectangle of the current entries."""
        entries = self._entries
        if isinstance(entries, list):
            if not entries:
                return None
            return Rect.union_all(e.rect for e in entries)
        return entries.union_rect()

    def find_entry(self, child: int) -> Optional[int]:
        """Index of the entry whose child/object id equals ``child``."""
        entries = self._entries
        if isinstance(entries, list):
            for i, entry in enumerate(entries):
                if entry.child == child:
                    return i
            return None
        return entries.find_child(child)

    def __repr__(self) -> str:
        return (
            f"RTreeNode(pid={self.pid}, level={self.level}, "
            f"entries={len(self._entries)})"
        )
