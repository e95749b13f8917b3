"""Sort-Tile-Recursive (STR) bulk loading.

The paper notes that "bulk loading techniques [3] for R-tree can be applied"
when building the structural R-tree over qs-regions (Section 3.1.4); the
authors use repeated insertion for simplicity.  Both paths are provided here:
the CT-R-tree builder defaults to repeated insertion (matching the paper) and
can switch to STR packing, which the ablation bench compares.

STR (Leutenegger et al.): sort the rectangles by the x-coordinate of their
centers, cut into vertical slices of ``ceil(sqrt(P))`` pages each, sort every
slice by center y, and pack runs of ``capacity`` into nodes; repeat one level
up until a single node remains.

Point loads tile the leaf level in columns (:func:`str_pack_columns`: stable
``argsort`` on x, stable sort on y inside each slice, ``reduceat`` for the
leaf MBRs, leaves filled from column slices); branch levels and rectangle
loads tile real :class:`Entry` objects.  Either way a finished group lands
in the node's entry container in group order, so bulk-loaded trees are laid
out identically under either entry layout.
"""

from __future__ import annotations

import math
from array import array
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.geometry import Point, Rect
from repro.rtree.node import Entry, RTreeNode
from repro.rtree.rtree import RTree
from repro.storage.page import NO_PAGE


def _tile(entries: List[Entry], capacity: int) -> List[List[Entry]]:
    """Group entries into STR tiles of at most ``capacity`` each."""
    n = len(entries)
    page_count = math.ceil(n / capacity)
    slice_count = math.ceil(math.sqrt(page_count))
    per_slice = slice_count * capacity

    ordered = sorted(entries, key=lambda e: e.rect.center[0])
    groups: List[List[Entry]] = []
    for start in range(0, n, per_slice):
        chunk = sorted(
            ordered[start : start + per_slice],
            key=lambda e: e.rect.center[1] if e.rect.dim > 1 else 0.0,
        )
        for j in range(0, len(chunk), capacity):
            groups.append(chunk[j : j + capacity])
    return groups


def str_pack(
    tree: RTree,
    items: Sequence[Tuple[int, Point]],
    fill: float = 0.7,
) -> RTree:
    """Bulk-load point ``items`` (pairs of object id and point) into an empty tree.

    Node allocations are charged as writes, so loading under
    ``stats.category(IOCategory.BUILD)`` attributes the construction cost the
    same way repeated insertion would.
    """
    oids = np.fromiter((obj_id for obj_id, _ in items), np.int64, len(items))
    coords = np.array([point for _, point in items], dtype=np.float64)
    return str_pack_columns(tree, oids, coords, fill)


def str_pack_columns(
    tree: RTree,
    oids: np.ndarray,
    coords: np.ndarray,
    fill: float = 0.7,
) -> RTree:
    """:func:`str_pack` over columns: ``oids`` is ``int64 (n,)`` and
    ``coords`` ``float64 (n, dim)``, row ``i`` being object ``oids[i]``.

    The leaf level is tiled with stable sorts over the input order, so the
    tree -- every leaf, its entry order, every page id -- is the one sorting
    per-entry objects with ``sorted()`` builds; each leaf is filled straight
    from column slices.  Branch levels hold ``n / capacity`` entries and
    tile real :class:`Entry` objects.
    """
    if len(tree) != 0:
        raise ValueError("str_pack requires an empty tree")
    if not 0.0 < fill <= 1.0:
        raise ValueError("fill must be in (0, 1]")
    n = len(oids)
    if n == 0:
        return tree

    pager = tree.pager
    capacity = max(2, int(tree.max_entries * fill))
    slice_count = math.ceil(math.sqrt(math.ceil(n / capacity)))
    per_slice = slice_count * capacity

    order = np.argsort(coords[:, 0], kind="stable")
    if coords.shape[1] > 1:
        # Within each vertical slice, stably by y: ties keep the x order.
        slices = np.arange(n) // per_slice
        order = order[np.lexsort((coords[order, 1], slices))]
    tiled = coords[order].T  # one row per dimension, in leaf order
    # A slice is a whole number of leaves, so leaves start every ``capacity``.
    starts = np.arange(0, n, capacity)
    los = np.minimum.reduceat(tiled, starts, axis=1).T
    his = np.maximum.reduceat(tiled, starts, axis=1).T
    # Of two equal values numpy keeps the later and min()/max() -- what a
    # node's tight_mbr() computes -- the earlier; only a zero bound can tell
    # (its sign), so those few are taken the way tight_mbr() takes them.
    for leaf, d in np.argwhere((los == 0.0) | (his == 0.0)).tolist():
        start = leaf * capacity
        values = tiled[d, start : start + capacity].tolist()
        los[leaf, d] = min(values)
        his[leaf, d] = max(values)
    # Through bytes into ``array`` columns: no numpy scalar reaches a node.
    oid_column = array("q", oids[order].tobytes())
    columns = [array("d", row.tobytes()) for row in tiled]

    nodes: List[RTreeNode] = []
    for lo, hi, start in zip(los.tolist(), his.tolist(), starts.tolist()):
        stop = start + capacity
        node = RTreeNode(level=0)
        node.entries.fill_points(
            oid_column[start:stop], [column[start:stop] for column in columns]
        )
        node.mbr = Rect._make(tuple(lo), tuple(hi))
        pager.allocate(node)
        nodes.append(node)

    # Stack branch levels until one node remains.
    level = 0
    while len(nodes) > 1:
        level += 1
        parent_entries = [
            Entry(node.mbr, node.pid) for node in nodes if node.mbr is not None
        ]
        parents: List[RTreeNode] = []
        for group in _tile(parent_entries, capacity):
            parent = RTreeNode(level=level)
            parent.entries = group
            parent.mbr = parent.tight_mbr()
            pager.allocate(parent)
            for entry in group:
                child = pager.inspect(entry.child)
                assert isinstance(child, RTreeNode)
                child.parent = parent.pid
            parents.append(parent)
        nodes = parents

    root = nodes[0]
    root.parent = NO_PAGE
    pager.free(tree.root_pid)  # discard the empty bootstrap root
    tree._root_pid = root.pid
    tree._size = n
    return tree


def str_pack_rects(
    tree: RTree,
    rects: Sequence[Tuple[Rect, int]],
    fill: float = 0.7,
) -> RTree:
    """Bulk-load (rect, payload-id) pairs; used to pack structural skeletons."""
    if len(tree) != 0:
        raise ValueError("str_pack_rects requires an empty tree")
    items = [Entry(rect, payload) for rect, payload in rects]
    if not items:
        return tree
    pager = tree.pager
    capacity = max(2, int(tree.max_entries * fill))

    nodes: List[RTreeNode] = []
    for group in _tile(items, capacity):
        node = RTreeNode(level=0)
        node.entries = group
        node.mbr = node.tight_mbr()
        pager.allocate(node)
        nodes.append(node)
    level = 0
    while len(nodes) > 1:
        level += 1
        parent_entries = [Entry(n.mbr, n.pid) for n in nodes if n.mbr is not None]
        parents = []
        for group in _tile(parent_entries, capacity):
            parent = RTreeNode(level=level)
            parent.entries = group
            parent.mbr = parent.tight_mbr()
            pager.allocate(parent)
            for entry in group:
                child = pager.inspect(entry.child)
                assert isinstance(child, RTreeNode)
                child.parent = parent.pid
            parents.append(parent)
        nodes = parents
    root = nodes[0]
    root.parent = NO_PAGE
    pager.free(tree.root_pid)
    tree._root_pid = root.pid
    tree._size = len(items)
    return tree
