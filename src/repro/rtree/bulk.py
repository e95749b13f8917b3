"""Sort-Tile-Recursive (STR) bulk loading of point sets.

The paper notes that "bulk loading techniques [3] for R-tree can be applied"
when building the structural R-tree over qs-regions (Section 3.1.4); the
authors use repeated insertion, and so does the CT-R-tree builder here.
STR packing loads the LSM-R-tree's immutable runs and the initial
positions of the ``bulk_loading`` ablation.

STR (Leutenegger et al.): sort the rectangles by the x-coordinate of their
centers, cut into vertical slices of ``ceil(sqrt(P))`` pages each, sort every
slice by center y, and pack runs of ``capacity`` into nodes; repeat one level
up until a single node remains.

Every level is tiled in columns (:func:`str_pack_columns`): a stable
``argsort`` on center x, a stable sort on center y inside each slice.  The
leaf level's centers are the points themselves, its MBRs come from
``reduceat`` and its leaves are filled from column slices; a branch level's
centers are ``(lo + hi) / 2.0`` over its children's MBR columns.  A finished
group lands in the node's entry container in group order, so bulk-loaded
trees are laid out identically under either entry layout.
"""

from __future__ import annotations

import math
from array import array
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.geometry import Point, Rect
from repro.rtree.node import RTreeNode
from repro.rtree.rtree import RTree
from repro.storage.page import NO_PAGE


def _str_order(centers: np.ndarray, capacity: int) -> np.ndarray:
    """The STR tiling of rows with ``centers`` (``float64 (n, dim)``): the
    row order in which consecutive runs of ``capacity`` form the nodes.

    Sorts are stable over the input order, so every tie breaks the way
    ``sorted()`` over the same rows breaks it.
    """
    n = len(centers)
    slice_count = math.ceil(math.sqrt(math.ceil(n / capacity)))
    per_slice = slice_count * capacity
    order = np.argsort(centers[:, 0], kind="stable")
    if centers.shape[1] > 1:
        # Within each vertical slice, stably by y: ties keep the x order.
        # A slice is a whole number of nodes, so nodes start every
        # ``capacity`` rows.
        slices = np.arange(n) // per_slice
        order = order[np.lexsort((centers[order, 1], slices))]
    return order


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

    Every level is tiled with stable sorts over its input order, so the
    tree -- every node, its entry order, every page id -- is the one
    sorting per-entry objects with ``sorted()`` builds.  Leaves are filled
    straight from column slices; a branch level sorts its children's MBR
    centers, ``(lo + hi) / 2.0`` -- the double ``Rect.center`` computes --
    and appends each child's bounds as they are.
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

    order = _str_order(coords, capacity)
    tiled = coords[order].T  # one row per dimension, in leaf order
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
        child_lo = [node.mbr.lo for node in nodes]
        child_hi = [node.mbr.hi for node in nodes]
        centers = (np.array(child_lo) + np.array(child_hi)) / 2.0
        order_list = _str_order(centers, capacity).tolist()
        parents: List[RTreeNode] = []
        for start in range(0, len(order_list), capacity):
            parent = RTreeNode(level=level)
            entries = parent.entries
            group = order_list[start : start + capacity]
            for i in group:
                entries.append_packed(child_lo[i], child_hi[i], nodes[i].pid)
            parent.mbr = parent.tight_mbr()
            pager.allocate(parent)
            for i in group:
                nodes[i].parent = parent.pid
            parents.append(parent)
        nodes = parents

    root = nodes[0]
    root.parent = NO_PAGE
    pager.free(tree.root_pid)  # discard the empty bootstrap root
    tree._root_pid = root.pid
    tree._size = n
    return tree
