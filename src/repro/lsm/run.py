"""Immutable runs: bulk-loaded R-trees with oid/tombstone side tables.

A run is what one memtable flush (or one compaction merge) produces: an
STR-packed R-tree over the flushed points, a sorted ``array('q')`` of the
oids it holds and a sorted array of the oids it *tombstones* (deletes that
must suppress older runs).  Runs are never mutated after construction --
compaction replaces whole runs.

Membership is a ``bisect`` on those arrays and nothing else: in pure Python
no probabilistic pre-filter is cheaper than the 0.34-0.44 us binary search
it would gate (DESIGN.md section 15 has the measurements).

The side tables are main-memory and uncharged, consistent with the repo's
accounting rule that parent pointers and hash directories are uncharged
bookkeeping (DESIGN.md section 5); the run's *tree pages* are charged
normally on query and compaction reads.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, List, Tuple

import numpy as np

from repro.rtree.bulk import str_pack_columns
from repro.rtree.rtree import RTree
from repro.storage.pager import Pager


def _side_table(values: Iterable[int]) -> array:
    """``values`` as a sorted ``array('q')``; an ``array('q')`` is taken as
    already sorted (the build and merge kernels produce them that way)."""
    if isinstance(values, array):
        return values
    return array("q", sorted(values))


def _in_sorted(arr: array, key: int) -> bool:
    idx = bisect_left(arr, key)
    return idx < len(arr) and arr[idx] == key


def as_column(table: array) -> np.ndarray:
    """A zero-copy ``int64`` view of a side table."""
    return np.frombuffer(table, dtype=np.int64)


class Run:
    """One immutable sorted run of the LSM-R-tree."""

    __slots__ = ("tree", "oids", "tombstones", "seq")

    def __init__(
        self,
        tree: RTree,
        oids: Iterable[int],
        tombstones: Iterable[int],
        seq: int,
    ) -> None:
        self.tree = tree
        self.oids = _side_table(oids)
        self.tombstones = _side_table(tombstones)
        self.seq = seq

    def __len__(self) -> int:
        return len(self.oids)

    @property
    def size(self) -> int:
        """Total entries the run accounts for (live + tombstones); the
        quantity size-tiered compaction tiers on."""
        return len(self.oids) + len(self.tombstones)

    def mentions(self, oid: int) -> bool:
        """Does this run say *anything* about ``oid`` (live or tombstone)?

        A newer run mentioning an oid supersedes every older version of it.
        """
        return _in_sorted(self.oids, oid) or _in_sorted(self.tombstones, oid)

    def read_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every object in the run via a *charged* page walk, as columns:
        ``int64 (n,)`` oids and ``float64 (n, dim)`` coordinates in leaf
        order (``(0, 0)``-shaped for a run with no objects, whose dimension
        is unknown).

        Compaction uses this: merging runs re-reads their pages, and that
        cost must land on the ledger like any other page I/O.
        """
        leaves: List[Tuple[array, Tuple[array, ...]]] = []
        pager = self.tree.pager
        stack = [self.tree.root_pid]
        while stack:
            node = pager.read(stack.pop())
            if node.is_leaf:
                if len(node.entries):
                    leaves.append(node.entries.point_columns())
            else:
                stack.extend(node.entries.child_list())
        if not leaves:
            return np.empty(0, dtype=np.int64), np.empty((0, 0))
        oids = np.concatenate([as_column(ids) for ids, _ in leaves])
        coords = np.stack(
            [
                np.concatenate([np.frombuffer(columns[d]) for _, columns in leaves])
                for d in range(len(leaves[0][1]))
            ],
            axis=1,
        )
        return oids, coords

    def page_count(self) -> int:
        """Number of tree pages (uncharged walk)."""
        return self.tree.node_count()

    def free_pages(self) -> None:
        """Release every page of the run's tree (uncharged, like any free)."""
        pager = self.tree.pager
        stack = [self.tree.root_pid]
        while stack:
            pid = stack.pop()
            node = pager.inspect(pid)
            if not node.is_leaf:
                stack.extend(node.entries.child_list())
            pager.free(pid)

    def __repr__(self) -> str:
        return (
            f"Run(seq={self.seq}, live={len(self.oids)}, "
            f"tombstones={len(self.tombstones)}, pages={self.page_count()})"
        )


def build_run(
    pager: Pager,
    oids: np.ndarray,
    coords: np.ndarray,
    tombstones: np.ndarray,
    seq: int,
    *,
    max_entries: int = 20,
    split: str = "quadratic",
    fill: float = 0.9,
) -> Run:
    """STR-pack a fresh immutable run on ``pager`` from columns.

    ``oids`` is an ascending ``int64 (n,)`` column, ``coords`` the matching
    ``float64 (n, dim)`` positions and ``tombstones`` an ascending ``int64``
    column; the run's side tables are those columns as given (not re-sorted).

    Charged under whatever I/O category is active at the caller (the
    memtable flushes inside the driver's UPDATE scope; loads inside BUILD),
    so flush cost lands on the ledger exactly where the work happened.

    ``shrink_on_delete=False``: runs are append-only, and STR tiling
    legitimately leaves a final under-filled node per slice, which the
    traditional minimum-fill invariant would flag.
    """
    tree = RTree(
        pager,
        max_entries=max_entries,
        split=split,
        shrink_on_delete=False,
    )
    str_pack_columns(tree, oids, coords, fill=fill)
    return Run(
        tree, array("q", oids.tobytes()), array("q", tombstones.tobytes()), seq
    )
