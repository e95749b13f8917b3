"""The lazy-R-tree: an R-tree plus the secondary hash index of Figure 1.

Paper Section 2.1: "all the updates where the new location is in the same
MBR as the old location can be accomplished with a constant number of I/Os.
Note that the R-tree structure does not change due to such updates (only the
location of the updated object is changed in the corresponding leaf node)."

Concretely, :meth:`LazyRTree.update` costs:

* **3 I/Os** on the lazy path -- one hash-bucket read, one leaf read, one
  leaf write -- whenever the new location stays inside the leaf's MBR;
* a pointer-based delete + fresh insert + hash repoint otherwise.

The hash index is kept exact: whenever a split or a condense-reinsertion
moves objects to a different leaf page, the affected bucket pages are
rewritten (coalesced per bucket), which is the honest maintenance cost of
the scheme.

Those are per-*page* costs, so a batch pays them per page, not per update.
:meth:`LazyRTree.apply_batch` (what ``UpdateBuffer.flush`` and the serving
daemon's writer call) runs in a :class:`~repro.storage.pager.PageEpoch` on
its store: **each page the batch touches is read at most once and written
at most once**, its writes charged when the batch ends (on the error path
too), and nothing is kept between batches.  For a batch of ``n`` moves:

* **one read per distinct hash bucket** the ``n`` ids fall in;
* **one read + one write per distinct leaf** they live in -- every same-MBR
  hit overwritten and every escapee removed in that one visit;
* one ordinary ``RTree.insert`` per escapee, in batch order and deciding
  as it would alone -- the packed point path, which builds an entry only
  for a split -- whose descent reads only the nodes no earlier step of the
  batch has read (the root and inner nodes once per batch, a leaf the hit
  pass visited not again), and whose writes fold into the one write of
  each page;
* **one write per hash bucket** any repoint of the batch (the escapees' own,
  or a split's) lands in, and a read only for a bucket the ids did not
  already fall in.

A page a split allocates is charged one write on allocation, and one more
when the batch ends if it changed after that.  A batch of one costs at most
what :meth:`LazyRTree.update` does: a hit the same 3 I/Os, an escapee less
whenever its descent, its leaf writes or its repoint meet a page the batch
already holds (a lone-leaf tree: 2 reads and 2 writes against 4 and 3).

The Python a batch costs is not shaped like its I/O.  On the e2e
``replay_lazy_batched`` stream (2 000 objects behind a 64-update buffer,
about 15 % of moves escaping their leaf) an update costs ~7.3 µs of Python
on a shared 2-vCPU host (per-call timers): 5.5 in the flush -- 2.9
re-inserting escapees, of which 1.9 is the least-enlargement descent and
0.4 splits; 2.2 the hit loop and grouping; 0.25 removing escapees from
their leaves -- and 0.7 buffering it (``UpdateBuffer.put``).  An escapee
costs about seven hits, mostly its two 20-entry choose-subtree scans.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.geometry import Point, Rect, check_point, finite
from repro.hashindex import HashIndex
from repro.rtree.node import RTreeNode
from repro.rtree.rtree import RTree
from repro.storage.page import PageId
from repro.storage.pager import PageEpoch, Pager

if TYPE_CHECKING:
    from repro.engine.buffer import PendingUpdate


class LazyRTree:
    """R-tree with lazy updates through a secondary hash index on object id."""

    def __init__(
        self,
        pager: Pager,
        max_entries: int = 20,
        min_fill: float = 0.4,
        split: str = "quadratic",
        alpha: float = 0.0,
        hash_index: Optional[HashIndex] = None,
        forced_reinsert: float = 0.0,
    ) -> None:
        self.tree = RTree(
            pager,
            max_entries=max_entries,
            min_fill=min_fill,
            split=split,
            alpha=alpha,
            shrink_on_delete=False,
            on_entries_moved=self._entries_moved,
            forced_reinsert=forced_reinsert,
        )
        self.hash = hash_index if hash_index is not None else HashIndex(pager)
        #: Updates absorbed by the cheap same-MBR path vs. full relocations.
        self.lazy_hits = 0
        self.relocations = 0

    # -- plumbing ----------------------------------------------------------

    def _entries_moved(self, pairs: List[Tuple[int, PageId]]) -> None:
        self.hash.set_many(pairs)

    @property
    def pager(self) -> Pager:
        return self.tree.pager

    def __len__(self) -> int:
        return len(self.tree)

    # -- operations ---------------------------------------------------------

    def insert(
        self, obj_id: int, point: Sequence[float], now: Optional[float] = None
    ) -> PageId:
        del now  # interface parity with the CT-R-tree
        pid = self.tree.insert(obj_id, point)
        # The split callback may already have repointed obj_id; setting again
        # is idempotent and keeps the common (no-split) case simple.
        self.hash.set(obj_id, pid)
        return pid

    def delete(self, obj_id: int) -> bool:
        """Pointer-based deletion: hash lookup instead of spatial search."""
        pid, bucket = self.hash.lookup(obj_id)
        if pid is None:
            return False
        deleted = self.tree.delete_at(obj_id, pid)
        if deleted is None:
            return False
        self.hash.repoint(bucket, obj_id, None)
        return True

    def update(
        self,
        obj_id: int,
        old_point: Sequence[float],
        new_point: Sequence[float],
        now: Optional[float] = None,
    ) -> PageId:
        """Move ``obj_id`` to ``new_point``; lazy when the leaf MBR tolerates it.

        ``old_point`` and ``now`` are accepted for interface parity with the
        other indexes but are not needed -- the hash index locates the object
        and nothing here is time-driven.
        """
        del old_point, now
        new_point = tuple(new_point)
        check_point(obj_id, new_point, self.tree.dim)
        pid, bucket = self.hash.lookup(obj_id)
        if pid is None:
            raise KeyError(f"object {obj_id} is not indexed")
        node = self.tree.pager.read(pid)
        assert isinstance(node, RTreeNode)
        idx = node.find_entry(obj_id)
        if idx is None:
            raise KeyError(f"stale hash pointer for object {obj_id}")
        if node.mbr is not None and node.mbr.contains_point(new_point):
            # Lazy path: overwrite the packed point columns in place (the
            # entry keeps its slot and object id; only coordinates change).
            node.entries.set_point(idx, new_point)
            self.tree.pager.write(node)
            self.lazy_hits += 1
            return pid
        self.relocations += 1
        self.tree.delete_from_node(node, idx)
        new_pid = self.tree.insert(obj_id, new_point)
        self.hash.repoint(bucket, obj_id, new_pid)
        return new_pid

    def apply_batch(self, batch: Sequence["PendingUpdate"]) -> int:
        """Apply a whole batch of moves and inserts, page by page.

        The batch need not be coalesced: a repeated id resolves to its last
        entry, in whose place it is applied.  Whether an id is a move or an
        insert is what the hash index says, not ``old_point``; an id the hash
        does not hold must enter the batch as an insert (``old_point`` None),
        else ``KeyError`` is raised before any page is changed; so is
        ``ValueError`` for a point whose dimension is not the tree's or with
        a coordinate that is not a finite float.  Returns ``len(batch)``.

        The resulting tree is a valid lazy-R-tree holding the same objects at
        the same points as sequential application would, but not the same
        tree: all same-MBR tests run against the leaves as the batch found
        them, before any escapee is re-inserted.

        The call runs in a :class:`~repro.storage.pager.PageEpoch` on the
        tree's store (and the hash index's, if another): each page is read
        and written at most once.

        A stale hash pointer (corruption ``verify_index`` reports) cannot be
        known before its leaf is read; it aborts the batch there with
        ``KeyError``.  Objects already moved stay moved, the others keep
        their old points, none is lost or doubled, the pages already
        changed are written, and since a move is idempotent the whole batch
        can be applied again after the repair.
        """
        target: Dict[int, Point] = {}
        arrives: Set[int] = set()
        tree = self.tree
        dim = tree.dim
        for update in batch:
            oid = update.oid
            point = tuple(update.point)
            if len(point) != dim:
                # An empty tree takes the batch's first dimension.
                if dim:
                    check_point(oid, point, dim)  # raises: wrong dimension
                dim = len(point)
            if oid in target:
                del target[oid]  # re-queue at its last occurrence
            elif update.old_point is None:
                arrives.add(oid)
            target[oid] = point
        # One pass over every coordinate of the batch; the points are looked
        # through again only to name the offender.
        if not finite(chain.from_iterable(target.values())):
            for oid, point in target.items():
                check_point(oid, point)  # raises at the first offender

        store = tree.pager
        hash_store = self.hash._pager
        with PageEpoch(store) as pages:
            if hash_store is store:
                self._apply_moves(target, arrives, pages)
            else:
                with PageEpoch(hash_store):
                    self._apply_moves(target, arrives, pages)
        return len(batch)

    def _apply_moves(
        self, target: Dict[int, Point], arrives: Set[int], pages: PageEpoch
    ) -> None:
        """The body of :meth:`apply_batch` over validated, coalesced moves."""
        tree = self.tree
        by_leaf: Dict[PageId, List[Tuple[int, Point]]] = {}
        homeless: Set[int] = set()
        for move, pid in zip(target.items(), self.hash.get_many(list(target))):
            if pid is None:
                if move[0] not in arrives:
                    raise KeyError(f"object {move[0]} is not indexed")
                homeless.add(move[0])
            elif pid in by_leaf:
                by_leaf[pid].append(move)
            else:
                by_leaf[pid] = [move]

        # One visit per leaf, inlined: this loop is the batch's hot path.
        # Nothing has read a leaf yet in this epoch (only hash buckets), so
        # each is fetched from the store and filed in hand without the
        # lookup ``pages.read`` would make first.
        held = pages.held
        fetch = pages.fetch
        write = pages.write
        hits = relocated = 0
        try:
            for pid, moves in by_leaf.items():
                node = held[pid] = fetch(pid)
                assert isinstance(node, RTreeNode)
                mbr = node.mbr
                entries = node.entries
                find = entries.children.index
                rows: List[int] = []
                gone: List[int] = []
                if mbr is not None and entries.dim == 2:
                    # The same-MBR test and the point store of
                    # ``Rect.contains_point`` / ``SoAEntries.set_point``,
                    # on the columns and bounds read once per leaf.
                    lx, ly = mbr.lo
                    hx, hy = mbr.hi
                    xs, ys = entries.los
                    xh, yh = entries.his
                    for oid, point in moves:
                        try:
                            idx = find(oid)
                        except ValueError:
                            stale = f"stale hash pointer for object {oid}"
                            raise KeyError(stale) from None
                        x, y = point
                        if lx <= x <= hx and ly <= y <= hy:
                            # A ``'d'`` column stores ``float(x)`` itself.
                            xs[idx] = xh[idx] = x
                            ys[idx] = yh[idx] = y
                        else:
                            rows.append(idx)
                            gone.append(oid)
                else:
                    for oid, point in moves:
                        idx = entries.find_child(oid)
                        if idx is None:
                            raise KeyError(f"stale hash pointer for object {oid}")
                        if mbr is not None and mbr.contains_point(point):
                            entries.set_point(idx, point)
                        else:
                            rows.append(idx)
                            gone.append(oid)
                hits += len(moves) - len(rows)
                if rows:
                    # Homeless only once they are really out of the leaf: a
                    # stale pointer above must not re-insert a resident.
                    relocated += len(rows)
                    tree.delete_many_from_node(node, rows)
                    homeless.update(gone)
                else:
                    write(node)
        finally:
            # Runs on the error path too: whatever already left its leaf
            # goes back in, so every object stays indexed exactly once.
            self.lazy_hits += hits
            self.relocations += relocated
            if homeless:
                self._insert_all(
                    [move for move in target.items() if move[0] in homeless]
                )

    def _insert_all(self, placements: Sequence[Tuple[int, Point]]) -> None:
        """Insert in order, gathering every hash repoint -- each object's own
        and any a split reports -- for one last-writer-wins ``set_many``."""
        tree = self.tree
        repoint: Dict[int, PageId] = {}
        report_moves = tree.on_entries_moved
        tree.on_entries_moved = repoint.update
        try:
            for oid, point in placements:
                repoint[oid] = tree.insert(oid, point)
        finally:
            tree.on_entries_moved = report_moves
            self.hash.set_many(repoint.items())

    def range_search(self, rect: Rect) -> List[Tuple[int, Point]]:
        return self.tree.range_search(rect)

    def search_point(self, point: Sequence[float]) -> List[int]:
        return self.tree.search_point(point)

    def nearest(
        self, point: Sequence[float], k: int = 1
    ) -> List[Tuple[float, int, Point]]:
        """The ``k`` nearest objects as (distance, id, point): the tree's
        best-first search, whose bounds hold over loose MBRs too."""
        return self.tree.nearest(point, k)

    # -- uncharged introspection ------------------------------------------

    def iter_objects(self) -> Iterator[Tuple[int, Point]]:
        return self.tree.iter_objects()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(size={len(self.tree)}, "
            f"lazy_hits={self.lazy_hits}, relocations={self.relocations})"
        )
