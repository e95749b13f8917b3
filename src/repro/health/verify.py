"""Structural verification: an fsck for every registered index kind.

``verify_index`` walks an index with *uncharged* page inspection (it is a
diagnostic, not a workload) and checks the cross-structure invariants each
family promises:

* R-tree family: parent pointers, level consistency, fan-out bounds, MBR
  containment, size counters;
* lazy family: all of the above plus exact hash-index <-> leaf agreement
  in both directions (stale pointers *and* orphaned entries);
* CT-R-tree: qs-region page chains (chain/fills agreement, page
  ownership, region containment), overflow buffers (list fills,
  alpha-tree leaf tags and bounds), duplicates, hash agreement, size;
* sharded engine: each shard verified where it lives (the ``verify``
  shard command), plus router coverage -- every resident object lives in
  the shard its position maps to and the owner map mirrors actual
  residency;
* B+-tree family: key order, separator intervals and their mirrors,
  arity, leaf-chain membership and order, duplicates, size, and (lazy
  variant) hash agreement in both directions.

This module is the only structural checker: no index kind carries its own
``validate``, and an object of a type not listed above reads one
``unsupported`` violation.

Violations are typed (:class:`Violation` carries a stable ``code``, a
human-readable location, and a ``repairable`` flag); :func:`repair_index`
fixes the recoverable classes -- stale/orphaned hash entries, escaped
MBRs (re-widened, never shrunk, so lazy-update semantics survive), stale
fill counters, and stale shard-router entries -- and the caller re-runs
``verify_index`` to confirm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.btree.bptree import HIGH_SENTINEL, LOW_SENTINEL, BPlusTree, Composite
from repro.btree.lazy import LazyBPlusTree
from repro.core.ctrtree import CTRTree
from repro.core.geometry import Point, Rect
from repro.core.overflow import OWNER_QS, DataPage, NodeBuffer, QSEntry
from repro.engine.sharded import ShardedIndex
from repro.hashindex import HashIndex
from repro.lsm.tree import LSMRTree
from repro.rtree.alpha import AlphaTree
from repro.rtree.lazy import LazyRTree
from repro.rtree.node import Entry
from repro.rtree.rtree import RTree
from repro.storage.iostats import IOCategory
from repro.storage.page import NO_PAGE, PageId


@dataclass(frozen=True)
class Violation:
    """One broken invariant: a stable code, where, what, and whether
    :func:`repair_index` knows how to fix it."""

    code: str
    location: str
    message: str
    repairable: bool = False

    def __str__(self) -> str:
        flag = " [repairable]" if self.repairable else ""
        return f"{self.code} @ {self.location}: {self.message}{flag}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "location": self.location,
            "message": self.message,
            "repairable": self.repairable,
        }


@dataclass
class VerifyReport:
    """The verifier's audit trail for one index."""

    kind: str = ""
    violations: List[Violation] = field(default_factory=list)
    checked_nodes: int = 0
    checked_objects: int = 0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(
        self, code: str, location: str, message: str, *, repairable: bool = False
    ) -> None:
        self.violations.append(Violation(code, location, message, repairable))

    def repairable(self) -> List[Violation]:
        return [v for v in self.violations if v.repairable]

    def by_code(self, code: Optional[str] = None):
        """Without ``code``: a ``{code: count}`` tally; with it, the
        matching violations."""
        if code is not None:
            return [v for v in self.violations if v.code == code]
        tally: Dict[str, int] = {}
        for violation in self.violations:
            tally[violation.code] = tally.get(violation.code, 0) + 1
        return tally

    def summary(self) -> str:
        if self.ok:
            return (
                f"{self.kind}: OK ({self.checked_nodes} nodes, "
                f"{self.checked_objects} objects checked)"
            )
        codes = ", ".join(f"{c}×{n}" for c, n in sorted(self.by_code().items()))
        return f"{self.kind}: {len(self.violations)} violation(s) [{codes}]"

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "checked_nodes": self.checked_nodes,
            "checked_objects": self.checked_objects,
            "elapsed_s": self.elapsed_s,
        }


@dataclass
class RepairReport:
    """What :func:`repair_index` changed."""

    kind: str = ""
    hash_repointed: int = 0
    hash_orphans_removed: int = 0
    mbrs_widened: int = 0
    fills_recomputed: int = 0
    router_entries_fixed: int = 0

    @property
    def total(self) -> int:
        return (
            self.hash_repointed
            + self.hash_orphans_removed
            + self.mbrs_widened
            + self.fills_recomputed
            + self.router_entries_fixed
        )

    def merge(self, other: "RepairReport") -> None:
        self.hash_repointed += other.hash_repointed
        self.hash_orphans_removed += other.hash_orphans_removed
        self.mbrs_widened += other.mbrs_widened
        self.fills_recomputed += other.fills_recomputed
        self.router_entries_fixed += other.router_entries_fixed

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "hash_repointed": self.hash_repointed,
            "hash_orphans_removed": self.hash_orphans_removed,
            "mbrs_widened": self.mbrs_widened,
            "fills_recomputed": self.fills_recomputed,
            "router_entries_fixed": self.router_entries_fixed,
            "total": self.total,
        }


# -- dispatch --------------------------------------------------------------


def verify_index(index) -> VerifyReport:
    """Check every structural invariant of ``index`` -> :class:`VerifyReport`.

    Dispatch is by concrete type over the built-in families; an object of
    any other type reads one ``unsupported`` violation.
    """
    t0 = perf_counter()
    inner = getattr(index, "inner", None)
    if inner is not None and hasattr(index, "health_state"):
        # A self-healing wrapper: verify whatever currently serves.
        report = verify_index(inner)
        report.elapsed_s = perf_counter() - t0
        return report

    report = VerifyReport()
    if isinstance(index, ShardedIndex):
        report.kind = "sharded"
        _verify_sharded(index, report)
    elif isinstance(index, LSMRTree):
        report.kind = "lsm"
        _verify_lsm(index, report)
    elif isinstance(index, CTRTree):
        report.kind = "ct"
        _verify_ct(index, report)
    elif isinstance(index, LazyRTree):
        report.kind = "alpha" if isinstance(index, AlphaTree) else "lazy"
        _verify_lazy(index, report)
    elif isinstance(index, RTree):
        report.kind = "rtree"
        _walk_rtree(index, report)
    elif isinstance(index, LazyBPlusTree):
        report.kind = "lazy-bptree"
        _check_hash(index.hash, _verify_bptree(index.tree, report), report)
    elif isinstance(index, BPlusTree):
        report.kind = "bptree"
        _verify_bptree(index, report)
    else:
        report.kind = type(index).__name__
        report.add(
            "unsupported", report.kind, "no verifier exists for this index type"
        )
    report.elapsed_s = perf_counter() - t0
    return report


# -- R-tree family ---------------------------------------------------------


def _walk_rtree(
    tree: RTree, report: VerifyReport, prefix: str = ""
) -> Dict[int, PageId]:
    """Structural walk shared by every R-tree-shaped verifier; returns the
    object -> leaf-pid residency map."""
    live: Dict[int, PageId] = {}
    root = tree.pager.inspect(tree.root_pid)
    if root.parent != NO_PAGE:
        report.add("structure", f"{prefix}root", "root has a parent pointer")
    stack: List[Tuple[PageId, Optional[Rect], int]] = [
        (tree.root_pid, None, root.level)
    ]
    while stack:
        pid, covering, expected_level = stack.pop()
        node = tree.pager.inspect(pid)
        report.checked_nodes += 1
        loc = f"{prefix}node {pid}"
        if node.level != expected_level:
            report.add(
                "structure", loc, f"level {node.level} != expected {expected_level}"
            )
        fill = len(node.entries)
        if pid != tree.root_pid:
            if tree.shrink_on_delete:
                if not tree.min_entries <= fill <= tree.max_entries:
                    report.add(
                        "fanout",
                        loc,
                        f"fill {fill} outside "
                        f"[{tree.min_entries}, {tree.max_entries}]",
                    )
            elif fill == 0 or fill > tree.max_entries:
                report.add(
                    "fanout", loc, f"fill {fill} outside (0, {tree.max_entries}]"
                )
        # Walk the packed entry columns directly (``iter_packed`` yields the
        # canonical (lo, hi, child) bounds without per-entry view objects);
        # a Rect is only materialized for branch entries, which descend.
        for lo, hi, entry_child in node.entries.iter_packed():
            if covering is not None and not (
                covering.contains_rect(Rect._make(lo, hi))
            ):
                report.add(
                    "mbr-containment",
                    loc,
                    f"entry {entry_child} escapes the parent rectangle",
                    repairable=True,
                )
            if node.mbr is not None and not node.mbr.contains_rect(
                Rect._make(lo, hi)
            ):
                report.add(
                    "mbr-containment",
                    loc,
                    f"entry {entry_child} escapes the node's own MBR",
                    repairable=True,
                )
            if node.is_leaf:
                report.checked_objects += 1
                if entry_child in live:
                    report.add(
                        "duplicate-object",
                        loc,
                        f"object {entry_child} stored twice",
                    )
                live[entry_child] = pid
            else:
                child = tree.pager.inspect(entry_child)
                if child.parent != pid:
                    report.add(
                        "structure",
                        f"{prefix}node {entry_child}",
                        f"parent pointer {child.parent} != {pid}",
                    )
                stack.append((entry_child, Rect._make(lo, hi), node.level - 1))
    if len(live) != len(tree):
        report.add(
            "size-counter",
            f"{prefix}tree",
            f"size counter {len(tree)} != stored objects {len(live)}",
        )
    return live


def _verify_lazy(lazy: LazyRTree, report: VerifyReport) -> None:
    live = _walk_rtree(lazy.tree, report)
    _check_hash(lazy.hash, live, report)


def _check_hash(
    hash_index: HashIndex, live: Dict[int, PageId], report: VerifyReport
) -> None:
    """Hash <-> residency agreement in both directions."""
    for obj_id, pid in live.items():
        pointed = hash_index.peek(obj_id)
        if pointed != pid:
            report.add(
                "hash-stale",
                "hash",
                f"object {obj_id} points at {pointed}, lives in {pid}",
                repairable=True,
            )
    for obj_id, bucket_no in _iter_hash_entries(hash_index):
        if obj_id not in live:
            report.add(
                "hash-orphan",
                f"hash bucket {bucket_no}",
                f"entry for unknown object {obj_id}",
                repairable=True,
            )


def _iter_hash_entries(hash_index: HashIndex) -> Iterator[Tuple[int, int]]:
    """Every (object id, bucket number) with a non-null slot; uncharged."""
    per = hash_index.entries_per_bucket
    for bucket_no, bpid in sorted(hash_index._buckets.items()):
        page = hash_index._pager.inspect(bpid)
        for slot, value in enumerate(page.slots):
            if value is not None:
                yield bucket_no * per + slot, bucket_no


# -- LSM-R-tree ------------------------------------------------------------


def _verify_lsm(lsm: LSMRTree, report: VerifyReport) -> None:
    """Run-level R-tree invariants plus the LSM's own cross-run promises.

    * every run tree passes the structural walk (MBR containment, fanout,
      level/parent consistency, per-run size counter);
    * a run's sorted oid side table agrees exactly with its tree contents
      (the membership probes queries rely on must not lie);
    * no oid is both live and tombstoned within one run;
    * tombstone accounting: every tombstone still suppresses some older
      version (compaction must have dropped the garbage ones);
    * the live-oid set ``len(index)`` counts equals the set of oids that
      resolve live, newest version only, across memtable + runs -- in
      both directions.
    """
    resolved: set = set()
    suppressed: set = set(lsm._mem_dead)
    for pending in lsm.memtable.iter_pending():
        if pending.oid in lsm._mem_dead:
            report.add(
                "lsm-memtable",
                "memtable",
                f"oid {pending.oid} is both pending and tombstoned",
            )
        resolved.add(pending.oid)
        suppressed.add(pending.oid)
    report.checked_objects += len(resolved)
    runs = lsm.runs
    for i in range(len(runs) - 1, -1, -1):
        run = runs[i]
        loc = f"run {i} (seq {run.seq})"
        _walk_rtree(run.tree, report, f"{loc}: ")
        stored = sorted(oid for oid, _ in run.tree.iter_objects())
        side = list(run.oids)
        if stored != side:
            report.add(
                "lsm-side-table",
                loc,
                f"oid side table holds {len(side)} oids, tree stores "
                f"{len(stored)}; membership probes would lie",
            )
        overlap = set(run.oids) & set(run.tombstones)
        if overlap:
            report.add(
                "lsm-tombstone",
                loc,
                f"oids both live and tombstoned: {sorted(overlap)[:5]}",
            )
        for oid in run.oids:
            if oid not in suppressed:
                resolved.add(oid)
        for oid in run.tombstones:
            if oid not in suppressed and not any(
                runs[j].mentions(oid) for j in range(i)
            ):
                report.add(
                    "lsm-tombstone",
                    loc,
                    f"tombstone for oid {oid} suppresses nothing older",
                )
        suppressed.update(run.oids)
        suppressed.update(run.tombstones)
    phantom = sorted(lsm._live - resolved)
    if phantom:
        report.add(
            "lsm-live-set",
            "lsm",
            f"{len(phantom)} oids in the live set resolve dead: {phantom[:5]}",
        )
    missing = sorted(resolved - lsm._live)
    if missing:
        report.add(
            "lsm-live-set",
            "lsm",
            f"{len(missing)} oids resolve live but are not in the live set: "
            f"{missing[:5]}",
        )


# -- CT-R-tree -------------------------------------------------------------


def _verify_ct(ct: CTRTree, report: VerifyReport) -> None:
    live: Dict[int, PageId] = {}
    root = ct._pager.inspect(ct._root_pid)
    if root.parent != NO_PAGE:
        report.add("structure", "root", "structural root has a parent pointer")
    stack: List[Tuple[PageId, Optional[Rect]]] = [(ct._root_pid, None)]
    while stack:
        pid, covering = stack.pop()
        node = ct._pager.inspect(pid)
        report.checked_nodes += 1
        loc = f"node {pid}"
        if len(node.entries) > ct.max_entries:
            report.add("fanout", loc, f"overfull ({len(node.entries)})")
        for entry in node.entries:
            if covering is not None and not covering.contains_rect(entry.rect):
                report.add(
                    "mbr-containment",
                    loc,
                    "entry escapes the parent rectangle",
                    repairable=True,
                )
            if node.is_leaf:
                if not isinstance(entry, QSEntry):
                    report.add("structure", loc, "leaf entry is not a QSEntry")
                    continue
                _verify_qs_chain(ct, node, entry, live, report)
            else:
                child = ct._pager.inspect(entry.child)
                if child.parent != pid:
                    report.add(
                        "structure",
                        f"node {entry.child}",
                        f"parent pointer {child.parent} != {pid}",
                    )
                stack.append((entry.child, entry.rect))
        _verify_node_buffer(ct, node, live, report)
    _check_hash(ct.hash, live, report)
    report.checked_objects += len(live)
    if len(live) != len(ct):
        report.add(
            "size-counter",
            "tree",
            f"size counter {len(ct)} != stored objects {len(live)}",
        )


def _verify_qs_chain(
    ct: CTRTree,
    node,
    qs: QSEntry,
    live: Dict[int, PageId],
    report: VerifyReport,
) -> None:
    loc = f"region {qs.region_id}"
    if len(qs.chain) != len(qs.fills):
        report.add("qs-chain", loc, "chain/fills length mismatch")
    for pid, fill in zip(qs.chain, qs.fills):
        page = ct._pager.inspect(pid)
        if not isinstance(page, DataPage):
            report.add("qs-chain", loc, f"chain pid {pid} is not a data page")
            continue
        if len(page.records) != fill:
            report.add(
                "stale-fill",
                loc,
                f"fill counter {fill} != {len(page.records)} records "
                f"on page {pid}",
                repairable=True,
            )
        if page.owner != (OWNER_QS, node.pid, qs.region_id):
            report.add("page-owner", loc, f"page {pid} has wrong owner")
        for obj_id, point in page.records.items():
            if not qs.rect.contains_point(point):
                report.add(
                    "qs-containment", loc, f"object {obj_id} outside the region"
                )
            if obj_id in live:
                report.add(
                    "duplicate-object", loc, f"object {obj_id} stored twice"
                )
            live[obj_id] = pid


def _verify_node_buffer(
    ct: CTRTree, node, live: Dict[int, PageId], report: VerifyReport
) -> None:
    buf = node.buffer
    loc = f"buffer of node {node.pid}"
    if buf.kind == NodeBuffer.KIND_LIST:
        for pid, fill in zip(buf.pages, buf.fills):
            page = ct._pager.inspect(pid)
            if not isinstance(page, DataPage):
                report.add("buffer", loc, f"pid {pid} is not a data page")
                continue
            if len(page.records) != fill:
                report.add(
                    "stale-fill",
                    loc,
                    f"fill counter {fill} != {len(page.records)} records "
                    f"on page {pid}",
                    repairable=True,
                )
            for obj_id, point in page.records.items():
                if page.tolerance is not None and not page.tolerance.contains_point(
                    point
                ):
                    report.add(
                        "buffer", loc, f"object {obj_id} outside the tolerance"
                    )
                if obj_id in live:
                    report.add(
                        "duplicate-object", loc, f"object {obj_id} stored twice"
                    )
                live[obj_id] = pid
    else:
        tree = ct._buffer_trees.get(node.pid)
        if tree is None:
            report.add("buffer", loc, "tree-kind buffer without a tree")
            return
        _walk_rtree(tree, report, f"{loc}: ")
        bound = ct._buffer_bounds.get(node.pid)
        for leaf in tree.iter_leaves():
            if leaf.tag != node.pid:
                report.add("buffer", loc, f"leaf {leaf.pid} untagged")
            for entry in leaf.entries:
                if bound is not None and not bound.contains_point(entry.point):
                    report.add(
                        "buffer", loc, f"object {entry.child} out of bound"
                    )
                if entry.child in live:
                    report.add(
                        "duplicate-object",
                        loc,
                        f"object {entry.child} stored twice",
                    )
                live[entry.child] = leaf.pid


# -- B+-tree family --------------------------------------------------------


def _verify_bptree(tree: BPlusTree, report: VerifyReport) -> Dict[int, PageId]:
    """Separator intervals, key order, arity and the leaf chain; returns
    the object -> leaf-pid residency map."""
    live: Dict[int, PageId] = {}
    root = tree.pager.inspect(tree.root_pid)
    if root.parent != NO_PAGE:
        report.add("structure", "root", "root has a parent pointer")
    stack: List[Tuple[PageId, Composite, Composite]] = [
        (tree.root_pid, LOW_SENTINEL, HIGH_SENTINEL)
    ]
    leaves: List[PageId] = []
    while stack:
        pid, low, high = stack.pop()
        node = tree.pager.inspect(pid)
        report.checked_nodes += 1
        loc = f"node {pid}"
        if (node.low, node.high) != (low, high):
            report.add(
                "structure",
                loc,
                f"interval mirror {(node.low, node.high)} != {(low, high)}",
            )
        if node.leaf:
            leaves.append(pid)
            if node.entries != sorted(node.entries):
                report.add("key-order", loc, "leaf entries out of order")
            for composite in node.entries:
                if not low < composite <= high:
                    report.add(
                        "key-range", loc, f"{composite} outside ({low}, {high}]"
                    )
                report.checked_objects += 1
                obj_id = composite[1]
                if obj_id in live:
                    report.add(
                        "duplicate-object", loc, f"object {obj_id} stored twice"
                    )
                live[obj_id] = pid
            continue
        if len(node.children) != len(node.keys) + 1:
            report.add(
                "fanout",
                loc,
                f"{len(node.children)} children for {len(node.keys)} separators",
            )
        if node.keys != sorted(node.keys):
            report.add("key-order", loc, "separators out of order")
        if len(node.children) > tree.max_entries:
            report.add("fanout", loc, f"overfull ({len(node.children)})")
        bounds = [low, *node.keys, high]
        for child_pid, child_low, child_high in zip(
            node.children, bounds, bounds[1:]
        ):
            child = tree.pager.inspect(child_pid)
            if child.parent != pid:
                report.add(
                    "structure",
                    f"node {child_pid}",
                    f"parent pointer {child.parent} != {pid}",
                )
            stack.append((child_pid, child_low, child_high))
    if len(live) != len(tree):
        report.add(
            "size-counter",
            "tree",
            f"size counter {len(tree)} != stored objects {len(live)}",
        )
    chained = list(tree.iter_leaves())
    if sorted(leaf.pid for leaf in chained) != sorted(leaves):
        report.add("structure", "leaf chain", "chain does not match the tree's leaves")
    previous_last: Optional[Composite] = None
    for leaf in chained:
        if leaf.entries:
            if previous_last is not None and leaf.entries[0] < previous_last:
                report.add(
                    "structure", f"node {leaf.pid}", "leaf chain out of key order"
                )
            previous_last = leaf.entries[-1]
    return live


# -- sharded engine --------------------------------------------------------


def _verify_sharded(sharded: ShardedIndex, report: VerifyReport) -> None:
    residents: Dict[int, Tuple[int, Point]] = {}
    for sid, resp in enumerate(sharded.probe(("verify",))):
        shard_report: VerifyReport = resp["report"]
        for violation in shard_report.violations:
            report.add(
                violation.code,
                f"shard {sid}: {violation.location}",
                violation.message,
                repairable=violation.repairable,
            )
        report.checked_nodes += shard_report.checked_nodes
        report.checked_objects += shard_report.checked_objects
        for obj_id, position in resp["objects"]:
            if obj_id in residents:
                report.add(
                    "duplicate-object",
                    "router",
                    f"object {obj_id} lives in shards "
                    f"{residents[obj_id][0]} and {sid}",
                )
            residents[obj_id] = (sid, position)
            # Identity-aware routing: shard_for covers non-uniform
            # boundaries and the speed partitioner's churn shard (where
            # residency is decided by object id, not position).
            home = sharded.partition.shard_for(obj_id, position)
            if home != sid:
                report.add(
                    "router-coverage",
                    f"shard {sid}",
                    f"object {obj_id} at {position} belongs to slab {home}",
                )
    n = sharded.n_shards
    for obj_id, sid in sharded._owner.items():
        if not 0 <= sid < n:
            report.add(
                "router-range", "router", f"object {obj_id} owned by slab {sid}"
            )
            continue
        resident = residents.get(obj_id)
        if resident is None:
            report.add(
                "router-stale",
                "router",
                f"owner map holds object {obj_id} (shard {sid}) "
                "but no shard stores it",
                repairable=True,
            )
        elif resident[0] != sid:
            report.add(
                "router-stale",
                "router",
                f"owner map says shard {sid}, object {obj_id} "
                f"lives in shard {resident[0]}",
                repairable=True,
            )
    for obj_id in residents:
        if obj_id not in sharded._owner:
            report.add(
                "router-stale",
                "router",
                f"object {obj_id} is stored but missing from the owner map",
                repairable=True,
            )


# -- repair ----------------------------------------------------------------


def repair_index(index) -> RepairReport:
    """Fix the recoverable violation classes in place -> :class:`RepairReport`.

    Repairs charge I/O under the BUILD category: they are maintenance, not
    workload.  The caller re-runs :func:`verify_index` to confirm.
    """
    inner = getattr(index, "inner", None)
    if inner is not None and hasattr(index, "health_state"):
        return repair_index(inner)
    report = RepairReport()
    stats = getattr(getattr(index, "pager", None), "stats", None)
    if stats is not None:
        with stats.category(IOCategory.BUILD):
            _repair(index, report)
    else:
        _repair(index, report)
    return report


def _repair(index, report: RepairReport) -> None:
    if isinstance(index, ShardedIndex):
        report.kind = "sharded"
        for shard in index.shards:
            sub = RepairReport()
            _repair(shard.index, sub)
            report.merge(sub)
        _repair_router(index, report)
    elif isinstance(index, CTRTree):
        report.kind = "ct"
        _repair_ct(index, report)
    elif isinstance(index, LazyRTree):
        report.kind = "alpha" if isinstance(index, AlphaTree) else "lazy"
        _repair_mbrs(index.tree, report)
        live = {
            entry.child: leaf.pid
            for leaf in index.tree.iter_leaves()
            for entry in leaf.entries
        }
        _repair_hash(index.hash, live, report)
    elif isinstance(index, RTree):
        report.kind = "rtree"
        _repair_mbrs(index, report)
    elif isinstance(index, LazyBPlusTree):
        report.kind = "lazy-bptree"
        live = {
            entry[1]: leaf.pid
            for leaf in index.tree.iter_leaves()
            for entry in leaf.entries
        }
        _repair_hash(index.hash, live, report)
    else:
        report.kind = type(index).__name__


def _repair_hash(
    hash_index: HashIndex, live: Dict[int, PageId], report: RepairReport
) -> None:
    stale = [
        (obj_id, pid)
        for obj_id, pid in live.items()
        if hash_index.peek(obj_id) != pid
    ]
    if stale:
        hash_index.set_many(stale)
        report.hash_repointed += len(stale)
    orphans = [
        obj_id for obj_id, _bucket in _iter_hash_entries(hash_index)
        if obj_id not in live
    ]
    for obj_id in orphans:
        hash_index.remove(obj_id)
    report.hash_orphans_removed += len(orphans)


def _repair_mbrs(tree: RTree, report: RepairReport) -> None:
    """Re-widen MBRs bottom-up so every entry is contained again.

    Widening (never shrinking) preserves the lazy-update contract: a
    node's registered MBR may exceed its tight bound, but must cover it.
    """

    def fix(pid: PageId) -> Optional[Rect]:
        node = tree.pager.inspect(pid)
        changed = False
        if not node.is_leaf:
            for i, entry in enumerate(node.entries):
                child_cover = fix(entry.child)
                if child_cover is not None and not entry.rect.contains_rect(
                    child_cover
                ):
                    node.entries[i] = Entry(
                        entry.rect.union(child_cover), entry.child
                    )
                    changed = True
        tight = node.tight_mbr()
        if tight is not None and (
            node.mbr is None or not node.mbr.contains_rect(tight)
        ):
            node.mbr = tight if node.mbr is None else node.mbr.union(tight)
            changed = True
        if changed:
            tree.pager.write(node)
            report.mbrs_widened += 1
        return node.mbr

    fix(tree.root_pid)


def _repair_ct(ct: CTRTree, report: RepairReport) -> None:
    live: Dict[int, PageId] = {}
    for node in ct.iter_nodes():
        changed = False
        buf = node.buffer
        if buf.kind == NodeBuffer.KIND_LIST:
            for i, pid in enumerate(buf.pages):
                page = ct._pager.inspect(pid)
                if not isinstance(page, DataPage):
                    continue
                if i < len(buf.fills) and buf.fills[i] != len(page.records):
                    buf.fills[i] = len(page.records)
                    report.fills_recomputed += 1
                    changed = True
                for obj_id in page.records:
                    live[obj_id] = pid
        else:
            tree = ct._buffer_trees.get(node.pid)
            if tree is not None:
                for leaf in tree.iter_leaves():
                    for entry in leaf.entries:
                        live[entry.child] = leaf.pid
        if node.is_leaf:
            for qs in node.entries:
                if not isinstance(qs, QSEntry):
                    continue
                for i, pid in enumerate(qs.chain):
                    page = ct._pager.inspect(pid)
                    if not isinstance(page, DataPage):
                        continue
                    if i < len(qs.fills) and qs.fills[i] != len(page.records):
                        qs.fills[i] = len(page.records)
                        report.fills_recomputed += 1
                        changed = True
                    for obj_id in page.records:
                        live[obj_id] = pid
        if changed:
            ct._pager.write(node)
    _repair_hash(ct.hash, live, report)


def _repair_router(sharded: ShardedIndex, report: RepairReport) -> None:
    """Rebuild the owner map from actual shard residency."""
    rebuilt: Dict[int, int] = {}
    for shard in sharded.shards:
        for obj_id, _position in shard.index.iter_objects():
            rebuilt[obj_id] = shard.sid
    if rebuilt != sharded._owner:
        before = sharded._owner
        fixed = sum(
            1 for oid, sid in rebuilt.items() if before.get(oid) != sid
        ) + sum(1 for oid in before if oid not in rebuilt)
        sharded._owner = rebuilt
        report.router_entries_fixed += fixed
