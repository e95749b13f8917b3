"""The structural verifier: clean indexes pass, corruption is found,
repairable corruption is actually repaired."""

from __future__ import annotations

import random
from array import array

import pytest

from repro.btree import BPlusTree, LazyBPlusTree
from repro.core.ctrtree import CTRTree
from repro.core.geometry import Rect
from repro.core.overflow import OWNER_QS, QSEntry
from repro.core.params import CTParams
from repro.engine import IndexKind, ShardedIndex, make_index
from repro.health import repair_index, verify_index
from repro.lsm import LSMConfig, LSMRTree
from repro.rtree import LazyRTree, RTree
from repro.rtree.node import Entry
from repro.storage.pager import Pager

from .conftest import dwell_trail

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))


def _histories(rng: random.Random, n: int = 12):
    spots = [(20.0, 20.0), (80.0, 30.0), (50.0, 80.0)]
    return {oid: dwell_trail(rng, spots, dwell_reports=10) for oid in range(n)}


def _populated(kind: str, rng: random.Random, n: int = 40):
    pager = Pager()
    index = make_index(
        kind, pager, DOMAIN, histories=_histories(rng), query_rate=1.0
    )
    positions = {}
    for oid in range(n):
        point = (rng.uniform(0, 100), rng.uniform(0, 100))
        index.insert(oid, point, now=600.0 + oid)
        positions[oid] = point
    for oid in range(0, n, 3):
        point = (rng.uniform(0, 100), rng.uniform(0, 100))
        index.update(oid, positions[oid], point, now=700.0 + oid)
        positions[oid] = point
    return index, positions


@pytest.mark.parametrize("kind", IndexKind.ALL)
def test_clean_index_verifies(kind, rng):
    index, _ = _populated(kind, rng)
    report = verify_index(index)
    assert report.ok, report.summary()
    assert report.kind == kind
    assert report.checked_objects > 0
    assert report.to_dict()["ok"] is True


def test_sharded_index_verifies(rng):
    index = ShardedIndex("lazy", DOMAIN, 4)
    positions = {}
    for oid in range(60):
        point = (rng.uniform(0, 100), rng.uniform(0, 100))
        index.insert(oid, point, now=float(oid))
        positions[oid] = point
    for oid in range(0, 60, 2):
        point = (rng.uniform(0, 100), rng.uniform(0, 100))
        index.update(oid, positions[oid], point, now=100.0 + oid)
        positions[oid] = point
    report = verify_index(index)
    assert report.ok, report.summary()
    assert report.kind == "sharded"


def test_lazy_bptree_verifies(pager, rng):
    tree = LazyBPlusTree(pager)
    for oid in range(50):
        tree.insert(oid, rng.uniform(0, 1000))
    report = verify_index(tree)
    assert report.ok, report.summary()


def _first_leaf(tree):
    pager = tree.pager
    node = pager.inspect(tree.root_pid)
    while not node.is_leaf:
        node = pager.inspect(node.entries[0].child)
    return node


def test_detects_and_repairs_escaped_mbr(rng):
    index, _ = _populated("lazy", rng)
    # Teleport one stored point far outside its leaf's (and ancestors')
    # MBR -- the shape of a lost in-place update.
    leaf = _first_leaf(index.tree)
    entry = leaf.entries[0]
    entry.rect = Rect((999.0, 999.0), (999.0, 999.0))
    index.pager.write(leaf)
    report = verify_index(index)
    assert not report.ok
    assert report.by_code("mbr-containment")
    assert all(v.repairable for v in report.by_code("mbr-containment"))
    fixed = repair_index(index)
    assert fixed.mbrs_widened > 0
    assert verify_index(index).ok


def test_detects_and_repairs_stale_hash_entry(rng):
    index, _ = _populated("lazy", rng)
    leaf = _first_leaf(index.tree)
    victim = leaf.entries[0].child
    # Point the secondary hash at a bogus page: a stale entry, exactly
    # what a torn leaf split would leave behind.
    wrong = _first_leaf(index.tree).pid + 10_000
    index.hash.set(victim, wrong)
    report = verify_index(index)
    assert not report.ok
    stale = report.by_code("hash-stale")
    assert stale and all(v.repairable for v in stale)
    fixed = repair_index(index)
    assert fixed.hash_repointed >= 1
    after = verify_index(index)
    assert after.ok, after.summary()
    assert index.hash.peek(victim) == leaf.pid


def test_detects_and_repairs_orphan_hash_entry(rng):
    index, _ = _populated("lazy", rng)
    index.hash.set(999_999, _first_leaf(index.tree).pid)
    report = verify_index(index)
    assert not report.ok
    assert report.by_code("hash-orphan")
    fixed = repair_index(index)
    assert fixed.hash_orphans_removed == 1
    assert verify_index(index).ok
    assert index.hash.peek(999_999) is None


def test_detects_ct_stale_fill_and_repairs(rng):
    index, _ = _populated("ct", rng)
    # Find a qs-entry with a chain and lie about its fill counter.
    corrupted = False
    for _node, qs in index.iter_qs_entries():
        if qs.chain:
            qs.fills[0] = qs.fills[0] + 7
            corrupted = True
            break
    if not corrupted:
        pytest.skip("trace mined no chained qs-regions at this seed")
    report = verify_index(index)
    assert not report.ok
    assert report.by_code("stale-fill")
    fixed = repair_index(index)
    assert fixed.fills_recomputed >= 1
    assert verify_index(index).ok


def test_detects_sharded_router_staleness(rng):
    index = ShardedIndex("lazy", DOMAIN, 4)
    for oid in range(40):
        index.insert(oid, (rng.uniform(0, 100), rng.uniform(0, 100)))
    # Corrupt the owner map: claim an object lives on the wrong shard.
    victim = next(iter(index._owner))
    index._owner[victim] = (index._owner[victim] + 1) % 4
    report = verify_index(index)
    assert not report.ok
    assert report.by_code("router-stale") or report.by_code("router-range")
    repair_index(index)
    assert verify_index(index).ok


def test_wrapper_is_unwrapped(rng):
    from repro.health import SelfHealingIndex

    inner, _ = _populated("lazy", rng)
    wrapper = SelfHealingIndex(inner, "lazy", DOMAIN)
    report = verify_index(wrapper)
    assert report.ok
    assert report.kind == "lazy"


def test_an_unknown_type_reads_unsupported():
    class Fake:
        def __len__(self):
            return 0

    report = verify_index(Fake())
    assert report.kind == "Fake"
    assert report.by_code() == {"unsupported": 1}


def test_violation_summary_and_str(rng):
    index, _ = _populated("lazy", rng)
    index.hash.set(999_999, 1)
    report = verify_index(index)
    text = report.summary()
    assert "lazy" in text and "1" in text
    assert "hash-orphan" in str(report.violations[0])


# -- the corruption table -----------------------------------------------------
#
# One row per invariant the verifier checks: build a small clean index,
# break exactly that invariant, and assert the violation's typed code.  A
# row's corruption is chosen so that no *other* check reports the same code:
# take the row's check out of ``verify.py`` and the row fails.


def _rtree():
    tree = RTree(Pager(), max_entries=4)
    rng = random.Random(11)
    for oid in range(60):
        tree.insert(oid, (rng.uniform(0, 100), rng.uniform(0, 100)))
    return tree


def _lazy():
    tree = LazyRTree(Pager(), max_entries=4)
    rng = random.Random(12)
    for oid in range(60):
        tree.insert(oid, (rng.uniform(0, 100), rng.uniform(0, 100)))
    return tree


def _ct(t_list=1):
    # Sixteen 20x20 qs-regions on a grid with gaps: region chains, a
    # height-2 structural tree, and buffers for the objects in the gaps
    # (alpha-trees at ``t_list=1``, page lists at a large ``t_list``).
    regions = [
        Rect((x * 25.0, y * 25.0), (x * 25.0 + 20.0, y * 25.0 + 20.0))
        for x in range(4)
        for y in range(4)
    ]
    tree = CTRTree(
        Pager(), DOMAIN, regions, max_entries=5, ct_params=CTParams(t_list=t_list)
    )
    rng = random.Random(13)
    for oid in range(120):
        tree.insert(oid, (rng.uniform(0, 100), rng.uniform(0, 100)))
    return tree


def _lsm():
    # Runs 0 and 1 hold objects 0-15; run 2 moves objects 0-3 and deletes
    # object 5; the memtable keeps objects 20-22 pending.
    lsm = LSMRTree(
        Pager(),
        max_entries=4,
        config=LSMConfig(memtable_size=8, size_ratio=2, max_runs=4, auto_compact=False),
    )
    for oid in range(16):
        lsm.insert(oid, (float(oid), float(oid)), now=float(oid))
    for oid in range(4):
        lsm.update(oid, (float(oid), float(oid)), (50.0 + oid, 50.0), now=20.0 + oid)
    lsm.delete(5)
    lsm.flush()
    for oid in range(20, 23):
        lsm.insert(oid, (float(oid), 1.0), now=30.0 + oid)
    return lsm


def _bptree():
    tree = BPlusTree(Pager(), max_entries=4)
    rng = random.Random(14)
    for oid in range(60):
        tree.insert(oid, rng.uniform(0, 1000))
    return tree


def _lazy_bptree():
    tree = LazyBPlusTree(Pager(), max_entries=4)
    rng = random.Random(15)
    for oid in range(60):
        tree.insert(oid, rng.uniform(0, 1000))
    return tree


def _rnodes(tree, level=None):
    """Every R-tree node (optionally only those at ``level``), root first."""
    out, stack = [], [tree.root_pid]
    while stack:
        node = tree.pager.inspect(stack.pop())
        out.append(node)
        if not node.is_leaf:
            stack.extend(node.entries.child_list())
    return [n for n in out if level is None or n.level == level]


def _bnodes(tree, leaf):
    out, stack = [], [tree.root_pid]
    while stack:
        node = tree.pager.inspect(stack.pop())
        out.append(node)
        if not node.leaf:
            stack.extend(node.children)
    return [n for n in out if n.leaf == leaf and n.pid != tree.root_pid]


def _shrink_branch_entry(tree):
    # A branch entry shrunk to one point of its child: the child's other
    # entries escape the parent rectangle, not the child's own MBR.
    node = _rnodes(tree, level=1)[0]
    child = tree.pager.inspect(node.entries[0].child)
    point = child.entries[0].rect.lo
    node.entries[0] = Entry(Rect(point, point), node.entries[0].child)


def _shrink_leaf_mbr(tree):
    leaf = _rnodes(tree, level=0)[0]
    point = leaf.entries[0].rect.lo
    leaf.mbr = Rect(point, point)


def _level(tree):
    _rnodes(tree, level=1)[0].level = 7


def _child_parent(tree):
    _rnodes(tree, level=0)[0].parent = tree.root_pid + 10_000


def _duplicate_object(tree):
    first, second = _rnodes(tree, level=0)[:2]
    point = second.entries[0].rect.lo
    second.entries.append_packed(point, point, first.entries[0].child)


def _ct_nodes(ct, leaf):
    return [n for n in ct.iter_nodes() if n.is_leaf == leaf]


def _ct_chained(ct):
    return next((node, qs) for node, qs in ct.iter_qs_entries() if qs.chain)


def _ct_chain_page(ct):
    return ct.pager.inspect(_ct_chained(ct)[1].chain[0])


def _ct_list_page(ct):
    node = next(n for n in ct.iter_nodes() if n.buffer.pages)
    return node, ct.pager.inspect(node.buffer.pages[0])


def _ct_tree_buffer(ct):
    pid = next(iter(ct._buffer_trees))
    return pid, ct._buffer_trees[pid]


def _ct_overfull(ct):
    node = _ct_nodes(ct, leaf=True)[0]
    rect = node.entries[0].rect
    node.entries.extend(QSEntry(rect, 10_000 + i) for i in range(ct.max_entries))


def _ct_plain_leaf_entry(ct):
    leaf = _ct_nodes(ct, leaf=True)[0]
    leaf.entries.append(Entry(leaf.entries[0].rect, 0))


def _ct_chain_not_data(ct):
    qs = _ct_chained(ct)[1]
    qs.chain.append(ct.root_pid)
    qs.fills.append(0)


def _ct_stale_fill(ct):
    _ct_chained(ct)[1].fills[0] += 3


def _ct_escape_region(ct):
    page = _ct_chain_page(ct)
    page.records[next(iter(page.records))] = (999.0, 999.0)


def _ct_shrink_branch_entry(ct):
    root = ct.pager.inspect(ct.root_pid)
    entry = root.entries[0]
    point = entry.rect.lo
    entry.rect = Rect(point, point)


def _ct_duplicate(ct):
    # An object stored in a second region's chain as well.
    first, second = [
        ct.pager.inspect(qs.chain[0]) for _node, qs in ct.iter_qs_entries() if qs.chain
    ][:2]
    oid, point = next(iter(first.records.items()))
    second.records[oid] = point


def _ct_list_duplicate(ct):
    # An object stored in two overflow-list pages.
    first, second = [
        ct.pager.inspect(pid) for node in ct.iter_nodes() for pid in node.buffer.pages
    ][:2]
    oid, point = next(iter(first.records.items()))
    second.records[oid] = point


def _ct_tree_buffer_duplicate(ct):
    # An object stored in two nodes' overflow alpha-trees: each tree on its
    # own holds it once.
    first, second = [next(tree.iter_leaves()) for tree in ct._buffer_trees.values()][:2]
    point = second.entries[0].rect.lo
    second.entries.append_packed(point, point, first.entries[0].child)


def _ct_untag(ct):
    _pid, tree = _ct_tree_buffer(ct)
    next(tree.iter_leaves()).tag = None


def _ct_shrink_bound(ct):
    pid, tree = _ct_tree_buffer(ct)
    point = next(tree.iter_objects())[1]
    ct._buffer_bounds[pid] = Rect(point, point)


def _ct_lose_buffer_tree(ct):
    del ct._buffer_trees[_ct_tree_buffer(ct)[0]]


def _ct_tight_tolerance(ct):
    _node, page = _ct_list_page(ct)
    point = next(iter(page.records.values()))
    page.tolerance = Rect((point[0] + 1, point[1] + 1), (point[0] + 2, point[1] + 2))


def _ct_list_not_data(ct):
    node, _page = _ct_list_page(ct)
    node.buffer.pages[0] = node.pid


def _ct_list_fill(ct):
    node, _page = _ct_list_page(ct)
    node.buffer.fills[0] += 3


def _ct_hash_stale(ct):
    oid = next(iter(_ct_chain_page(ct).records))
    ct.hash.set(oid, ct.root_pid)


def _lsm_overlap(lsm):
    # Object 0 is live in run 2 and older in run 0: a tombstone for it in
    # run 2 is not garbage, only the live/tombstoned overlap is wrong.
    newest = lsm.runs[-1]
    newest.tombstones = array("q", sorted([*newest.tombstones, 0]))


def _lsm_garbage_tombstone(lsm):
    oldest = lsm.runs[0]
    oldest.tombstones = array("q", sorted([*oldest.tombstones, 9_999]))


def _lsm_side_table(lsm):
    del lsm.runs[0].oids[0]


def _bswap_leaf(tree):
    leaf = next(n for n in _bnodes(tree, leaf=True) if len(n.entries) >= 3)
    leaf.entries[0], leaf.entries[1] = leaf.entries[1], leaf.entries[0]


def _bkey_range(tree):
    leaf = next(n for n in tree.iter_leaves() if n.low[0] != float("-inf"))
    leaf.entries[0] = leaf.low


def _bswap_keys(tree):
    node = next(
        n for n in _bnodes(tree, leaf=False) + [tree.pager.inspect(tree.root_pid)]
        if len(n.keys) >= 2
    )
    node.keys[0], node.keys[1] = node.keys[1], node.keys[0]


def _barity(tree):
    tree.pager.inspect(tree.root_pid).keys.pop()


def _bmirror(tree):
    _bnodes(tree, leaf=True)[0].low = (-5.0, -5)


def _bchild_parent(tree):
    _bnodes(tree, leaf=True)[0].parent = tree.root_pid + 10_000


def _bskip_leaf(tree):
    a, b, _c = list(tree.iter_leaves())[:3]
    a.next_leaf = b.next_leaf


def _breorder_chain(tree):
    a, b, c, d = list(tree.iter_leaves())[:4]
    a.next_leaf, c.next_leaf, b.next_leaf = c.pid, b.pid, d.pid


def _bduplicate(tree):
    # The second leaf's first entry takes an object id the first leaf holds.
    first, second = list(tree.iter_leaves())[:2]
    second.entries[0] = (second.entries[0][0], first.entries[0][1])


def _set(attr, value):
    def corrupt(index):
        setattr(index, attr, value)

    return corrupt


def _root(attr, value):
    def corrupt(index):
        setattr(index.pager.inspect(index.root_pid), attr, value)

    return corrupt


CORRUPTIONS = {
    # R-tree family
    "rtree-root-parent": (_rtree, _root("parent", 12_345), "structure"),
    "rtree-level": (_rtree, _level, "structure"),
    "rtree-overfull": (_rtree, _set("max_entries", 2), "fanout"),
    "rtree-underfull": (_rtree, _set("min_entries", 4), "fanout"),
    "lazy-tree-overfull": (lambda: _lazy().tree, _set("max_entries", 2), "fanout"),
    "rtree-parent-rect": (_rtree, _shrink_branch_entry, "mbr-containment"),
    "rtree-node-mbr": (_rtree, _shrink_leaf_mbr, "mbr-containment"),
    "rtree-child-parent": (_rtree, _child_parent, "structure"),
    "rtree-size": (_rtree, lambda t: setattr(t, "_size", t._size + 1), "size-counter"),
    "rtree-duplicate": (_rtree, _duplicate_object, "duplicate-object"),
    # lazy family: the hash index
    "lazy-hash-stale": (
        _lazy, lambda t: t.hash.set(3, t.tree.root_pid + 10_000), "hash-stale"
    ),
    "lazy-hash-orphan": (
        _lazy, lambda t: t.hash.set(999, t.tree.root_pid), "hash-orphan"
    ),
    # CT-R-tree
    "ct-root-parent": (_ct, _root("parent", 12_345), "structure"),
    "ct-overfull": (_ct, _ct_overfull, "fanout"),
    "ct-parent-rect": (_ct, _ct_shrink_branch_entry, "mbr-containment"),
    "ct-child-parent": (
        _ct, lambda ct: setattr(_ct_nodes(ct, True)[0], "parent", 12_345), "structure"
    ),
    "ct-leaf-entry-type": (_ct, _ct_plain_leaf_entry, "structure"),
    "ct-chain-fills-length": (
        _ct, lambda ct: _ct_chained(ct)[1].fills.append(0), "qs-chain"
    ),
    "ct-chain-not-data": (_ct, _ct_chain_not_data, "qs-chain"),
    "ct-stale-fill": (_ct, _ct_stale_fill, "stale-fill"),
    "ct-list-stale-fill": (lambda: _ct(t_list=1000), _ct_list_fill, "stale-fill"),
    "ct-page-owner": (
        _ct, lambda ct: setattr(_ct_chain_page(ct), "owner", (OWNER_QS, 0, -1)), "page-owner"
    ),
    "ct-qs-containment": (_ct, _ct_escape_region, "qs-containment"),
    "ct-duplicate": (_ct, _ct_duplicate, "duplicate-object"),
    "ct-list-duplicate": (lambda: _ct(t_list=1000), _ct_list_duplicate, "duplicate-object"),
    "ct-tree-buffer-duplicate": (_ct, _ct_tree_buffer_duplicate, "duplicate-object"),
    "ct-list-tolerance": (lambda: _ct(t_list=1000), _ct_tight_tolerance, "buffer"),
    "ct-list-not-data": (lambda: _ct(t_list=1000), _ct_list_not_data, "buffer"),
    "ct-tree-buffer-tag": (_ct, _ct_untag, "buffer"),
    "ct-tree-buffer-bound": (_ct, _ct_shrink_bound, "buffer"),
    "ct-tree-buffer-missing": (_ct, _ct_lose_buffer_tree, "buffer"),
    "ct-size": (_ct, lambda ct: setattr(ct, "_size", ct._size + 1), "size-counter"),
    "ct-hash-stale": (_ct, _ct_hash_stale, "hash-stale"),
    "ct-hash-orphan": (_ct, lambda ct: ct.hash.set(9_999, ct.root_pid), "hash-orphan"),
    # LSM-R-tree
    "lsm-memtable": (_lsm, lambda lsm: lsm._mem_dead.add(20), "lsm-memtable"),
    "lsm-side-table": (_lsm, _lsm_side_table, "lsm-side-table"),
    "lsm-live-and-tombstoned": (_lsm, _lsm_overlap, "lsm-tombstone"),
    "lsm-garbage-tombstone": (_lsm, _lsm_garbage_tombstone, "lsm-tombstone"),
    "lsm-live-set-phantom": (_lsm, lambda lsm: lsm._live.add(9_999), "lsm-live-set"),
    "lsm-live-set-missing": (_lsm, lambda lsm: lsm._live.discard(21), "lsm-live-set"),
    "lsm-run-tree": (
        _lsm, lambda lsm: setattr(lsm.runs[0].tree, "_size", 99), "size-counter"
    ),
    # B+-tree family
    "bptree-root-parent": (_bptree, _root("parent", 12_345), "structure"),
    "bptree-interval-mirror": (_bptree, _bmirror, "structure"),
    "bptree-leaf-order": (_bptree, _bswap_leaf, "key-order"),
    "bptree-separator-order": (_bptree, _bswap_keys, "key-order"),
    "bptree-key-range": (_bptree, _bkey_range, "key-range"),
    "bptree-arity": (_bptree, _barity, "fanout"),
    "bptree-overfull": (_bptree, _set("max_entries", 2), "fanout"),
    "bptree-child-parent": (_bptree, _bchild_parent, "structure"),
    "bptree-size": (_bptree, lambda t: setattr(t, "_size", t._size + 1), "size-counter"),
    "bptree-duplicate": (_bptree, _bduplicate, "duplicate-object"),
    "bptree-chain-membership": (_bptree, _bskip_leaf, "structure"),
    "bptree-chain-order": (_bptree, _breorder_chain, "structure"),
    "lazy-bptree-hash-stale": (
        _lazy_bptree, lambda t: t.hash.set(3, t.tree.root_pid + 10_000), "hash-stale"
    ),
    "lazy-bptree-hash-orphan": (
        _lazy_bptree, lambda t: t.hash.set(999, t.tree.root_pid), "hash-orphan"
    ),
}


@pytest.mark.parametrize("build", list(CORRUPTIONS), ids=list(CORRUPTIONS))
def test_a_broken_invariant_is_reported_under_its_code(build):
    make, corrupt, code = CORRUPTIONS[build]
    index = make()
    assert verify_index(index).ok
    corrupt(index)
    report = verify_index(index)
    assert report.by_code(code), report.summary()
