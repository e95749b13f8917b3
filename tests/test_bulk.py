"""Unit tests for STR bulk loading."""

import json
import math

import numpy as np
import pytest

from repro.core.geometry import Rect
from repro.health import verify_index
from repro.rtree import RTree, str_pack
from repro.rtree.bulk import str_pack_columns
from repro.rtree.node import Entry, RTreeNode
from repro.storage.page import NO_PAGE
from repro.storage.pager import Pager
from repro.storage.snapshot import build_document
from tests.conftest import brute_force_range, random_points, random_query


@pytest.fixture
def tree(pager):
    return RTree(pager, max_entries=8)


class TestStrPack:
    def test_empty_input_is_noop(self, tree):
        str_pack(tree, [])
        assert len(tree) == 0

    def test_requires_empty_tree(self, tree):
        tree.insert(1, (0, 0))
        with pytest.raises(ValueError):
            str_pack(tree, [(2, (1, 1))])

    def test_rejects_bad_fill(self, tree):
        with pytest.raises(ValueError):
            str_pack(tree, [(1, (0, 0))], fill=0.0)

    def test_single_item(self, tree):
        str_pack(tree, [(7, (3.0, 4.0))])
        assert tree.search_point((3.0, 4.0)) == [7]
        assert tree.height == 1

    def test_all_items_retrievable(self, tree, rng):
        points = random_points(rng, 300)
        str_pack(tree, list(points.items()))
        assert len(tree) == 300
        for _ in range(30):
            query = random_query(rng)
            got = sorted(oid for oid, _ in tree.range_search(query))
            assert got == brute_force_range(points, query)

    def test_structure_is_valid_except_min_fill(self, tree, rng):
        # STR packs to the target fill; trailing tiles may dip below the
        # dynamic-insert minimum, which is legal for bulk-loaded trees.
        points = random_points(rng, 157)
        str_pack(tree, list(points.items()))
        problems = [v for v in verify_index(tree).violations if v.code != "fanout"]
        assert problems == []

    def test_packs_tighter_than_repeated_insertion(self, rng):
        points = random_points(rng, 400)
        packed = RTree(Pager(), max_entries=8)
        str_pack(packed, list(points.items()), fill=0.9)
        inserted = RTree(Pager(), max_entries=8)
        for oid, point in points.items():
            inserted.insert(oid, point)
        assert packed.node_count() < inserted.node_count()

    def test_fill_controls_leaf_count(self, rng):
        points = list(random_points(rng, 200).items())
        tight = RTree(Pager(), max_entries=8)
        str_pack(tight, points, fill=1.0)
        loose = RTree(Pager(), max_entries=8)
        str_pack(loose, points, fill=0.5)
        tight_leaves = sum(1 for _ in tight.iter_leaves())
        loose_leaves = sum(1 for _ in loose.iter_leaves())
        assert tight_leaves < loose_leaves

    def test_parent_pointers_consistent(self, tree, rng):
        points = random_points(rng, 220)
        str_pack(tree, list(points.items()))
        report = verify_index(tree)
        assert report.by_code("structure") == []
        assert report.by_code("mbr-containment") == []

    def test_dynamic_operations_after_pack(self, tree, rng):
        points = random_points(rng, 120)
        str_pack(tree, list(points.items()))
        tree.insert(999, (50, 50))
        assert 999 in tree.search_point((50, 50))
        assert tree.delete(0, points[0])
        got = sorted(oid for oid, _ in tree.range_search(Rect((0, 0), (100, 100))))
        expected = sorted((set(points) - {0}) | {999})
        assert got == expected


def _tile(entries, capacity):
    """Group entries into STR tiles of at most ``capacity`` each, sorting
    ``Entry`` objects by ``Rect.center`` with ``sorted()``."""
    n = len(entries)
    page_count = math.ceil(n / capacity)
    slice_count = math.ceil(math.sqrt(page_count))
    per_slice = slice_count * capacity

    ordered = sorted(entries, key=lambda e: e.rect.center[0])
    groups = []
    for start in range(0, n, per_slice):
        chunk = sorted(
            ordered[start : start + per_slice],
            key=lambda e: e.rect.center[1] if e.rect.dim > 1 else 0.0,
        )
        for j in range(0, len(chunk), capacity):
            groups.append(chunk[j : j + capacity])
    return groups


def reference_str_pack(tree, items, fill):
    """The per-entry loader the column kernel replaced: one ``Entry`` per
    point and per child, ``sorted()`` tiling at every level.  Kept as the
    reference the kernel must reproduce page for page."""
    pager = tree.pager
    capacity = max(2, int(tree.max_entries * fill))
    entries = [Entry.for_point(tuple(point), oid) for oid, point in items]
    level = 0
    nodes = []
    for group in _tile(entries, capacity):
        node = RTreeNode(level=0)
        node.entries = group
        node.mbr = node.tight_mbr()
        pager.allocate(node)
        nodes.append(node)
    while len(nodes) > 1:
        level += 1
        parents = []
        for group in _tile([Entry(n.mbr, n.pid) for n in nodes], capacity):
            parent = RTreeNode(level=level)
            parent.entries = group
            parent.mbr = parent.tight_mbr()
            pager.allocate(parent)
            for entry in group:
                pager.inspect(entry.child).parent = parent.pid
            parents.append(parent)
        nodes = parents
    nodes[0].parent = NO_PAGE
    pager.free(tree.root_pid)
    tree._root_pid = nodes[0].pid
    tree._size = len(entries)
    return tree


def _document(loader, items, fill, max_entries=8):
    tree = RTree(Pager(), max_entries=max_entries)
    loader(tree, items, fill)
    assert len(tree) == len(items)
    return json.dumps(build_document(tree, kind="rtree"), sort_keys=True)


def _grid(n, seed):
    rng = np.random.default_rng(seed)
    # Few distinct values per axis: plenty of x ties, y ties and duplicates.
    return [
        (oid, (float(x), float(y)))
        for oid, (x, y) in enumerate(rng.integers(0, 6, size=(n, 2)).tolist())
    ]


#: capacity is 7 at max_entries=8, fill=0.9.
EDGE_CASES = {
    "below_capacity": [(oid, (float(oid), 1.0)) for oid in range(5)],
    "exactly_one_leaf": _grid(7, 1),
    # 9 pages -> 3 slices of 21: the last slice ends on the boundary.
    "on_slice_boundary": _grid(63, 2),
    "one_past_slice_boundary": _grid(64, 3),
    "duplicate_x_and_points": _grid(200, 4),
    "all_one_point": [(oid, (2.0, 2.0)) for oid in range(40)],
    "one_dimensional": [(oid, (float(oid * 7 % 31),)) for oid in range(50)],
    "integer_coordinates": [(oid, (oid * 5 % 17, oid * 3 % 11)) for oid in range(90)],
    "signed_zeros": [
        (oid, ((-0.0, 0.0)[oid % 2], (0.0, -0.0, 1.0)[oid % 3])) for oid in range(60)
    ],
    "unsorted_oids": [(oid * 37 % 101, (float(oid % 9), float(oid % 4))) for oid in range(101)],
    # 58 leaves -> 9 -> 2 -> 1: three branch levels over distinct centers.
    "three_branch_levels": [
        (oid, (float(x), float(y)))
        for oid, (x, y) in enumerate(np.random.default_rng(5).uniform(0, 100, (400, 2)).tolist())
    ],
}


class TestColumnKernelMatchesPerEntryLoader:
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_same_snapshot_bytes(self, case):
        items = EDGE_CASES[case]
        for fill in (0.9, 0.5):
            assert _document(str_pack, items, fill) == _document(
                reference_str_pack, items, fill
            )

    def test_no_numpy_scalar_reaches_a_node(self, tree):
        str_pack(tree, EDGE_CASES["integer_coordinates"])
        root = tree.pager.inspect(tree.root_pid)
        assert all(type(c) is float for c in root.mbr.lo + root.mbr.hi)
        for oid, point in tree.iter_objects():
            assert type(oid) is int
            assert all(type(c) is float for c in point)
        for oid, point in tree.range_search(Rect((0, 0), (20, 20))):
            assert type(oid) is int and all(type(c) is float for c in point)

    def test_empty_columns_have_no_dimension(self, tree):
        str_pack_columns(tree, np.empty(0, dtype=np.int64), np.empty((0, 0)))
        assert len(tree) == 0 and tree.height == 1

    def test_checks_come_before_the_empty_shortcut(self, tree):
        tree.insert(1, (0, 0))
        with pytest.raises(ValueError):
            str_pack(tree, [])
        with pytest.raises(ValueError):
            str_pack(RTree(Pager(), max_entries=8), [], fill=1.5)
