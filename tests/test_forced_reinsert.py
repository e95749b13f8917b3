"""Tests for R*-style forced reinsertion (the full R*-tree baseline)."""

import pytest

from repro.core.geometry import Rect
from repro.rtree import LazyRTree, RTree
from repro.storage.pager import Pager
from tests.conftest import (
    assert_verified,
    brute_force_range,
    random_points,
    random_query,
)


def make_tree(**kwargs):
    defaults = dict(max_entries=6, split="rstar", forced_reinsert=0.3)
    defaults.update(kwargs)
    return RTree(Pager(), **defaults)


class TestConstruction:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RTree(Pager(), forced_reinsert=0.5)
        with pytest.raises(ValueError):
            RTree(Pager(), forced_reinsert=-0.1)

    def test_zero_disables(self, rng):
        tree = make_tree(forced_reinsert=0.0)
        for oid, point in random_points(rng, 100).items():
            tree.insert(oid, point)
        assert_verified(tree)


class TestCorrectness:
    def test_inserts_retrievable(self, rng):
        tree = make_tree()
        points = random_points(rng, 250)
        for oid, point in points.items():
            tree.insert(oid, point)
        assert_verified(tree)
        assert len(tree) == 250
        for _ in range(30):
            query = random_query(rng)
            got = sorted(oid for oid, _ in tree.range_search(query))
            assert got == brute_force_range(points, query)

    def test_mixed_workload(self, rng):
        tree = make_tree()
        points = random_points(rng, 150)
        for oid, point in points.items():
            tree.insert(oid, point)
        for _ in range(400):
            oid = rng.choice(list(points))
            action = rng.random()
            if action < 0.5:
                new = (rng.uniform(0, 100), rng.uniform(0, 100))
                tree.update(oid, points[oid], new)
                points[oid] = new
            elif len(points) > 20:
                tree.delete(oid, points.pop(oid))
        assert_verified(tree)
        got = sorted(oid for oid, _ in tree.range_search(Rect((0, 0), (100, 100))))
        assert got == sorted(points)

    def test_skewed_insert_order(self):
        """Sorted insertion is R*'s worst case for plain splits; forced
        reinsertion must keep the structure valid through it."""
        tree = make_tree()
        for i in range(200):
            tree.insert(i, (float(i), float(i % 7)))
        assert_verified(tree)
        got = sorted(o for o, _ in tree.range_search(Rect((50, 0), (100, 10))))
        assert got == list(range(50, 101))

    def test_kept_entry_outside_the_grandparent_grows_it(self):
        """A forced reinsertion that keeps the point just placed must grow
        every ancestor to cover it, not just the parent's entry: twelve
        coincident points build a three-level tree whose branches all sit
        on one spot, and the thirteenth lands beside them."""
        tree = make_tree(max_entries=4, split="quadratic")
        points = [(0.0, 0.0)] * 12 + [(1.0, 1.0)]
        for oid, point in enumerate(points):
            tree.insert(oid, point)
        assert tree.height >= 3
        assert_verified(tree)
        assert tree.search_point((1.0, 1.0)) == [12]


class TestQuality:
    def test_reinsert_reduces_node_count_on_sorted_input(self):
        """Deferring splits should pack nodes at least as tightly as
        splitting eagerly on an adversarial (sorted) insert order."""
        plain = RTree(Pager(), max_entries=6, split="rstar")
        reinserting = make_tree()
        for i in range(300):
            point = (float(i % 50), float(i // 50))
            plain.insert(i, point)
            reinserting.insert(i, point)
        assert reinserting.node_count() <= plain.node_count()


class TestLazyIntegration:
    def test_hash_pointers_survive_reinsertion(self, rng):
        pager = Pager()
        tree = LazyRTree(pager, max_entries=6, forced_reinsert=0.3)
        points = random_points(rng, 200)
        for oid, point in points.items():
            tree.insert(oid, point)
        assert_verified(tree)
        for _ in range(300):
            oid = rng.choice(list(points))
            new = (rng.uniform(0, 100), rng.uniform(0, 100))
            tree.update(oid, points[oid], new)
            points[oid] = new
        assert_verified(tree)
