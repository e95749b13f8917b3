"""Unit and invariant tests for the traditional R-tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Rect
from repro.health import verify_index
from repro.rtree import RTree
from repro.storage.pager import Pager
from tests.conftest import (
    assert_verified,
    brute_force_range,
    random_points,
    random_query,
)


@pytest.fixture
def tree(pager):
    return RTree(pager, max_entries=8)


class TestConstruction:
    def test_empty_tree(self, tree):
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.range_search(Rect((0, 0), (100, 100))) == []

    def test_rejects_small_fanout(self, pager):
        with pytest.raises(ValueError):
            RTree(pager, max_entries=3)

    def test_rejects_bad_min_fill(self, pager):
        with pytest.raises(ValueError):
            RTree(pager, min_fill=0.9)

    def test_rejects_unknown_split(self, pager):
        with pytest.raises(ValueError):
            RTree(pager, split="zigzag")

    def test_rejects_negative_alpha(self, pager):
        with pytest.raises(ValueError):
            RTree(pager, alpha=-0.1)

    def test_min_entries_derived_from_fill(self, pager):
        assert RTree(pager, max_entries=20, min_fill=0.4).min_entries == 8


class TestInsertSearch:
    def test_single_insert_found(self, tree):
        tree.insert(1, (5.0, 5.0))
        assert tree.search_point((5.0, 5.0)) == [1]
        assert len(tree) == 1

    def test_insert_returns_holding_leaf(self, tree, pager):
        pid = tree.insert(1, (5.0, 5.0))
        leaf = pager.inspect(pid)
        assert leaf.find_entry(1) is not None

    def test_duplicate_points_different_ids(self, tree):
        tree.insert(1, (5, 5))
        tree.insert(2, (5, 5))
        assert sorted(tree.search_point((5, 5))) == [1, 2]

    def test_growth_splits_maintain_invariants(self, tree, rng):
        points = random_points(rng, 200)
        for oid, point in points.items():
            tree.insert(oid, point)
        assert_verified(tree)
        assert tree.height >= 3

    def test_range_search_matches_brute_force(self, tree, rng):
        points = random_points(rng, 150)
        for oid, point in points.items():
            tree.insert(oid, point)
        for _ in range(40):
            query = random_query(rng)
            got = sorted(oid for oid, _ in tree.range_search(query))
            assert got == brute_force_range(points, query)

    def test_insert_identical_points_beyond_fanout(self, tree):
        for i in range(30):
            tree.insert(i, (1.0, 1.0))
        assert sorted(tree.search_point((1.0, 1.0))) == list(range(30))
        assert_verified(tree)

    def test_collinear_points(self, tree):
        for i in range(50):
            tree.insert(i, (float(i), 0.0))
        assert_verified(tree)
        got = sorted(oid for oid, _ in tree.range_search(Rect((10, -1), (20, 1))))
        assert got == list(range(10, 21))


class TestDelete:
    def test_delete_existing(self, tree):
        tree.insert(1, (5, 5))
        assert tree.delete(1, (5, 5))
        assert len(tree) == 0
        assert tree.search_point((5, 5)) == []

    def test_delete_missing_returns_false(self, tree):
        tree.insert(1, (5, 5))
        assert not tree.delete(2, (5, 5))
        assert not tree.delete(1, (6, 6))

    def test_delete_all_and_reuse(self, tree, rng):
        points = random_points(rng, 60)
        for oid, point in points.items():
            tree.insert(oid, point)
        for oid, point in points.items():
            assert tree.delete(oid, point)
        assert len(tree) == 0
        assert_verified(tree)
        tree.insert(99, (1, 1))
        assert tree.search_point((1, 1)) == [99]

    def test_condense_preserves_results(self, tree, rng):
        points = random_points(rng, 120)
        for oid, point in points.items():
            tree.insert(oid, point)
        victims = list(points)[::3]
        for oid in victims:
            assert tree.delete(oid, points.pop(oid))
        assert_verified(tree)
        for _ in range(25):
            query = random_query(rng)
            got = sorted(oid for oid, _ in tree.range_search(query))
            assert got == brute_force_range(points, query)

    def test_root_collapse_reduces_height(self, tree, rng):
        points = random_points(rng, 200)
        for oid, point in points.items():
            tree.insert(oid, point)
        tall = tree.height
        for oid, point in list(points.items())[:195]:
            tree.delete(oid, point)
        assert tree.height < tall
        assert_verified(tree)


class TestDeleteAt:
    def test_delete_at_returns_point(self, tree):
        pid = tree.insert(1, (5, 5))
        assert tree.delete_at(1, pid) == (5.0, 5.0)
        assert len(tree) == 0

    def test_delete_at_wrong_page(self, tree):
        tree.insert(1, (5, 5))
        missing = tree.delete_at(1, 999_999)
        assert missing is None

    def test_delete_at_unlinks_empty_leaves(self, pager):
        tree = RTree(pager, max_entries=4, shrink_on_delete=False)
        pids = {}
        for i in range(40):
            pids[i] = tree.insert(i, (float(i), float(i)))
        # delete_at moves objects out leaf by leaf; structure must stay valid
        for i in range(40):
            pid = tree.pager.inspect(tree.root_pid)  # noqa: F841 (root survives)
            current = tree_find(tree, i)
            assert tree.delete_at(i, current) is not None
        assert len(tree) == 0

    def test_update_via_delete_insert(self, tree):
        tree.insert(1, (5, 5))
        tree.update(1, (5, 5), (50, 50))
        assert tree.search_point((50, 50)) == [1]
        assert tree.search_point((5, 5)) == []

    def test_update_missing_raises(self, tree):
        with pytest.raises(KeyError):
            tree.update(1, (0, 0), (1, 1))


def tree_find(tree, oid):
    """Locate the leaf pid currently holding oid (test helper, uncharged)."""
    for leaf in tree.iter_leaves():
        if leaf.find_entry(oid) is not None:
            return leaf.pid
    raise AssertionError(f"object {oid} not found")


class TestCharging:
    def test_search_charges_only_reads(self, tree, rng, pager):
        for oid, point in random_points(rng, 100).items():
            tree.insert(oid, point)
        reads, writes = pager.stats.reads(), pager.stats.writes()
        tree.range_search(Rect((0, 0), (50, 50)))
        assert pager.stats.reads() > reads
        assert pager.stats.writes() == writes

    def test_insert_charges_path_reads_and_leaf_write(self, tree, pager):
        tree.insert(1, (1, 1))  # root is a leaf: 1 read + 1 write
        reads, writes = pager.stats.reads(), pager.stats.writes()
        tree.insert(2, (1.5, 1.5))
        assert pager.stats.reads() == reads + 1
        assert pager.stats.writes() == writes + 1

    def test_iteration_is_uncharged(self, tree, rng, pager):
        for oid, point in random_points(rng, 50).items():
            tree.insert(oid, point)
        total = pager.stats.total()
        list(tree.iter_objects())
        verify_index(tree)
        tree.node_count()
        assert pager.stats.total() == total


class TestSplitPolicies:
    @pytest.mark.parametrize("split", ["linear", "quadratic", "rstar"])
    def test_full_lifecycle_per_policy(self, split, rng):
        pager = Pager()
        tree = RTree(pager, max_entries=6, split=split)
        points = random_points(rng, 150)
        for oid, point in points.items():
            tree.insert(oid, point)
        for _ in range(300):
            oid = rng.choice(list(points))
            new = (rng.uniform(0, 100), rng.uniform(0, 100))
            tree.update(oid, points[oid], new)
            points[oid] = new
        assert_verified(tree)
        for _ in range(20):
            query = random_query(rng)
            got = sorted(oid for oid, _ in tree.range_search(query))
            assert got == brute_force_range(points, query)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        min_size=1,
        max_size=120,
    )
)
def test_property_insert_then_validate(points):
    pager = Pager()
    tree = RTree(pager, max_entries=5)
    for oid, point in enumerate(points):
        tree.insert(oid, point)
    assert_verified(tree)
    assert sorted(oid for oid, _ in tree.iter_objects()) == list(range(len(points)))


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        min_size=2,
        max_size=80,
    ),
    st.randoms(use_true_random=False),
)
def test_property_mixed_workload(points, rnd):
    pager = Pager()
    tree = RTree(pager, max_entries=5)
    alive = {}
    for oid, point in enumerate(points):
        tree.insert(oid, point)
        alive[oid] = point
    for oid in list(alive):
        action = rnd.random()
        if action < 0.4:
            assert tree.delete(oid, alive.pop(oid))
        elif action < 0.7:
            new = (rnd.uniform(0, 100), rnd.uniform(0, 100))
            tree.update(oid, alive[oid], new)
            alive[oid] = new
    assert_verified(tree)
    query = Rect((0, 0), (100, 100))
    assert sorted(o for o, _ in tree.range_search(query)) == sorted(alive)
