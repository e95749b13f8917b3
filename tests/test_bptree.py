"""Tests for the B+-tree substrate and its lazy variant (Section-6 extension)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BPlusTree, LazyBPlusTree
from repro.btree.bptree import HIGH_SENTINEL, LOW_SENTINEL, BNode
from repro.health import verify_index
from repro.storage.pager import Pager
from tests.conftest import assert_verified


def brute_range(keys, low, high):
    return sorted(
        (k, oid) for oid, k in keys.items() if low <= k <= high
    )


@pytest.fixture
def tree(pager):
    return BPlusTree(pager, max_entries=6)


class TestConstruction:
    def test_empty(self, tree):
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.range_search(-1e9, 1e9) == []
        assert_verified(tree)

    def test_rejects_small_fanout(self, pager):
        with pytest.raises(ValueError):
            BPlusTree(pager, max_entries=3)


class TestBTreeExtras:
    def test_bptree_repr_and_node_count(self, rng):
        tree = BPlusTree(Pager(), max_entries=6)
        for oid in range(60):
            tree.insert(oid, rng.uniform(0, 100))
        assert "size=60" in repr(tree)
        assert tree.node_count() > 1

    def test_bnode_covers_sentinels(self):
        node = BNode(leaf=True)
        assert node.low == LOW_SENTINEL
        assert node.high == HIGH_SENTINEL
        assert node.covers((1e308, 0))
        assert node.covers((-1e308, 5))

    def test_lazy_bptree_repr(self, pager):
        tree = LazyBPlusTree(pager)
        tree.insert(1, 5.0)
        assert "size=1" in repr(tree)


class TestInsertSearch:
    def test_single(self, tree):
        tree.insert(1, 42.0)
        assert tree.search(42.0) == [1]
        assert tree.search(41.0) == []

    def test_duplicate_keys_coexist(self, tree):
        tree.insert(1, 20.0)
        tree.insert(2, 20.0)
        tree.insert(3, 20.0)
        assert sorted(tree.search(20.0)) == [1, 2, 3]

    def test_many_inserts_keep_invariants(self, tree, rng):
        keys = {oid: rng.uniform(0, 1000) for oid in range(300)}
        for oid, key in keys.items():
            tree.insert(oid, key)
        assert_verified(tree)
        assert tree.height >= 3

    def test_range_search_matches_brute_force(self, tree, rng):
        keys = {oid: rng.uniform(0, 100) for oid in range(200)}
        for oid, key in keys.items():
            tree.insert(oid, key)
        for _ in range(30):
            low = rng.uniform(0, 90)
            high = low + rng.uniform(0, 30)
            got = sorted((k, oid) for oid, k in tree.range_search(low, high))
            assert got == brute_range(keys, low, high)

    def test_range_search_reversed_bounds(self, tree):
        tree.insert(1, 5.0)
        assert tree.range_search(10.0, 0.0) == []

    def test_sorted_insertion_order(self, tree):
        for i in range(100):
            tree.insert(i, float(i))
        assert_verified(tree)
        assert [oid for oid, _ in tree.iter_entries()] == list(range(100))

    def test_reverse_sorted_insertion(self, tree):
        for i in range(100):
            tree.insert(i, float(-i))
        assert_verified(tree)

    def test_all_identical_keys_beyond_fanout(self, tree):
        for i in range(40):
            tree.insert(i, 7.0)
        assert_verified(tree)
        assert sorted(tree.search(7.0)) == list(range(40))

    def test_insert_returns_holding_leaf(self, tree, pager):
        pid = tree.insert(1, 3.0)
        leaf = pager.inspect(pid)
        assert leaf.find_entry(1) is not None


class TestDelete:
    def test_delete_existing(self, tree):
        tree.insert(1, 5.0)
        assert tree.delete(1, 5.0)
        assert len(tree) == 0
        assert tree.search(5.0) == []

    def test_delete_missing(self, tree):
        tree.insert(1, 5.0)
        assert not tree.delete(2, 5.0)
        assert not tree.delete(1, 6.0)

    def test_delete_all_then_reuse(self, tree, rng):
        keys = {oid: rng.uniform(0, 100) for oid in range(150)}
        for oid, key in keys.items():
            tree.insert(oid, key)
        for oid, key in keys.items():
            assert tree.delete(oid, key)
        assert len(tree) == 0
        assert_verified(tree)
        tree.insert(999, 1.0)
        assert tree.search(1.0) == [999]

    def test_interleaved_delete_keeps_chain(self, tree, rng):
        keys = {oid: rng.uniform(0, 100) for oid in range(200)}
        for oid, key in keys.items():
            tree.insert(oid, key)
        for oid in list(keys)[::2]:
            assert tree.delete(oid, keys.pop(oid))
        assert_verified(tree)
        got = sorted((k, oid) for oid, k in tree.range_search(-1, 101))
        assert got == brute_range(keys, -1, 101)

    def test_delete_at_via_pointer(self, tree):
        pid = tree.insert(1, 5.0)
        assert tree.delete_at(1, pid) == 5.0
        assert tree.delete_at(1, pid) is None or len(tree) == 0

    def test_update_moves_key(self, tree):
        tree.insert(1, 5.0)
        tree.update(1, 5.0, 99.0)
        assert tree.search(5.0) == []
        assert tree.search(99.0) == [1]

    def test_update_missing_raises(self, tree):
        with pytest.raises(KeyError):
            tree.update(1, 5.0, 6.0)


class TestCharging:
    def test_search_is_read_only(self, tree, rng, pager):
        for oid in range(100):
            tree.insert(oid, rng.uniform(0, 100))
        writes = pager.stats.writes()
        tree.range_search(10, 20)
        assert pager.stats.writes() == writes

    def test_introspection_uncharged(self, tree, rng, pager):
        for oid in range(60):
            tree.insert(oid, rng.uniform(0, 100))
        total = pager.stats.total()
        list(tree.iter_entries())
        verify_index(tree)
        tree.node_count()
        assert pager.stats.total() == total


class TestLazyBPlusTree:
    def test_in_interval_update_is_lazy_and_cheap(self, pager):
        tree = LazyBPlusTree(pager, max_entries=6)
        for oid in range(6):
            tree.insert(oid, float(oid * 10))
        reads, writes = pager.stats.reads(), pager.stats.writes()
        tree.update(3, 30.0, 31.0)  # single-leaf tree: always in interval
        assert (pager.stats.reads() - reads, pager.stats.writes() - writes) == (2, 1)
        assert tree.lazy_hits == 1
        assert tree.search(31.0) == [3]

    def test_cross_separator_update_relocates(self, pager, rng):
        tree = LazyBPlusTree(pager, max_entries=6)
        keys = {oid: rng.uniform(0, 100) for oid in range(100)}
        for oid, key in keys.items():
            tree.insert(oid, key)
        # A median-key object sits in an interior leaf, bounded on both
        # sides (edge leaves have sentinel bounds and tolerate anything).
        median_oid = sorted(keys, key=keys.get)[50]
        tree.update(median_oid, keys[median_oid], keys[median_oid] + 500.0)
        assert tree.relocations >= 1
        assert tree.search(keys[median_oid] + 500.0) == [median_oid]
        assert_verified(tree)

    def test_drifting_sensor_is_mostly_lazy(self, pager, rng):
        """The whole point: slow drift around an operating point stays lazy."""
        tree = LazyBPlusTree(pager, max_entries=8)
        keys = {}
        for oid in range(50):
            keys[oid] = 20.0 + rng.gauss(0, 1.0)
            tree.insert(oid, keys[oid])
        for _ in range(1000):
            oid = rng.randrange(50)
            new = keys[oid] + rng.gauss(0, 0.05)
            tree.update(oid, keys[oid], new)
            keys[oid] = new
        assert tree.lazy_hits / 1000 > 0.8
        assert_verified(tree)

    def test_delete_via_hash(self, pager, rng):
        tree = LazyBPlusTree(pager, max_entries=6)
        for oid in range(80):
            tree.insert(oid, rng.uniform(0, 100))
        for oid in range(0, 80, 3):
            assert tree.delete(oid)
        assert not tree.delete(0)
        assert_verified(tree)

    def test_update_missing_raises(self, pager):
        tree = LazyBPlusTree(pager)
        with pytest.raises(KeyError):
            tree.update(5, 0.0, 1.0)


key_floats = st.floats(min_value=-1000, max_value=1000, allow_nan=False, width=32)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["insert", "move", "delete"]),
                           st.integers(0, 20), key_floats), max_size=150))
def test_property_bptree_matches_dict(steps):
    tree = BPlusTree(Pager(), max_entries=5)
    oracle = {}
    for op, oid, key in steps:
        if op == "insert" and oid not in oracle:
            tree.insert(oid, key)
            oracle[oid] = float(key)
        elif op == "move" and oid in oracle:
            tree.update(oid, oracle[oid], key)
            oracle[oid] = float(key)
        elif op == "delete" and oid in oracle:
            assert tree.delete(oid, oracle.pop(oid))
    assert_verified(tree)
    got = sorted((k, oid) for oid, k in tree.range_search(-1e9, 1e9))
    assert got == sorted((k, oid) for oid, k in oracle.items())


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["insert", "move", "delete"]),
                           st.integers(0, 20), key_floats), max_size=150))
def test_property_lazy_bptree_matches_dict(steps):
    tree = LazyBPlusTree(Pager(), max_entries=5)
    oracle = {}
    for op, oid, key in steps:
        if op == "insert" and oid not in oracle:
            tree.insert(oid, key)
            oracle[oid] = float(key)
        elif op == "move" and oid in oracle:
            tree.update(oid, oracle[oid], key)
            oracle[oid] = float(key)
        elif op == "delete" and oid in oracle:
            assert tree.delete(oid)
            del oracle[oid]
    assert_verified(tree)
    got = sorted((k, oid) for oid, k in tree.range_search(-1e9, 1e9))
    assert got == sorted((k, oid) for oid, k in oracle.items())
