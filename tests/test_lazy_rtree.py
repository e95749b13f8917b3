"""Unit tests for the lazy-R-tree (hash-indexed updates, Section 2.1)."""

import math
import random

import pytest

from repro.core.geometry import Rect
from repro.engine.buffer import PendingUpdate
from repro.hashindex import HashIndex
from repro.health import verify_index
from repro.rtree import AlphaTree, LazyRTree
from repro.storage.pager import Pager
from repro.storage.snapshot import load_index, save_index
from tests.conftest import (
    assert_verified,
    brute_force_range,
    random_points,
    random_query,
)


@pytest.fixture
def tree(pager):
    return LazyRTree(pager, max_entries=8)


class TestBasics:
    def test_insert_sets_hash_pointer(self, tree):
        pid = tree.insert(1, (5, 5))
        assert tree.hash.peek(1) == pid

    def test_delete_via_hash(self, tree):
        tree.insert(1, (5, 5))
        assert tree.delete(1)
        assert tree.hash.peek(1) is None
        assert tree.search_point((5, 5)) == []

    def test_delete_missing(self, tree):
        assert not tree.delete(42)

    def test_update_missing_raises(self, tree):
        with pytest.raises(KeyError):
            tree.update(1, (0, 0), (1, 1))

    def test_len_tracks_tree(self, tree, rng):
        for oid, point in random_points(rng, 30).items():
            tree.insert(oid, point)
        assert len(tree) == 30


class TestLazyPath:
    def test_small_move_is_lazy(self, tree):
        for i in range(8):
            tree.insert(i, (float(i), 0.0))
        before = tree.relocations
        tree.update(0, (0.0, 0.0), (0.5, 0.0))  # stays in the only leaf
        assert tree.lazy_hits == 1
        assert tree.relocations == before
        assert tree.search_point((0.5, 0.0)) == [0]

    def test_lazy_update_costs_three_ios(self, tree, pager):
        for i in range(8):
            tree.insert(i, (float(i), 0.0))
        reads, writes = pager.stats.reads(), pager.stats.writes()
        tree.update(0, (0.0, 0.0), (0.5, 0.0))
        # 1 hash-bucket read + 1 leaf read + 1 leaf write (Section 2.1).
        assert pager.stats.reads() - reads == 2
        assert pager.stats.writes() - writes == 1

    def test_far_move_relocates(self, tree, rng):
        points = random_points(rng, 60)
        for oid, point in points.items():
            tree.insert(oid, point)
        tree.update(0, points[0], (999.0, 999.0))
        assert tree.relocations >= 1
        assert tree.search_point((999.0, 999.0)) == [0]
        assert tree.hash.peek(0) is not None

    def test_lazy_path_leaves_structure_untouched(self, tree, rng):
        points = random_points(rng, 60)
        for oid, point in points.items():
            tree.insert(oid, point)
        nodes_before = tree.tree.node_count()
        for oid, point in points.items():
            tree.update(oid, point, (point[0] + 0.01, point[1] + 0.01))
        assert tree.tree.node_count() == nodes_before


class TestHashConsistency:
    def test_pointers_exact_after_splits(self, tree, rng):
        points = random_points(rng, 200)
        for oid, point in points.items():
            tree.insert(oid, point)
        assert_verified(tree)

    def test_pointers_exact_after_heavy_updates(self, tree, rng):
        points = random_points(rng, 100)
        for oid, point in points.items():
            tree.insert(oid, point)
        for _ in range(800):
            oid = rng.randrange(100)
            new = (rng.uniform(0, 100), rng.uniform(0, 100))
            tree.update(oid, points[oid], new)
            points[oid] = new
        assert_verified(tree)
        for _ in range(20):
            query = random_query(rng)
            got = sorted(oid for oid, _ in tree.range_search(query))
            assert got == brute_force_range(points, query)

    def test_pointers_exact_after_deletes(self, tree, rng):
        points = random_points(rng, 120)
        for oid, point in points.items():
            tree.insert(oid, point)
        for oid in list(points)[::2]:
            assert tree.delete(oid)
            del points[oid]
        assert_verified(tree)

    def test_shared_hash_index_across_trees(self, pager):
        from repro.hashindex import HashIndex

        shared = HashIndex(pager, entries_per_bucket=8)
        a = LazyRTree(pager, hash_index=shared)
        a.insert(1, (0, 0))
        assert shared.peek(1) is not None


class TestMBRBehaviour:
    def test_no_shrink_on_delete(self, tree, rng):
        points = random_points(rng, 100)
        for oid, point in points.items():
            tree.insert(oid, point)
        mbrs_before = {
            leaf.pid: leaf.mbr for leaf in tree.tree.iter_leaves()
        }
        # Delete a few objects: surviving leaves must not tighten.
        for oid in list(points)[:20]:
            tree.delete(oid)
        for leaf in tree.tree.iter_leaves():
            if leaf.pid in mbrs_before and leaf.entries:
                assert mbrs_before[leaf.pid].contains_rect(leaf.mbr)

    def test_queries_correct_with_loose_mbrs(self, rng):
        pager = Pager()
        tree = LazyRTree(pager, max_entries=6)
        points = random_points(rng, 150)
        for oid, point in points.items():
            tree.insert(oid, point)
        for oid in list(points)[::3]:
            tree.delete(oid)
            del points[oid]
        for _ in range(25):
            query = random_query(rng)
            got = sorted(oid for oid, _ in tree.range_search(query))
            assert got == brute_force_range(points, query)


DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))


def _build(cls, rng, count, max_entries=8, entries_per_bucket=32):
    """A tree of ``count`` random points over several hash buckets."""
    pager = Pager()
    tree = cls(
        pager,
        max_entries=max_entries,
        hash_index=HashIndex(pager, entries_per_bucket=entries_per_bucket),
    )
    points = random_points(rng, count)
    for oid, point in points.items():
        tree.insert(oid, point)
    return tree, points


def _random_batch(rng, positions, size, t0):
    """A coalesced batch: distinct ids, mostly small jitters (same-MBR hits),
    some jumps across the domain (escapees), a few brand-new ids."""
    known = rng.sample(sorted(positions), min(size, len(positions)))
    fresh = range(max(positions) + 1, max(positions) + 1 + max(1, size // 10))
    batch = []
    for seq, oid in enumerate(known[: size - len(fresh)] + list(fresh)):
        old = positions.get(oid)
        if old is None or rng.random() < 0.25:
            new = (rng.uniform(0, 100), rng.uniform(0, 100))
        else:
            new = (
                min(100.0, max(0.0, old[0] + rng.gauss(0, 1.5))),
                min(100.0, max(0.0, old[1] + rng.gauss(0, 1.5))),
            )
        batch.append(PendingUpdate(oid=oid, old_point=old, point=new, t=t0 + seq, seq=seq))
    return batch


def _apply_one_by_one(tree, batch):
    for update in batch:
        if update.old_point is None:
            tree.insert(update.oid, update.point, now=update.t)
        else:
            tree.update(update.oid, update.old_point, update.point, now=update.t)


class TestApplyBatch:
    def test_batch_of_one_hit_costs_three_ios(self, tree, pager):
        for i in range(8):
            tree.insert(i, (float(i), 0.0))
        reads, writes = pager.stats.reads(), pager.stats.writes()
        applied = tree.apply_batch(
            [PendingUpdate(oid=0, old_point=(0.0, 0.0), point=(0.5, 0.0), t=1.0, seq=1)]
        )
        assert applied == 1
        assert pager.stats.reads() - reads == 2
        assert pager.stats.writes() - writes == 1
        assert (tree.lazy_hits, tree.relocations) == (1, 0)
        assert tree.search_point((0.5, 0.0)) == [0]

    def test_hits_cost_one_read_per_bucket_and_a_read_and_write_per_leaf(self, rng):
        tree, points = _build(LazyRTree, rng, 300)
        leaves = sum(1 for _ in tree.tree.iter_leaves())
        pager = tree.pager
        reads, writes = pager.stats.reads(), pager.stats.writes()
        # Every object re-reports where it already is: 300 same-MBR hits.
        tree.apply_batch(
            [
                PendingUpdate(oid=oid, old_point=point, point=point, t=0.0, seq=oid)
                for oid, point in points.items()
            ]
        )
        assert pager.stats.reads() - reads == tree.hash.bucket_count + leaves
        assert pager.stats.writes() - writes == leaves
        assert (tree.lazy_hits, tree.relocations) == (300, 0)

    @pytest.mark.parametrize("cls", [LazyRTree, AlphaTree])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_a_sequential_twin(self, cls, seed):
        batched, positions = _build(cls, random.Random(seed), 400)
        twin, _ = _build(cls, random.Random(seed), 400)
        rng = random.Random(seed * 101)
        moves = 0
        batched.pager.stats.reset()
        twin.pager.stats.reset()
        for round_no, size in enumerate([1, 300, 2, 47, 150, 7, 300, 64, 23, 300]):
            batch = _random_batch(rng, positions, size, t0=1000.0 * round_no)
            moves += sum(1 for update in batch if update.old_point is not None)
            assert batched.apply_batch(batch) == len(batch)
            _apply_one_by_one(twin, batch)
            positions.update((update.oid, update.point) for update in batch)

            assert sorted(batched.range_search(DOMAIN)) == sorted(positions.items())
            assert sorted(twin.range_search(DOMAIN)) == sorted(positions.items())
            assert_verified(batched)
            assert len(batched) == len(twin) == len(positions)
            assert batched.lazy_hits + batched.relocations == moves
            assert twin.lazy_hits + twin.relocations == moves
        assert batched.relocations > 0 and batched.lazy_hits > 0
        assert batched.tree.on_entries_moved == batched._entries_moved
        assert batched.pager.stats.total() < twin.pager.stats.total()
        for _ in range(20):
            query = random_query(rng)
            assert sorted(batched.range_search(query)) == sorted(twin.range_search(query))

    def test_repeated_id_resolves_to_its_last_entry(self, rng):
        tree, points = _build(LazyRTree, rng, 60)
        batch = [
            PendingUpdate(oid=5, old_point=points[5], point=(1.0, 1.0), t=1.0, seq=1),
            PendingUpdate(oid=6, old_point=points[6], point=(2.0, 2.0), t=2.0, seq=2),
            PendingUpdate(oid=5, old_point=(1.0, 1.0), point=(99.0, 99.0), t=3.0, seq=3),
            # An insert and a move of the same new id: the hash has never
            # heard of it, so it is one insert at the final point.
            PendingUpdate(oid=77, old_point=None, point=(3.0, 3.0), t=4.0, seq=4),
            PendingUpdate(oid=77, old_point=(3.0, 3.0), point=(50.0, 50.0), t=5.0, seq=5),
        ]
        assert tree.apply_batch(batch) == 5
        points.update({5: (99.0, 99.0), 6: (2.0, 2.0), 77: (50.0, 50.0)})
        assert sorted(tree.range_search(DOMAIN)) == sorted(points.items())
        assert len(tree) == 61
        assert tree.lazy_hits + tree.relocations == 2
        assert_verified(tree)

    def test_insert_of_an_indexed_id_is_a_move(self, rng):
        tree, points = _build(LazyRTree, rng, 60)
        tree.apply_batch(
            [PendingUpdate(oid=9, old_point=None, point=(42.0, 42.0), t=1.0, seq=1)]
        )
        points[9] = (42.0, 42.0)
        assert sorted(tree.range_search(DOMAIN)) == sorted(points.items())
        assert_verified(tree)

    @pytest.mark.parametrize("cls", [LazyRTree, AlphaTree])
    def test_unknown_id_raises_before_anything_changes(self, cls, rng):
        tree, points = _build(cls, rng, 120)
        batch = _random_batch(rng, points, 40, t0=0.0)
        batch.insert(
            20, PendingUpdate(oid=5000, old_point=(1.0, 1.0), point=(2.0, 2.0), t=0.5, seq=99)
        )
        writes = tree.pager.stats.writes()
        with pytest.raises(KeyError):
            tree.apply_batch(batch)
        assert tree.pager.stats.writes() == writes
        assert sorted(tree.range_search(DOMAIN)) == sorted(points.items())
        assert (tree.lazy_hits, tree.relocations) == (0, 0)
        assert_verified(tree)

    @pytest.mark.parametrize("dim, wrong", [(3, 2), (2, 3), (2, 1)])
    def test_a_point_of_another_dimension_loses_no_object(self, dim, wrong, rng):
        tree = LazyRTree(Pager(), max_entries=8)
        points = {
            oid: tuple(rng.uniform(0, 100) for _ in range(dim)) for oid in range(40)
        }
        for oid, point in points.items():
            tree.insert(oid, point)
        # Inside the leaf's MBR once truncated to the shorter point, and far
        # outside it: the lazy test and the escapee path.
        moves = [points[7][:wrong] + (50.0,) * (wrong - dim), (500.0,) * wrong]
        for point in moves:
            with pytest.raises(ValueError, match="dimension mismatch"):
                tree.update(7, points[7], point)
            writes = tree.pager.stats.writes()
            escapee = PendingUpdate(
                oid=3, old_point=points[3], point=(-50.0,) * dim, t=1.0, seq=1
            )
            move = PendingUpdate(oid=7, old_point=points[7], point=point, t=2.0, seq=2)
            arrival = PendingUpdate(oid=99, old_point=None, point=point, t=2.0, seq=2)
            # The escapee comes first, so a late failure would strand it.
            for batch in ([move], [escapee, move], [escapee, arrival]):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    tree.apply_batch(batch)
                assert tree.pager.stats.writes() == writes
            assert len(tree) == 40
            everywhere = Rect((-1e9,) * dim, (1e9,) * dim)
            assert sorted(tree.range_search(everywhere)) == sorted(points.items())
            assert verify_index(tree).ok

    @pytest.mark.parametrize(
        "target",
        [
            (50.0, math.nan),
            (50.0, math.inf),
            (50.0, -math.inf),
            (50.0, 10**400),
            (10**400, -10**400),  # sums to 0: each coordinate needs its own test
        ],
        ids=["nan", "inf", "-inf", "1e400", "1e400-cancelling"],
    )
    def test_a_non_finite_point_loses_no_object(self, target, rng):
        tree, points = _build(LazyRTree, rng, 40)
        writes = tree.pager.stats.writes()
        with pytest.raises(ValueError, match="not a finite float"):
            tree.update(7, points[7], target)
        move = PendingUpdate(oid=7, old_point=points[7], point=target, t=99.0, seq=99)
        others = {oid: point for oid, point in points.items() if oid != 7}
        # 39 valid moves -- hits, escapees and new ids -- then the bad one:
        # a late failure would strand the escapees out of their leaves.
        mixed = _random_batch(rng, others, 39, t0=0.0) + [move]
        assert len(mixed) == 40
        for batch in ([move], mixed):
            with pytest.raises(ValueError, match="not a finite float"):
                tree.apply_batch(batch)
        assert tree.pager.stats.writes() == writes
        assert len(tree) == 40
        assert sorted(tree.range_search(DOMAIN)) == sorted(points.items())
        assert (tree.lazy_hits, tree.relocations) == (0, 0)
        assert verify_index(tree).ok

    @pytest.mark.parametrize("cls", [LazyRTree, AlphaTree])
    @pytest.mark.parametrize(
        "point",
        [(math.inf, 5.0), (math.nan, 5.0), (10**400, 5.0)],
        ids=["inf", "nan", "1e400"],
    )
    def test_a_non_finite_insert_changes_nothing(self, cls, point, rng):
        tree, points = _build(cls, rng, 40)
        def root_bounds():
            mbr = tree.tree.pager.inspect(tree.tree.root_pid).mbr
            return tuple(mbr.lo), tuple(mbr.hi)

        bounds = root_bounds()
        ledger = (tree.pager.stats.reads(), tree.pager.stats.writes())
        with pytest.raises(ValueError, match="not a finite float"):
            tree.insert(99, point)
        assert (tree.pager.stats.reads(), tree.pager.stats.writes()) == ledger
        assert len(tree) == 40
        assert root_bounds() == bounds
        assert sorted(tree.range_search(DOMAIN)) == sorted(points.items())
        assert verify_index(tree).ok

    def test_huge_ints_that_cancel_across_a_batch_lose_no_object(self, rng):
        huge = 10**400
        tree, points = _build(LazyRTree, rng, 40)
        line = LazyRTree(Pager(), max_entries=4)
        for oid in range(10):
            line.insert(oid, (float(oid),))
        for index, moves in (
            (tree, [(7, points[7], (huge, 50.0)), (8, points[8], (-huge, 50.0))]),
            (line, [(2, (2.0,), (huge,)), (5, (5.0,), (-huge,))]),
        ):
            size = len(index)
            writes = index.pager.stats.writes()
            batch = [
                PendingUpdate(oid=oid, old_point=old, point=new, t=float(t), seq=t)
                for t, (oid, old, new) in enumerate(moves)
            ]
            with pytest.raises(ValueError, match="not a finite float"):
                index.apply_batch(batch)
            assert index.pager.stats.writes() == writes
            assert len(index) == size
            assert verify_index(index).ok
        assert sorted(tree.range_search(DOMAIN)) == sorted(points.items())

    def test_large_finite_coordinates_are_accepted(self, rng):
        """Coordinates near the float limit are finite and must pass."""
        tree, points = _build(LazyRTree, rng, 40)
        big = [
            PendingUpdate(oid=oid, old_point=points[oid], point=(1e308, 1e308), t=t, seq=t)
            for t, oid in enumerate((3, 4))
        ]
        assert tree.apply_batch(big) == 2
        points.update({3: (1e308, 1e308), 4: (1e308, 1e308)})
        everywhere = Rect((0.0, 0.0), (math.inf, math.inf))
        assert sorted(tree.range_search(everywhere)) == sorted(points.items())
        assert verify_index(tree).ok

    def test_stale_pointer_mid_batch_loses_no_object(self, rng):
        tree, points = _build(LazyRTree, rng, 200)
        batch = [
            PendingUpdate(
                oid=oid, old_point=points[oid],
                point=(rng.uniform(0, 100), rng.uniform(0, 100)), t=float(oid), seq=oid,
            )
            for oid in range(150)
        ]
        # Corrupt the pointer of the batch's last object: every earlier
        # leaf has been visited (and its escapees removed) when it surfaces.
        elsewhere = next(
            leaf.pid for leaf in tree.tree.iter_leaves() if leaf.pid != tree.hash.peek(149)
        )
        tree.hash.set(149, elsewhere)
        with pytest.raises(KeyError, match="stale hash pointer"):
            tree.apply_batch(batch)
        held = tree.range_search(DOMAIN)
        assert sorted(oid for oid, _ in held) == sorted(points)
        assert len(tree) == 200
        targets = {update.oid: update.point for update in batch}
        assert all(point in (points[oid], targets.get(oid)) for oid, point in held)
        assert tree.tree.on_entries_moved == tree._entries_moved
        # The injected pointer is the only damage left behind ...
        assert verify_index(tree).by_code() == {"hash-stale": 1}
        # ... and once it is repaired the same batch applies again cleanly.
        home = next(
            leaf.pid for leaf in tree.tree.iter_leaves() if leaf.find_entry(149) is not None
        )
        tree.hash.set(149, home)
        assert tree.apply_batch(batch) == len(batch)
        points.update(targets)
        assert sorted(tree.range_search(DOMAIN)) == sorted(points.items())
        assert_verified(tree)

    def test_tree_loaded_from_a_snapshot_takes_batches(self, rng, tmp_path):
        original, points = _build(LazyRTree, rng, 150)
        save_index(original, tmp_path / "lazy.json")
        tree = load_index(tmp_path / "lazy.json")
        batch = _random_batch(rng, points, 120, t0=0.0)
        tree.apply_batch(batch)
        points.update((update.oid, update.point) for update in batch)
        assert sorted(tree.range_search(DOMAIN)) == sorted(points.items())
        assert tree.relocations > 0
        assert_verified(tree)
