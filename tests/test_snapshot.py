"""Tests for snapshot persistence (save/load without pickle)."""

import json
import random

import pytest

from repro.core.ctrtree import CTRTree
from repro.core.geometry import Rect
from repro.core.params import CTParams
from repro.engine import make_index
from repro.rtree import AlphaTree, LazyRTree
from repro.storage import BufferPool
from repro.storage.pager import Pager
from repro.storage.snapshot import (
    SnapshotError,
    build_document,
    load_index,
    save_index,
)
from tests.conftest import (
    assert_verified,
    brute_force_range,
    random_points,
    random_query,
)

DOMAIN = Rect((0, 0), (1000, 1000))


class TestLazyRTreeSnapshot:
    def build(self, rng):
        tree = LazyRTree(Pager(), max_entries=6)
        points = random_points(rng, 120)
        for oid, point in points.items():
            tree.insert(oid, point)
        for oid in list(points)[::5]:
            new = (rng.uniform(0, 100), rng.uniform(0, 100))
            tree.update(oid, points[oid], new)
            points[oid] = new
        return tree, points

    def test_roundtrip_preserves_contents(self, rng, tmp_path):
        tree, points = self.build(rng)
        path = save_index(tree, tmp_path / "lazy.json")
        loaded = load_index(path)
        assert len(loaded) == len(points)
        assert_verified(loaded)
        for _ in range(15):
            query = random_query(rng)
            got = sorted(oid for oid, _ in loaded.range_search(query))
            assert got == brute_force_range(points, query)

    def test_loaded_tree_is_fully_operational(self, rng, tmp_path):
        tree, points = self.build(rng)
        loaded = load_index(save_index(tree, tmp_path / "lazy.json"))
        loaded.insert(999, (50.0, 50.0))
        assert loaded.search_point((50.0, 50.0)) == [999]
        oid = next(iter(points))
        loaded.update(oid, points[oid], (1.0, 1.0))
        assert loaded.delete(oid)
        assert_verified(loaded)

    def test_configuration_preserved(self, rng, tmp_path):
        tree = AlphaTree(Pager(), max_entries=8, alpha=0.25)
        for oid, point in random_points(rng, 30).items():
            tree.insert(oid, point)
        loaded = load_index(save_index(tree, tmp_path / "a.json"))
        assert loaded.tree.alpha == 0.25
        assert loaded.tree.max_entries == 8

    def test_load_charges_nothing(self, rng, tmp_path):
        tree, _ = self.build(rng)
        loaded = load_index(save_index(tree, tmp_path / "lazy.json"))
        assert loaded.pager.stats.total() == 0


class TestCTRTreeSnapshot:
    def build(self, rng):
        regions = [Rect((i * 200.0, 100), (i * 200.0 + 80, 180)) for i in range(4)]
        tree = CTRTree(
            Pager(), DOMAIN, regions, max_entries=6,
            ct_params=CTParams(t_list=1, t_buf_num=3, t_buf_time=100.0),
        )
        points = {}
        for oid in range(90):
            point = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            tree.insert(oid, point, now=float(oid))
            points[oid] = point
        return tree, points

    def test_roundtrip_preserves_everything(self, rng, tmp_path):
        tree, points = self.build(rng)
        assert tree.buffered_object_count() > 0  # exercise buffers too
        path = save_index(tree, tmp_path / "ct.json")
        loaded = load_index(path)
        assert len(loaded) == len(points)
        assert loaded.region_count == tree.region_count
        assert_verified(loaded)
        for _ in range(15):
            query = random_query(rng, span=1000)
            got = sorted(oid for oid, _ in loaded.range_search(query))
            assert got == brute_force_range(points, query)

    def test_buffer_trees_restored(self, rng, tmp_path):
        tree, _ = self.build(rng)
        if not tree._buffer_trees:
            pytest.skip("no buffer converted in this build")
        loaded = load_index(save_index(tree, tmp_path / "ct.json"))
        assert set(loaded._buffer_trees) == set(tree._buffer_trees)
        for pid, btree in loaded._buffer_trees.items():
            assert len(btree) == len(tree._buffer_trees[pid])

    def test_loaded_tree_keeps_working(self, rng, tmp_path):
        tree, points = self.build(rng)
        loaded = load_index(save_index(tree, tmp_path / "ct.json"))
        oid = next(iter(points))
        loaded.update(oid, points[oid], (150.0, 140.0), now=1000.0)
        assert loaded.search_point((150.0, 140.0)) == [oid]
        loaded.insert(4242, (150.5, 140.5), now=1001.0)
        assert loaded.delete(4242, now=1002.0)
        assert_verified(loaded)

    def test_params_and_counters_preserved(self, rng, tmp_path):
        tree, _ = self.build(rng)
        loaded = load_index(save_index(tree, tmp_path / "ct.json"))
        assert loaded.params.t_list == 1
        assert loaded.params.t_buf_num == 3
        assert loaded._next_region_id == tree._next_region_id
        assert loaded._clock == tree._clock
        assert loaded.adaptive == tree.adaptive

    def test_adaptation_works_after_reload(self, rng, tmp_path):
        tree, _ = self.build(rng)
        loaded = load_index(save_index(tree, tmp_path / "ct.json"))
        # Stream a tight new cluster (the test_adaptive fill pattern):
        # promotion must still fire post-reload.
        t = loaded._clock
        for i in range(50):
            t += 20.0
            offset = (i % 7) * 0.4
            loaded.insert(5000 + i, (900.0 + offset, 900.0 + offset / 2.0), now=t)
        assert loaded.adaptation.promotions >= 1
        assert_verified(loaded)


class TestPooledSnapshot:
    """An index over a ``BufferPool`` saves what the same index over a bare
    ``Pager`` saves: the pool changes which I/Os are charged, never a page."""

    def build(self, rng, kind, store):
        index = make_index(kind, store, DOMAIN, max_entries=6)
        points = random_points(rng, 120)
        for oid, point in points.items():
            index.insert(oid, point, now=0.0)
        for oid in list(points)[::3]:
            new = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            index.update(oid, points[oid], new, now=1.0)
            points[oid] = new
        return index, points

    @pytest.mark.parametrize("kind", ["rtree", "lazy", "alpha", "lsm"])
    def test_roundtrip_over_a_pool(self, kind, tmp_path):
        pooled, points = self.build(
            random.Random(5), kind, BufferPool(Pager(), capacity=8)
        )
        bare, _ = self.build(random.Random(5), kind, Pager())
        document = build_document(pooled)
        assert document == build_document(bare)
        path = save_index(pooled, tmp_path / "pooled.json")
        loaded = load_index(path)
        assert build_document(loaded) == document
        assert len(loaded) == len(points)
        rng = random.Random(6)
        for _ in range(10):
            query = random_query(rng, span=1000)
            got = sorted(oid for oid, _ in loaded.range_search(query))
            assert got == brute_force_range(points, query)


class TestFormatValidation:
    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(SnapshotError):
            load_index(path)

    def test_rejects_wrong_version(self, rng, tmp_path):
        tree = LazyRTree(Pager())
        tree.insert(1, (1.0, 1.0))
        path = save_index(tree, tmp_path / "lazy.json")
        document = json.loads(path.read_text())
        document["version"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotError):
            load_index(path)

    def test_snapshot_is_pure_data(self, rng, tmp_path):
        tree = LazyRTree(Pager())
        tree.insert(1, (1.0, 1.0))
        path = save_index(tree, tmp_path / "lazy.json")
        text = path.read_text()
        json.loads(text)  # valid JSON
        assert "__" not in text  # no dunder / code smuggling


class TestShardedSnapshot:
    def build(self, rng, kind):
        from repro.engine import ShardedIndex

        index = ShardedIndex(kind, DOMAIN, 4, max_entries=6)
        points = random_points(rng, 120)
        for oid, point in points.items():
            index.insert(oid, point, now=0.0)
        for oid in list(points)[::3]:
            new = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            index.update(oid, points[oid], new, now=1.0)
            points[oid] = new
        index.range_search(random_query(rng))
        return index

    @pytest.mark.parametrize("kind", ["lazy", "rtree"])
    def test_loaded_engine_dict_equals_live(self, rng, tmp_path, kind):
        """The loader goes through the constructor: every router field a
        live engine reports comes back, run ledgers aside."""
        index = self.build(rng, kind)
        assert index.cross_shard_moves > 0
        loaded = load_index(save_index(index, tmp_path / "sharded.json"))

        def without_runs(engine):
            doc = engine.engine_dict()
            for shard in doc["shards"]:
                del shard["run"]
            return doc

        assert without_runs(loaded) == without_runs(index)
        assert loaded.position_map() == index.position_map()
        assert loaded.cross_move_counts() == index.cross_move_counts()
        assert loaded.pager.stats.total() == 0
