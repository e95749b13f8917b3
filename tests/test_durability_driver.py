"""Driver + DurabilityManager integration: logged replays are recoverable."""

import random

import pytest

from repro.citysim.trace import TraceRecord
from repro.core.geometry import Rect
from repro.durability import DurabilityManager, list_segments, recover
from repro.engine import FlushPolicy, ShardedIndex, UpdateBuffer
from repro.storage.pager import Pager
from repro.workload.driver import IndexKind, SimulationDriver, make_index
from repro.workload.queries import RangeQuery
from tests.conftest import random_points

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))


def make_workload(seed=11, n_objects=12, n_updates=36, n_queries=4):
    rng = random.Random(seed)
    positions = random_points(rng, n_objects)
    updates = [
        TraceRecord(
            oid=i % n_objects,
            point=(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
            t=float(i + 1),
        )
        for i in range(n_updates)
    ]
    queries = [
        RangeQuery(
            rect=Rect((10.0 * q, 0.0), (10.0 * q + 50.0, 80.0)),
            t=float((q + 1) * n_updates // n_queries) + 0.5,
        )
        for q in range(n_queries)
    ]
    return positions, updates, queries


def range_snapshot(index, rect=DOMAIN):
    return sorted(oid for oid, _ in index.range_search(rect))


class TestDriverDurability:
    @pytest.mark.parametrize("batched", [False, True])
    def test_recovered_index_matches_the_live_one(self, tmp_path, batched):
        positions, updates, queries = make_workload()
        index = make_index(IndexKind.LAZY, Pager(), DOMAIN)
        buffer = (
            UpdateBuffer(FlushPolicy(batch_size=8)) if batched else None
        )
        durability = DurabilityManager(tmp_path, sync="always")
        driver = SimulationDriver(
            index,
            index.pager,
            IndexKind.LAZY,
            update_buffer=buffer,
            durability=durability,
        )
        driver.load(positions, now=0.0)
        assert durability.checkpoints_taken == 1  # the post-load baseline
        result = driver.run(updates, queries)
        assert result.n_updates == len(updates)
        # No closing checkpoint: recovery must replay the whole stream.
        recovered, report = recover(tmp_path)
        assert report.records_replayed == len(updates)
        assert range_snapshot(recovered) == range_snapshot(index)
        for rect in (q.rect for q in queries):
            assert range_snapshot(recovered, rect) == range_snapshot(index, rect)

    def test_checkpoint_cadence_bounds_replay(self, tmp_path):
        positions, updates, _ = make_workload()
        index = make_index(IndexKind.LAZY, Pager(), DOMAIN)
        durability = DurabilityManager(
            tmp_path, sync="group:4", checkpoint_every=10
        )
        driver = SimulationDriver(
            index, index.pager, IndexKind.LAZY, durability=durability
        )
        driver.load(positions, now=0.0)
        driver.run(updates, [])
        durability.close()
        # 36 updates at a 10-update cadence: baseline + 3 automatic.
        assert durability.checkpoints_taken == 4
        recovered, report = recover(tmp_path)
        # Only the 6-update tail past the newest checkpoint replays.
        assert report.records_replayed == 6
        assert range_snapshot(recovered) == range_snapshot(index)

    def test_sharded_driver_logs_to_one_wal(self, tmp_path):
        positions, updates, queries = make_workload()
        index = ShardedIndex(IndexKind.LAZY, DOMAIN, 4)
        durability = DurabilityManager(tmp_path, sync="always")
        driver = SimulationDriver(
            index, index.pager, "sharded", durability=durability
        )
        driver.load(positions, now=0.0)
        driver.run(updates, queries)
        assert not [p for p in tmp_path.iterdir() if p.is_dir()]
        assert list_segments(tmp_path)
        recovered, report = recover(tmp_path)
        assert report.kind == "sharded"
        assert report.records_replayed == len(updates)
        assert range_snapshot(recovered) == range_snapshot(index)

    def test_wal_counters_reach_the_metrics_registry(self, tmp_path):
        from repro.obs.metrics import set_enabled

        registry = set_enabled(True)
        registry.reset()
        try:
            positions, updates, _ = make_workload(n_updates=12)
            index = make_index(IndexKind.LAZY, Pager(), DOMAIN)
            durability = DurabilityManager(tmp_path, sync="group:4")
            driver = SimulationDriver(
                index,
                index.pager,
                IndexKind.LAZY,
                metrics=registry,
                durability=durability,
            )
            driver.load(positions, now=0.0)
            driver.run(updates, [])
            durability.close()
        finally:
            set_enabled(False)
        counters = registry.to_dict()["counters"]
        assert counters.get("wal.appends", 0) >= len(updates)
        assert counters.get("wal.fsyncs", 0) >= 1
        assert counters.get("wal.bytes", 0) > 0
        stats = durability.stats
        assert stats.appends >= len(updates)
        assert durability.metrics_dict()["wal"]["appends"] == stats.appends
