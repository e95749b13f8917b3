"""Adaptive shard management: partitioners, hot-shard detection, cutover.

Covers the :mod:`repro.engine.rebalance` module end to end: the three
partition policies (grid / density / speed) and their snapshot documents,
the rebalancer's windowed skew detector with hysteresis, the plan
strategies, and the online ``apply_partition`` cutover on both the inline
and the parallel engines -- including atomicity on failure and the
category discipline (migration is BUILD work, never UPDATE/QUERY).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.geometry import Rect
from repro.engine import (
    BoundaryPartition,
    IndexKind,
    RebalancePolicy,
    ShardedIndex,
    ShardRebalancer,
    SpacePartition,
    SpeedPartition,
    density_boundaries,
    make_partition,
    partition_from_dict,
)
from repro.engine.rebalance import object_speeds
from repro.health import verify_index
from repro.parallel import PoolExecutor, WorkerFailure
from repro.storage.iostats import IOCategory
from repro.storage.snapshot import build_document, load_index, save_index

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))


def _clustered_positions(n=40, seed=11):
    """Most objects dwell in one narrow slab (a flash crowd)."""
    rng = random.Random(seed)
    positions = {}
    for oid in range(n):
        if oid % 5 == 0:
            positions[oid] = (rng.uniform(0, 100), rng.uniform(0, 100))
        else:
            positions[oid] = (rng.uniform(2, 12), rng.uniform(0, 100))
    return positions


class TestBoundaryPartition:
    def test_rejects_non_increasing_boundaries(self):
        with pytest.raises(ValueError):
            BoundaryPartition(DOMAIN, [50.0, 50.0])
        with pytest.raises(ValueError):
            BoundaryPartition(DOMAIN, [60.0, 40.0])

    def test_rejects_boundaries_outside_domain(self):
        with pytest.raises(ValueError):
            BoundaryPartition(DOMAIN, [0.0, 50.0])  # on the lower edge
        with pytest.raises(ValueError):
            BoundaryPartition(DOMAIN, [50.0, 100.0])  # on the upper edge
        with pytest.raises(ValueError):
            BoundaryPartition(DOMAIN, [-5.0])

    def test_empty_boundaries_is_single_shard(self):
        partition = BoundaryPartition(DOMAIN, [])
        assert partition.n_shards == 1
        assert partition.region(0) == DOMAIN
        assert partition.intersecting(DOMAIN) == [0]

    def test_boundary_value_routes_to_upper_slab(self):
        partition = BoundaryPartition(DOMAIN, [30.0, 60.0], axis=0)
        assert partition.shard_of((29.999, 0.0)) == 0
        assert partition.shard_of((30.0, 0.0)) == 1  # half-open: upper slab
        assert partition.shard_of((60.0, 0.0)) == 2

    def test_regions_tile_the_domain_exactly(self):
        partition = BoundaryPartition(DOMAIN, [10.0, 45.0, 80.0], axis=0)
        regions = [partition.region(sid) for sid in range(partition.n_shards)]
        assert regions[0].lo == DOMAIN.lo
        assert regions[-1].hi == DOMAIN.hi
        for left, right in zip(regions, regions[1:]):
            assert left.hi[0] == right.lo[0]

    def test_intersecting_matches_shard_of_at_boundaries(self):
        import math

        partition = BoundaryPartition(DOMAIN, [30.0, 60.0], axis=0)
        for b in partition.boundaries():
            for x in (b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)):
                p = (x, 50.0)
                assert partition.intersecting(Rect(p, p)) == [partition.shard_of(p)]

    def test_from_points_balances_counts(self):
        positions = _clustered_positions()
        partition = BoundaryPartition.from_points(
            DOMAIN, 4, positions.values(), axis=0
        )
        counts = [0] * partition.n_shards
        for p in positions.values():
            counts[partition.shard_of(p)] += 1
        # Quantile cuts: no shard should hold more than half the objects,
        # where an equal-width grid would put ~80% in one slab.
        assert max(counts) <= len(positions) // 2
        grid_counts = [0] * 4
        grid = SpacePartition(DOMAIN, 4)
        for p in positions.values():
            grid_counts[grid.shard_of(p)] += 1
        assert max(counts) < max(grid_counts)

    def test_degenerate_mass_yields_valid_partition(self):
        # All objects at one coordinate: quantile cuts collapse; the
        # repaired cut list must still be strictly increasing and inside
        # the open domain interval (fewer shards beat an invalid cut).
        partition = BoundaryPartition.from_points(
            DOMAIN, 4, [(42.0, 1.0)] * 30, axis=0
        )
        bounds = partition.boundaries()
        assert all(0.0 < b < 100.0 for b in bounds)
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_density_boundaries_empty_values_fall_back(self):
        cuts = density_boundaries(DOMAIN, 0, [], 4)
        assert len(cuts) == 3
        assert all(0.0 < c < 100.0 for c in cuts)
        assert all(a < b for a, b in zip(cuts, cuts[1:]))


class TestSpeedPartition:
    def _histories(self):
        # Object 0 hops across the domain every report; 1..5 dwell.
        histories = {
            0: [((30.0 * i % 100.0, 50.0), 1000.0 + i) for i in range(10)]
        }
        for oid in range(1, 6):
            x = 10.0 + 3.0 * oid
            histories[oid] = [((x, 40.0), 1000.0 + i) for i in range(10)]
        return histories

    def test_object_speeds_orders_movers(self):
        speeds = object_speeds(self._histories())
        assert speeds[0] > speeds[1]
        assert all(speeds[oid] == 0.0 for oid in range(1, 6))

    def test_fast_mover_pinned_to_churn_shard(self):
        partition = SpeedPartition.from_histories(DOMAIN, 3, self._histories())
        assert partition.n_shards == 3
        assert partition.churn_sid == 2
        assert 0 in partition.fast_ids
        # Identity routing: object 0 goes to the churn shard wherever it is.
        assert partition.shard_for(0, (1.0, 1.0)) == partition.churn_sid
        assert partition.shard_for(0, (99.0, 99.0)) == partition.churn_sid
        # Dwellers route spatially through the inner partition.
        assert partition.shard_for(1, (13.0, 40.0)) == partition.shard_of(
            (13.0, 40.0)
        )

    def test_churn_shard_joins_every_fanout_last(self):
        partition = SpeedPartition.from_histories(DOMAIN, 4, self._histories())
        sids = partition.intersecting(Rect((0.0, 0.0), (1.0, 1.0)))
        assert sids[-1] == partition.churn_sid
        assert partition.region(partition.churn_sid) == DOMAIN

    def test_needs_two_shards(self):
        with pytest.raises(ValueError):
            SpeedPartition.from_histories(DOMAIN, 1, self._histories())

    def test_zero_threshold_means_no_fast_ids(self):
        partition = SpeedPartition.from_histories(
            DOMAIN, 3, self._histories(), speed_threshold=0.0
        )
        assert partition.fast_ids == frozenset()


class TestPartitionDocuments:
    def test_round_trip_grid(self):
        partition = SpacePartition(DOMAIN, 4)
        doc = partition.to_dict()
        assert doc["version"] == 2
        again = partition_from_dict(doc)
        assert isinstance(again, SpacePartition)
        assert again.to_dict() == doc

    def test_round_trip_density(self):
        partition = BoundaryPartition(DOMAIN, [12.5, 44.0, 80.0], axis=0)
        doc = partition.to_dict()
        again = partition_from_dict(doc)
        assert isinstance(again, BoundaryPartition)
        assert again.to_dict() == doc
        for x in (0.0, 12.5, 30.0, 44.0, 79.9, 80.0, 100.0):
            assert again.shard_of((x, 0.0)) == partition.shard_of((x, 0.0))

    def test_round_trip_speed(self):
        inner = BoundaryPartition(DOMAIN, [50.0], axis=0)
        partition = SpeedPartition(DOMAIN, inner, [3, 7])
        doc = partition.to_dict()
        again = partition_from_dict(doc)
        assert isinstance(again, SpeedPartition)
        assert again.to_dict() == doc
        assert again.fast_ids == frozenset({3, 7})
        assert again.shard_for(3, (1.0, 1.0)) == again.churn_sid

    def test_v1_grid_document_back_compat(self):
        # PR 3..5 snapshots carry only the bare grid triple.
        doc = {
            "n_shards": 3,
            "axis": 0,
            "domain": [[0.0, 0.0], [100.0, 100.0]],
        }
        partition = partition_from_dict(doc)
        assert isinstance(partition, SpacePartition)
        assert partition.n_shards == 3
        assert partition.shard_of((50.0, 0.0)) == 1

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(ValueError):
            partition_from_dict(
                {"partitioner": "voronoi", "domain": [[0.0], [1.0]]}
            )
        with pytest.raises(ValueError):
            make_partition("voronoi", DOMAIN, 4)

    def test_factory_builds_all_kinds(self):
        positions = _clustered_positions()
        for name, cls in (
            ("grid", SpacePartition),
            ("density", BoundaryPartition),
            ("speed", SpeedPartition),
        ):
            partition = make_partition(name, DOMAIN, 4, positions=positions)
            assert isinstance(partition, cls)
            assert partition.n_shards == 4


class _FakeResult:
    def __init__(self, total):
        class _C:
            pass

        self.update_io = _C()
        self.update_io.total = total
        self.query_io = _C()
        self.query_io.total = 0


class _FakeEngine:
    """Scripted per-shard ledgers for detector unit tests."""

    def __init__(self, n_shards=4, n_objects=40):
        self.partition = SpacePartition(DOMAIN, n_shards)
        self.domain = DOMAIN
        self.totals = [0] * n_shards
        self._positions = _clustered_positions(n_objects)
        self.applied = []

    def shard_results(self):
        return [_FakeResult(t) for t in self.totals]

    def position_map(self):
        return dict(self._positions)

    def cross_move_counts(self):
        return {}

    def apply_partition(self, partition):
        self.applied.append(partition)
        self.partition = partition


class TestShardRebalancerDetection:
    def test_skew_of(self):
        assert ShardRebalancer.skew_of([10, 10, 10, 10]) == 1.0
        assert ShardRebalancer.skew_of([40, 0, 0, 0]) == 4.0
        assert ShardRebalancer.skew_of([]) == 0.0
        assert ShardRebalancer.skew_of([0, 0]) == 0.0

    def test_quiet_window_never_fires(self):
        rb = ShardRebalancer(RebalancePolicy(min_window_ios=64))
        engine = _FakeEngine()
        engine.totals = [40, 1, 1, 1]  # hot, but under the window floor
        assert not rb.maybe_rebalance(engine)
        assert engine.applied == []

    def test_fires_on_hot_window(self):
        rb = ShardRebalancer(RebalancePolicy(min_window_ios=64, hot_factor=2.0))
        engine = _FakeEngine()
        engine.totals = [400, 10, 10, 10]
        assert rb.maybe_rebalance(engine)
        assert len(engine.applied) == 1
        assert rb.rebalances == 1
        assert rb.events[0]["hot_shard"] == 0

    def test_hysteresis_blocks_refire_until_cooled(self):
        rb = ShardRebalancer(
            RebalancePolicy(min_window_ios=10, hot_factor=2.0, cool_factor=1.25)
        )
        engine = _FakeEngine()
        engine.totals = [400, 10, 10, 10]
        assert rb.maybe_rebalance(engine)
        # Still hot next window, but disarmed: no thrash.
        engine.totals = [800, 20, 20, 20]
        assert not rb.maybe_rebalance(engine)
        assert rb.rebalances == 1
        # A cool window re-arms...
        cool = engine.totals
        engine.totals = [t + 100 for t in cool]
        assert not rb.maybe_rebalance(engine)
        # ...so the next hot window fires again (positions unchanged, so
        # the density plan is identical -- shift the crowd to force a new cut).
        engine._positions = {
            oid: (x + 40.0 if x < 60.0 else x, y)
            for oid, (x, y) in engine._positions.items()
        }
        engine.totals = [engine.totals[0] + 400] + [
            t + 10 for t in engine.totals[1:]
        ]
        assert rb.maybe_rebalance(engine)
        assert rb.rebalances == 2

    def test_window_is_a_delta_not_cumulative(self):
        rb = ShardRebalancer(RebalancePolicy(min_window_ios=64, hot_factor=2.0))
        engine = _FakeEngine()
        engine.totals = [100, 100, 100, 100]
        assert not rb.maybe_rebalance(engine)  # flat: skew 1.0
        # Cumulative totals remain skew-free, but the *delta* is all shard 2.
        engine.totals = [100, 100, 500, 100]
        assert rb.maybe_rebalance(engine)
        assert rb.events[0]["hot_shard"] == 2

    def test_max_rebalances_is_a_hard_cap(self):
        rb = ShardRebalancer(
            RebalancePolicy(min_window_ios=1, hot_factor=2.0, max_rebalances=0)
        )
        engine = _FakeEngine()
        engine.totals = [400, 10, 10, 10]
        assert not rb.maybe_rebalance(engine)
        assert rb.skipped == 1

    def test_tiny_engines_skipped(self):
        rb = ShardRebalancer(RebalancePolicy(min_window_ios=1, min_objects=8))
        engine = _FakeEngine(n_objects=3)
        engine.totals = [400, 10, 10, 10]
        assert not rb.maybe_rebalance(engine)
        assert rb.skipped == 1

    def test_note_op_sweeps_every_check_every(self):
        rb = ShardRebalancer(RebalancePolicy(check_every=8, min_window_ios=1))
        engine = _FakeEngine()
        engine.totals = [400, 10, 10, 10]
        fired = [rb.note_op(engine) for _ in range(8)]
        assert fired == [False] * 7 + [True]

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            ShardRebalancer(RebalancePolicy(strategy="entropy"))


class TestRebalancePlans:
    def test_density_plan_none_when_boundaries_unchanged(self):
        rb = ShardRebalancer(RebalancePolicy(strategy="density"))
        engine = _FakeEngine()
        plan1 = rb.plan(engine, 0)
        assert plan1 is not None
        engine.partition = plan1
        assert rb.plan(engine, 0) is None  # same positions, same cuts

    def test_split_merge_keeps_shard_count(self):
        rb = ShardRebalancer(RebalancePolicy(strategy="split"))
        engine = _FakeEngine()
        plan = rb.plan(engine, 0)
        assert plan is not None
        assert plan.n_shards == engine.partition.n_shards
        # The hot slab's cut went in; some cold boundary went out.
        assert plan.boundaries() != engine.partition.boundaries()

    def test_split_merge_declines_point_mass(self):
        rb = ShardRebalancer(RebalancePolicy(strategy="split"))
        engine = _FakeEngine()
        engine._positions = {oid: (5.0, 50.0) for oid in range(20)}
        assert rb.plan(engine, 0) is None

    def test_speed_plan_promotes_churners(self):
        rb = ShardRebalancer(
            RebalancePolicy(strategy="speed", speed_move_threshold=3)
        )
        engine = _FakeEngine()
        engine.cross_move_counts = lambda: {0: 5, 1: 2, 2: 7}
        plan = rb.plan(engine, 0)
        assert isinstance(plan, SpeedPartition)
        assert plan.fast_ids == frozenset({0, 2})
        assert plan.n_shards == engine.partition.n_shards

    def test_speed_plan_keeps_existing_fast_ids(self):
        rb = ShardRebalancer(
            RebalancePolicy(strategy="speed", speed_move_threshold=3)
        )
        engine = _FakeEngine()
        inner = BoundaryPartition(DOMAIN, [30.0, 60.0], axis=0)
        engine.partition = SpeedPartition(DOMAIN, inner, [9])
        engine.cross_move_counts = lambda: {4: 3}
        plan = rb.plan(engine, 0)
        assert plan.fast_ids == frozenset({4, 9})

    def test_speed_plan_falls_back_to_density_without_churn(self):
        rb = ShardRebalancer(RebalancePolicy(strategy="speed"))
        engine = _FakeEngine()
        plan = rb.plan(engine, 0)
        assert isinstance(plan, BoundaryPartition)  # density re-cut instead


def _populate(index, positions, t0=1000.0):
    for i, (oid, p) in enumerate(sorted(positions.items())):
        index.insert(oid, p, now=t0 + i)


class TestApplyPartitionInline:
    def test_cutover_preserves_objects_and_queries(self):
        positions = _clustered_positions()
        index = ShardedIndex(IndexKind.LAZY, DOMAIN, 4, max_entries=8)
        _populate(index, positions)
        before = sorted(index.range_search(Rect((0.0, 0.0), (100.0, 100.0))))
        new = BoundaryPartition.from_points(
            DOMAIN, 4, positions.values(), axis=index.partition.axis
        )
        index.apply_partition(new)
        assert index.partition is new
        assert index.rebalances == 1
        assert len(index) == len(positions)
        after = sorted(index.range_search(Rect((0.0, 0.0), (100.0, 100.0))))
        assert after == before
        for oid, p in positions.items():
            assert index.owner_of(oid) == new.shard_for(oid, p)
        report = verify_index(index)
        assert report.ok, report.violations

    def test_migration_is_build_io_only(self):
        positions = _clustered_positions()
        index = ShardedIndex(IndexKind.LAZY, DOMAIN, 4, max_entries=8)
        stats = index.pager.stats
        with stats.category(IOCategory.UPDATE):
            _populate(index, positions)
        update_before = stats.total(IOCategory.UPDATE)
        query_before = stats.total(IOCategory.QUERY)
        build_before = stats.total(IOCategory.BUILD)
        new = BoundaryPartition.from_points(DOMAIN, 4, positions.values())
        index.apply_partition(new)
        assert stats.total(IOCategory.UPDATE) == update_before
        assert stats.total(IOCategory.QUERY) == query_before
        assert stats.total(IOCategory.BUILD) > build_before

    def test_merged_result_cumulative_across_cutover(self):
        positions = _clustered_positions()
        index = ShardedIndex(IndexKind.LAZY, DOMAIN, 4, max_entries=8)
        _populate(index, positions)
        n_before = index.merged_result().n_updates
        assert n_before == len(positions)
        index.apply_partition(
            BoundaryPartition.from_points(DOMAIN, 4, positions.values())
        )
        assert index.merged_result().n_updates == n_before

    def test_failed_cutover_leaves_old_state_serving(self):
        positions = _clustered_positions()
        index = ShardedIndex(IndexKind.LAZY, DOMAIN, 4, max_entries=8)
        _populate(index, positions)
        old_partition = index.partition
        old_shards = index.shards

        class _Bomb(BoundaryPartition):
            def shard_for(self, obj_id, point):
                if obj_id == 17:
                    raise RuntimeError("routing bomb")
                return super().shard_for(obj_id, point)

        with pytest.raises(RuntimeError):
            index.apply_partition(_Bomb(DOMAIN, [50.0], axis=0))
        # Atomicity: nothing swapped, the engine keeps serving.
        assert index.partition is old_partition
        assert index.shards is old_shards
        assert index.rebalances == 0
        assert len(index) == len(positions)
        got = sorted(oid for oid, _ in index.range_search(DOMAIN))
        assert got == sorted(positions)

    def test_store_facade_reads_live_shards(self):
        # Regression: ShardedStore snapshotted list(shards) at construction,
        # so after a rebalance the pager facade counted retired shards.
        positions = _clustered_positions()
        index = ShardedIndex(IndexKind.LAZY, DOMAIN, 4, max_entries=8)
        _populate(index, positions)
        store = index.pager
        index.apply_partition(
            BoundaryPartition.from_points(DOMAIN, 4, positions.values())
        )
        assert store is index.pager  # same facade object...
        live = sum(shard.pager.page_count for shard in index.shards)
        assert store.page_count == live  # ...now viewing the new shards
        sids = {sid for sid, _pid in store.iter_pids()}
        assert sids <= {shard.sid for shard in index.shards}

    def test_speed_cutover_routes_churner_to_churn_shard(self):
        positions = _clustered_positions()
        index = ShardedIndex(IndexKind.LAZY, DOMAIN, 4, max_entries=8)
        _populate(index, positions)
        inner = BoundaryPartition.from_points(
            DOMAIN, 3, positions.values(), axis=index.partition.axis
        )
        new = SpeedPartition(DOMAIN, inner, [0, 5])
        index.apply_partition(new)
        assert index.owner_of(0) == new.churn_sid
        assert index.owner_of(5) == new.churn_sid
        # Churners now update same-shard no matter how far they hop.
        moves_before = index.cross_shard_moves
        index.update(0, positions[0], (99.0, 99.0), now=2000.0)
        index.update(0, (99.0, 99.0), (1.0, 1.0), now=2001.0)
        assert index.cross_shard_moves == moves_before
        report = verify_index(index)
        assert report.ok, report.violations


class TestRebalancerOnEngine:
    def _run_hot_workload(self, index, stats, n_rounds=6):
        rng = random.Random(29)
        positions = _clustered_positions()
        with stats.category(IOCategory.UPDATE):
            _populate(index, positions)
        t = 2000.0
        for _ in range(n_rounds):
            with stats.category(IOCategory.UPDATE):
                for oid in sorted(positions):
                    p = positions[oid]
                    new = (
                        min(100.0, max(0.0, p[0] + rng.uniform(-2, 2))),
                        min(100.0, max(0.0, p[1] + rng.uniform(-2, 2))),
                    )
                    index.update(oid, p, new, now=t)
                    positions[oid] = new
                    t += 1.0
            with stats.category(IOCategory.QUERY):
                index.range_search(Rect((2.0, 0.0), (12.0, 100.0)))
        return positions

    def test_rebalancer_fires_on_skewed_run(self):
        rb = ShardRebalancer(
            RebalancePolicy(check_every=64, min_window_ios=32, hot_factor=1.8)
        )
        index = ShardedIndex(
            IndexKind.LAZY, DOMAIN, 4, max_entries=8, rebalancer=rb
        )
        positions = self._run_hot_workload(index, index.pager.stats)
        assert rb.rebalances >= 1
        assert index.rebalances == rb.rebalances
        assert rb.events[0]["skew"] >= 1.8
        assert len(index) == len(positions)
        report = verify_index(index)
        assert report.ok, report.violations
        doc = index.engine_dict()
        assert doc["rebalances"] == rb.rebalances
        assert doc["rebalancer"]["events"] == rb.events

    def test_rebalance_flattens_skew(self):
        # After the density re-cut the crowd slab is subdivided: the same
        # query load spreads over more shards than the grid gave it.
        rb = ShardRebalancer(
            RebalancePolicy(check_every=64, min_window_ios=32, hot_factor=1.8)
        )
        index = ShardedIndex(
            IndexKind.LAZY, DOMAIN, 4, max_entries=8, rebalancer=rb
        )
        self._run_hot_workload(index, index.pager.stats)
        assert rb.rebalances >= 1
        counts = [len(shard.index) for shard in index.shards]
        grid_counts = [0] * 4
        grid = SpacePartition(DOMAIN, 4)
        for _oid, (pos, _t) in index._positions.items():
            grid_counts[grid.shard_of(pos)] += 1
        assert max(counts) < max(grid_counts)


class TestSnapshotRoundTrip:
    def _built(self, partition=None, rebalance=False):
        positions = _clustered_positions()
        index = ShardedIndex(
            IndexKind.LAZY, DOMAIN,
            None if partition is not None else 4,
            max_entries=8, partition=partition,
        )
        _populate(index, positions)
        if rebalance:
            index.apply_partition(
                BoundaryPartition.from_points(DOMAIN, 4, positions.values())
            )
        return index, positions

    def test_density_partition_survives_save_load(self, tmp_path):
        partition = BoundaryPartition(DOMAIN, [15.0, 40.0, 70.0], axis=0)
        index, positions = self._built(partition)
        path = save_index(index, tmp_path / "snap.json")
        again = load_index(path)
        assert isinstance(again.partition, BoundaryPartition)
        assert again.partition.to_dict() == partition.to_dict()
        assert len(again) == len(index)
        assert sorted(again.range_search(DOMAIN)) == sorted(
            index.range_search(DOMAIN)
        )

    def test_speed_partition_survives_save_load(self, tmp_path):
        inner = BoundaryPartition(DOMAIN, [35.0, 65.0], axis=0)
        partition = SpeedPartition(DOMAIN, inner, [2, 8])
        index, positions = self._built(partition)
        path = save_index(index, tmp_path / "snap.json")
        again = load_index(path)
        assert isinstance(again.partition, SpeedPartition)
        assert again.partition.fast_ids == frozenset({2, 8})
        assert again.owner_of(2) == again.partition.churn_sid
        assert sorted(again.range_search(DOMAIN)) == sorted(
            index.range_search(DOMAIN)
        )

    def test_rebalance_count_survives_save_load(self, tmp_path):
        index, _ = self._built(rebalance=True)
        again = load_index(save_index(index, tmp_path / "snap.json"))
        assert again.rebalances == 1

    def test_cutover_then_snapshot_is_byte_identical(self, tmp_path):
        """A loaded engine must be able to replay the same cutover and land
        on the same bytes: positions (with timestamps) round-trip, replay
        order is canonical, and partition documents are exact."""
        index, positions = self._built()
        clone = load_index(save_index(index, tmp_path / "pre.json"))
        plan = BoundaryPartition.from_points(DOMAIN, 4, positions.values())
        index.apply_partition(plan)
        clone.apply_partition(partition_from_dict(plan.to_dict()))
        doc_a = build_document(index)
        doc_b = build_document(clone)
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(
            doc_b, sort_keys=True
        )


class TestApplyPartitionParallel:
    def test_process_cutover_matches_inline(self):
        positions = _clustered_positions()
        inline = ShardedIndex(IndexKind.LAZY, DOMAIN, 4, max_entries=8)
        par = ShardedIndex(
            IndexKind.LAZY, DOMAIN, 4, mode="process", max_entries=8
        )
        try:
            _populate(inline, positions)
            _populate(par, positions)
            plan = BoundaryPartition.from_points(DOMAIN, 4, positions.values())
            inline.apply_partition(plan)
            par.apply_partition(partition_from_dict(plan.to_dict()))
            assert par.rebalances == 1
            assert len(par) == len(inline)
            rect = Rect((5.0, 10.0), (60.0, 90.0))
            assert par.range_search(rect) == inline.range_search(rect)
            sig = lambda stats: sorted(  # noqa: E731
                (cat, c.reads, c.writes)
                for cat, c in stats.snapshot().items()
            )
            assert sig(par.pager.stats) == sig(inline.pager.stats)
            par_doc = par.engine_dict()
            assert par_doc["rebalances"] == 1
            assert par_doc["partition"] == plan.to_dict()
        finally:
            par.close()

    def test_worker_failure_during_cutover_falls_back(self, monkeypatch):
        positions = _clustered_positions()
        par = ShardedIndex(
            IndexKind.LAZY, DOMAIN, 4, mode="process", max_entries=8
        )
        try:
            _populate(par, positions)
            plan = BoundaryPartition.from_points(DOMAIN, 4, positions.values())

            def boom(self, targets):
                raise WorkerFailure("injected rebalance failure")

            monkeypatch.setattr(PoolExecutor, "dispatch", boom)
            par.apply_partition(plan)
            # The cutover still completed -- inline, under the new partition.
            assert par.engine_dict()["parallel"]["fell_back"] is True
            assert par.partition.to_dict() == plan.to_dict()
            assert par.rebalances == 1
            assert len(par) == len(positions)
            got = sorted(oid for oid, _ in par.range_search(DOMAIN))
            assert got == sorted(positions)
            report = verify_index(par)
            assert report.ok, report.violations
        finally:
            par.close()

    def test_rebalancer_attaches_to_parallel_engine(self):
        rb = ShardRebalancer(
            RebalancePolicy(check_every=64, min_window_ios=32, hot_factor=1.8)
        )
        par = ShardedIndex(
            IndexKind.LAZY, DOMAIN, 4, mode="process", max_entries=8,
            rebalancer=rb,
        )
        try:
            runner = TestRebalancerOnEngine()
            positions = runner._run_hot_workload(par, par.pager.stats)
            assert rb.rebalances >= 1
            assert len(par) == len(positions)
            report = verify_index(par)
            assert report.ok, report.violations
        finally:
            par.close()
