"""Tests for the execution engine: protocol, registry, batching, sharding."""

import pytest

from repro.btree.bptree import BPlusTree
from repro.btree.lazy import LazyBPlusTree
from repro.core.ctrtree import CTRTree
from repro.core.geometry import Rect
from repro.engine import (
    FlushPolicy,
    IndexKind,
    IndexOptions,
    IndexSpec,
    LinearIndex,
    RunResult,
    ShardedIndex,
    SpacePartition,
    SpatialIndex,
    UpdateBuffer,
    available_kinds,
    conforms_to_spatial,
    delete_object,
    get_spec,
    index_label,
    make_index,
    merge_results,
    register_index,
    unregister_index,
)
from repro.rtree import AlphaTree, LazyRTree, RTree
from repro.storage.iostats import IOCounter
from repro.storage.pager import Pager
from tests.conftest import brute_force_range, dwell_trail, random_points

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))


def small_histories(rng, n_objects=8):
    spots = [(20.0, 20.0), (70.0, 60.0), (40.0, 85.0)]
    return {
        oid: dwell_trail(rng, spots, dwell_reports=12) for oid in range(n_objects)
    }


class TestProtocolConformance:
    def test_spatial_indexes_satisfy_protocol(self, rng):
        indexes = [
            RTree(Pager()),
            LazyRTree(Pager()),
            AlphaTree(Pager()),
            ShardedIndex(IndexKind.LAZY, DOMAIN, 2),
        ]
        for index in indexes:
            assert isinstance(index, SpatialIndex), type(index).__name__
            assert conforms_to_spatial(index)

    def test_ctrtree_satisfies_protocol(self, rng):
        tree = make_index(
            IndexKind.CT, Pager(), DOMAIN, histories=small_histories(rng)
        )
        assert isinstance(tree, CTRTree)
        assert isinstance(tree, SpatialIndex)

    def test_bptrees_are_linear_not_spatial(self):
        for tree in (BPlusTree(Pager()), LazyBPlusTree(Pager())):
            assert isinstance(tree, LinearIndex)

    def test_non_indexes_rejected(self):
        assert not conforms_to_spatial(object())
        assert not isinstance(42, SpatialIndex)


class TestRegistry:
    def test_all_four_kinds_registered(self):
        for kind in IndexKind.ALL:
            spec = get_spec(kind)
            assert spec.kind == kind
            assert index_label(kind) == IndexKind.LABELS[kind]
        assert set(IndexKind.ALL) <= set(available_kinds())

    def test_unknown_kind_error_mentions_choices(self):
        with pytest.raises(ValueError, match="unknown index kind"):
            make_index("btree", Pager(), DOMAIN)
        with pytest.raises(ValueError, match="unknown index kind"):
            get_spec("nope")

    def test_ct_requires_histories(self):
        with pytest.raises(ValueError, match="history profile"):
            make_index(IndexKind.CT, Pager(), DOMAIN)

    def test_register_and_unregister_custom_kind(self):
        spec = IndexSpec(
            kind="toy",
            label="toy-index",
            factory=lambda store, domain, options: LazyRTree(
                store, max_entries=options.max_entries
            ),
        )
        register_index(spec)
        try:
            assert "toy" in available_kinds()
            assert index_label("toy") == "toy-index"
            index = get_spec("toy").factory(
                Pager(), DOMAIN, IndexOptions(max_entries=8)
            )
            assert isinstance(index, LazyRTree)
            with pytest.raises(ValueError, match="already registered"):
                register_index(spec)
        finally:
            unregister_index("toy")
        assert "toy" not in available_kinds()

    def test_delete_adapters(self, rng):
        points = random_points(rng, 30)
        # pointer-based delete (lazy/alpha): no old position needed
        lazy = make_index(IndexKind.LAZY, Pager(), DOMAIN)
        for oid, p in points.items():
            lazy.insert(oid, p)
        assert delete_object(IndexKind.LAZY, lazy, 3)
        assert len(lazy) == len(points) - 1
        # spatial delete (rtree): old position required
        rtree = make_index(IndexKind.RTREE, Pager(), DOMAIN)
        for oid, p in points.items():
            rtree.insert(oid, p)
        with pytest.raises(ValueError, match="old position"):
            delete_object(IndexKind.RTREE, rtree, 3)
        assert delete_object(IndexKind.RTREE, rtree, 3, old_position=points[3])
        # timed delete (ct): accepts a clock
        histories = small_histories(rng)
        ct = make_index(IndexKind.CT, Pager(), DOMAIN, histories=histories)
        oid, trail = next(iter(histories.items()))
        ct.insert(oid, trail[-1][0], now=trail[-1][1])
        assert delete_object(IndexKind.CT, ct, oid, now=trail[-1][1] + 1.0)


class TestFlushPolicy:
    def test_needs_at_least_one_trigger(self):
        with pytest.raises(ValueError):
            FlushPolicy(batch_size=0, horizon=None)
        with pytest.raises(ValueError):
            FlushPolicy(batch_size=-1)
        with pytest.raises(ValueError):
            FlushPolicy(horizon=-1.0)

    def test_size_trigger(self):
        policy = FlushPolicy(batch_size=3)
        assert not policy.should_flush(2, None, None)
        assert policy.should_flush(3, None, None)

    def test_horizon_trigger(self):
        policy = FlushPolicy(batch_size=0, horizon=10.0)
        assert not policy.should_flush(5, oldest_t=100.0, now=105.0)
        assert policy.should_flush(5, oldest_t=100.0, now=110.0)

    def test_empty_buffer_never_flushes(self):
        assert not FlushPolicy(batch_size=1).should_flush(0, None, None)


class _RecordingIndex:
    """A SpatialIndex double that records every applied operation."""

    def __init__(self):
        self.pager = Pager()
        self.ops = []
        self.positions = {}

    def __len__(self):
        return len(self.positions)

    def insert(self, oid, point, now=None):
        self.ops.append(("insert", oid, tuple(point), now))
        self.positions[oid] = tuple(point)
        return 0

    def update(self, oid, old, new, now=None):
        self.ops.append(("update", oid, tuple(new), now))
        self.positions[oid] = tuple(new)
        return 0

    def range_search(self, rect):
        return [
            (oid, p) for oid, p in self.positions.items() if rect.contains_point(p)
        ]


class TestUpdateBuffer:
    def test_n_updates_to_one_object_apply_exactly_once(self):
        buffer = UpdateBuffer(FlushPolicy(batch_size=100))
        index = _RecordingIndex()
        index.insert(7, (1.0, 1.0))
        index.ops.clear()
        for i in range(10):
            buffer.put(7, (1.0, 1.0), (1.0 + i, 2.0), t=float(i))
        assert len(buffer) == 1
        assert buffer.stats.buffered == 10
        assert buffer.stats.coalesced == 9
        applied = buffer.flush(index)
        assert applied == 1
        assert index.ops == [("update", 7, (10.0, 2.0), 9.0)]
        assert buffer.pending_for(7) is None

    def test_old_point_frozen_across_coalescing(self):
        buffer = UpdateBuffer(FlushPolicy(batch_size=100))
        buffer.put(1, (0.0, 0.0), (5.0, 5.0), t=1.0)
        buffer.put(1, (5.0, 5.0), (9.0, 9.0), t=2.0)
        pending = buffer.pending_for(1)
        # the index still holds (0,0); the intermediate (5,5) was never applied
        assert pending.old_point == (0.0, 0.0)
        assert pending.point == (9.0, 9.0)
        assert pending.absorbed == 1

    def test_flush_applies_in_timestamp_order(self):
        buffer = UpdateBuffer(FlushPolicy(batch_size=100))
        index = _RecordingIndex()
        buffer.put(3, (0.0, 0.0), (3.0, 3.0), t=30.0)
        buffer.put(1, (0.0, 0.0), (1.0, 1.0), t=10.0)
        buffer.put(2, (0.0, 0.0), (2.0, 2.0), t=20.0)
        buffer.flush(index)
        nows = [op[3] for op in index.ops]
        assert nows == sorted(nows) == [10.0, 20.0, 30.0]

    def test_unapplied_objects_flush_as_inserts(self):
        buffer = UpdateBuffer(FlushPolicy(batch_size=100))
        index = _RecordingIndex()
        buffer.put(5, None, (4.0, 4.0), t=1.0)
        buffer.flush(index)
        assert index.ops == [("insert", 5, (4.0, 4.0), 1.0)]

    def test_stats_accumulate_across_flushes(self):
        buffer = UpdateBuffer(FlushPolicy(batch_size=2))
        index = _RecordingIndex()
        for oid in (1, 2):
            buffer.put(oid, None, (1.0, 1.0), t=float(oid))
        assert buffer.should_flush()
        buffer.flush(index)
        buffer.put(3, None, (1.0, 1.0), t=3.0)
        buffer.flush(index)
        assert buffer.stats.flushes == 2
        assert buffer.stats.applied == 3
        assert buffer.stats.to_dict()["buffered"] == 3

    @pytest.mark.parametrize(
        "policy, expected",
        [
            (
                FlushPolicy(batch_size=3),
                [None, None, None, "size", None, None, "size", None, None, None],
            ),
            (
                FlushPolicy(batch_size=0, horizon=10.0),
                [None, None, None, None, None, "horizon", None, None, "horizon", None],
            ),
            (
                FlushPolicy(batch_size=3, horizon=10.0),
                [None, None, None, "size", None, None, "size", None, None, "horizon"],
            ),
        ],
    )
    def test_flush_reason_on_a_scripted_sequence(self, policy, expected):
        """``flush_reason(now)`` answers what evaluating the policy over
        ``(len, oldest_t, now)`` answers, put by put."""
        script = [
            (1, 0.0),
            (2, 4.0),
            (1, 9.0),  # coalesces: the oldest pending timestamp moves 0 -> 4
            (3, 11.0),  # 11 - 4 < horizon (11 - 0 would not be); third object
            (2, 14.5),
            (4, 19.0),
            (5, 25.0),
            (6, 30.0),
            (6, 41.0),
            (7, 60.0),
        ]
        buffer = UpdateBuffer(policy)
        index = _RecordingIndex()
        reasons = []
        for oid, t in script:
            buffer.put(oid, None, (t, t), t)
            reason = buffer.flush_reason(t)
            assert reason == policy.flush_reason(len(buffer), buffer.oldest_t, t)
            assert buffer.should_flush(t) == (reason is not None)
            reasons.append(reason)
            if reason is not None:
                buffer.flush(index, reason)
        assert reasons == expected

    def test_flush_reason_scans_timestamps_only_under_a_horizon(self):
        class Counting(UpdateBuffer):
            scans = 0

            @property
            def oldest_t(self):
                type(self).scans += 1
                return super().oldest_t

        size_only = Counting(FlushPolicy(batch_size=4))
        for oid in range(4):
            size_only.put(oid, None, (0.0, 0.0), float(oid))
            size_only.should_flush(float(oid))
        assert size_only.flush_reason(9.0) == "size" and Counting.scans == 0

    def test_flush_keeps_unapplied_updates_on_failure(self):
        # Regression: flush used to clear the whole batch up front, so an
        # index raising mid-batch silently lost the failed + remaining
        # updates.  Now each entry leaves the buffer only after *its* apply.
        class _ExplodingIndex(_RecordingIndex):
            def update(self, oid, old, new, now=None):
                if oid == 2:
                    raise RuntimeError("page fault")
                return super().update(oid, old, new, now=now)

        buffer = UpdateBuffer(FlushPolicy(batch_size=100))
        index = _ExplodingIndex()
        for oid in (1, 2, 3):
            buffer.put(oid, (0.0, 0.0), (float(oid), 0.0), t=float(oid))
        with pytest.raises(RuntimeError):
            buffer.flush(index)
        # oid 1 applied; 2 (failed) and 3 (never reached) are still pending.
        assert buffer.stats.applied == 1
        assert buffer.pending_for(1) is None
        assert buffer.pending_for(2) is not None
        assert buffer.pending_for(3) is not None
        # A retry against a healed index drains the rest exactly once.
        applied = buffer.flush(_RecordingIndex())
        assert applied == 2
        assert len(buffer) == 0


class _RecordingLog:
    """An UpdateLog double that records the acknowledgement order."""

    def __init__(self):
        self.events = []
        self._seq = 0

    def log_insert(self, oid, point, t):
        self._seq += 1
        self.events.append(("ins", oid, tuple(point), t))
        return self._seq

    def log_update(self, oid, old_point, point, t):
        self._seq += 1
        self.events.append(("upd", oid, tuple(point), t))
        return self._seq

    def log_flush(self):
        self.events.append(("flush",))


class TestBufferWal:
    def test_put_logs_before_buffering(self):
        from repro.engine import UpdateLog

        log = _RecordingLog()
        assert isinstance(log, UpdateLog)
        buffer = UpdateBuffer(FlushPolicy(batch_size=100), wal=log)
        buffer.put(1, None, (1.0, 1.0), t=0.0)
        buffer.put(1, (1.0, 1.0), (2.0, 2.0), t=1.0)
        # Coalescing thins the buffer but never the log: both updates were
        # individually acknowledged, so both are individually recoverable.
        assert len(buffer) == 1
        assert [e[0] for e in log.events] == ["ins", "upd"]
        buffer.flush(_RecordingIndex())
        assert log.events[-1] == ("flush",)

    def test_crashing_log_rejects_the_update(self):
        class _CrashingLog(_RecordingLog):
            def log_update(self, oid, old_point, point, t):
                raise RuntimeError("disk gone")

        buffer = UpdateBuffer(FlushPolicy(batch_size=100), wal=_CrashingLog())
        buffer.put(1, None, (1.0, 1.0), t=0.0)
        with pytest.raises(RuntimeError):
            buffer.put(1, (1.0, 1.0), (2.0, 2.0), t=1.0)
        # The failed update was never acknowledged, so it must not pend:
        # the buffer still holds the last *logged* state.
        assert buffer.pending_for(1).point == (1.0, 1.0)
        assert buffer.stats.buffered == 1


class TestMergeResults:
    def test_counters_and_io_sum(self):
        a = RunResult(
            kind="lazy/shard0",
            n_updates=10,
            n_queries=3,
            result_count=5,
            update_io=IOCounter(reads=20, writes=10),
            query_io=IOCounter(reads=6, writes=0),
            n_flushes=1,
            n_coalesced=2,
            n_applied=8,
        )
        b = RunResult(
            kind="lazy/shard1",
            n_updates=4,
            n_queries=2,
            result_count=1,
            update_io=IOCounter(reads=8, writes=4),
            query_io=IOCounter(reads=2, writes=0),
        )
        merged = merge_results([a, b], kind="lazyx2")
        assert merged.kind == "lazyx2"
        assert merged.n_updates == 14
        assert merged.n_queries == 5
        assert merged.result_count == 6
        assert merged.update_ios == 42
        assert merged.query_ios == 8
        assert merged.n_flushes == 1 and merged.n_coalesced == 2
        assert merged.ios_per_update == pytest.approx(3.0)

    def test_refuses_empty(self):
        with pytest.raises(ValueError):
            merge_results([])


class TestSpacePartition:
    def test_routes_along_widest_axis(self):
        tall = Rect((0.0, 0.0), (10.0, 100.0))
        partition = SpacePartition(tall, 4)
        assert partition.axis == 1
        assert partition.shard_of((5.0, 10.0)) == 0
        assert partition.shard_of((5.0, 99.0)) == 3

    def test_out_of_domain_points_clamp(self):
        partition = SpacePartition(DOMAIN, 4)
        assert partition.shard_of((-5.0, 50.0)) == 0
        assert partition.shard_of((1e9, 50.0)) == 3

    def test_regions_tile_the_domain(self):
        partition = SpacePartition(DOMAIN, 5)
        regions = [partition.region(sid) for sid in range(5)]
        assert regions[0].lo == DOMAIN.lo
        assert regions[-1].hi == DOMAIN.hi
        for left, right in zip(regions, regions[1:]):
            assert left.hi[partition.axis] == pytest.approx(
                right.lo[partition.axis]
            )

    def test_intersecting_covers_query(self):
        partition = SpacePartition(DOMAIN, 4)
        assert partition.intersecting(Rect((0.0, 0.0), (100.0, 100.0))) == [
            0, 1, 2, 3,
        ]
        assert partition.intersecting(Rect((10.0, 10.0), (20.0, 20.0))) == [0]
        # queries beyond the domain still land in the edge slabs
        assert partition.intersecting(Rect((-50.0, 0.0), (-10.0, 10.0))) == [0]

    def test_rejects_bad_shard_counts(self):
        with pytest.raises(ValueError):
            SpacePartition(DOMAIN, 0)
        with pytest.raises(ValueError):
            SpacePartition(DOMAIN, 2).region(5)

    def test_routing_consistent_at_boundaries(self):
        """Regression: ``intersecting`` used closed-floor math while
        ``shard_of`` was half-open, so a point-rect exactly on (or one ulp
        around) a slab boundary could fan out to a shard that ``shard_of``
        would never route the object to.  Both now share ``slab_of``."""
        import math as _math

        partition = SpacePartition(DOMAIN, 4)
        for boundary in partition.boundaries():
            for x in (
                boundary,  # edge-exact
                _math.nextafter(boundary, -_math.inf),  # epsilon below
                _math.nextafter(boundary, _math.inf),  # epsilon above
            ):
                p = (x, 50.0)
                home = partition.shard_of(p)
                point_rect = Rect(p, p)
                assert partition.intersecting(point_rect) == [home]

    def test_routing_consistent_on_irrational_boundary(self):
        """The last-ulp disagreement case: width 1.0, three slabs, the
        x = 1/3 boundary is not representable, so floor((x-lo)/step) and
        int(frac*n) used to disagree for some points."""
        unit = Rect((0.0, 0.0), (1.0, 1.0))
        partition = SpacePartition(unit, 3)
        for x in (1.0 / 3.0, 2.0 / 3.0, 0.3333333333333333, 0.6666666666666666):
            p = (x, 0.5)
            assert partition.intersecting(Rect(p, p)) == [partition.shard_of(p)]

    def test_zero_extent_domain_degenerates_to_one_shard(self):
        """Regression: a zero-extent domain kept ``_width = 1.0`` as a
        division guard, so region() extended past domain.hi.  It now
        degenerates to a single shard covering the point domain."""
        point_domain = Rect((5.0, 7.0), (5.0, 7.0))
        partition = SpacePartition(point_domain, 4)
        assert partition.n_shards == 1
        assert partition.region(0) == point_domain
        assert partition.shard_of((5.0, 7.0)) == 0
        assert partition.shard_of((99.0, 99.0)) == 0  # clamps, never raises
        assert partition.intersecting(Rect((0.0, 0.0), (10.0, 10.0))) == [0]


class TestShardedIndex:
    def build(self, rng, kind=IndexKind.LAZY, n_shards=4):
        index = ShardedIndex(kind, DOMAIN, n_shards, max_entries=8)
        points = random_points(rng, 80)
        for oid, p in points.items():
            index.insert(oid, p)
        return index, points

    def test_results_match_brute_force(self, rng):
        index, points = self.build(rng)
        for _ in range(20):
            rect = Rect(
                (rng.uniform(0, 80), rng.uniform(0, 80)),
                (rng.uniform(80, 100), rng.uniform(80, 100)),
            )
            got = sorted(oid for oid, _ in index.range_search(rect))
            assert got == brute_force_range(points, rect)

    def test_results_match_unsharded(self, rng):
        sharded, points = self.build(rng)
        plain = make_index(IndexKind.LAZY, Pager(), DOMAIN, max_entries=8)
        for oid, p in points.items():
            plain.insert(oid, p)
        for oid in list(points)[::3]:
            new = (rng.uniform(0, 100), rng.uniform(0, 100))
            sharded.update(oid, points[oid], new)
            plain.update(oid, points[oid], new)
            points[oid] = new
        rect = Rect((10.0, 10.0), (90.0, 90.0))
        assert sorted(sharded.range_search(rect)) == sorted(
            plain.range_search(rect)
        )

    def test_cross_shard_moves_counted_and_ownership_tracked(self, rng):
        index, points = self.build(rng, n_shards=2)
        mover = 0
        index.update(mover, points[mover], (1.0, 50.0))
        assert index.owner_of(mover) == 0
        before = index.cross_shard_moves
        index.update(mover, (1.0, 50.0), (99.0, 50.0))
        assert index.owner_of(mover) == 1
        assert index.cross_shard_moves == before + 1
        assert len(index) == len(points)

    def test_shared_ledger_equals_sum_of_shard_ledgers(self, rng):
        index, _ = self.build(rng)
        shared = index.pager.stats.total()
        per_shard = sum(s.pager.stats.total() for s in index.shards)
        assert shared == per_shard > 0

    def test_merged_result_sums_shard_results(self, rng):
        index, points = self.build(rng)
        index.range_search(Rect((0.0, 0.0), (100.0, 100.0)))
        merged = index.merged_result()
        shard_results = index.shard_results()
        assert merged.n_updates == sum(r.n_updates for r in shard_results)
        assert merged.n_updates == len(points)
        # a full-domain query fans out to every shard
        assert merged.n_queries == index.n_shards
        assert merged.update_ios == sum(r.update_ios for r in shard_results)
        assert merged.result_count == len(points)

    def test_delete_routes_to_owning_shard(self, rng):
        index, points = self.build(rng)
        assert index.delete(5)
        assert index.owner_of(5) is None
        assert len(index) == len(points) - 1
        assert not index.delete(5)

    def test_ct_histories_route_by_latest_position(self, rng):
        histories = small_histories(rng)
        index = ShardedIndex(
            IndexKind.CT, DOMAIN, 2, histories=histories, query_rate=1.0
        )
        for oid, trail in histories.items():
            index.insert(oid, trail[-1][0], now=trail[-1][1])
        assert len(index) == len(histories)
        rect = Rect((0.0, 0.0), (100.0, 100.0))
        assert len(index.range_search(rect)) == len(histories)
