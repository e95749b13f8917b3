"""Unit tests for the LSM-R-tree (repro.lsm): memtable, runs, compaction."""

import os
import tempfile

import pytest

from repro.core.geometry import Rect
from repro.health.verify import verify_index
from repro.lsm import LSMConfig, LSMRTree
from repro.obs import get_registry, set_enabled
from repro.storage import Pager
from repro.storage.iostats import IOCategory
from repro.storage.snapshot import (
    SnapshotError,
    build_document,
    index_kind_of,
    load_document,
    load_index,
    save_index,
)
from tests.conftest import assert_verified

DOMAIN = Rect((0.0, 0.0), (1000.0, 1000.0))


def small_lsm(**overrides):
    defaults = dict(memtable_size=8, size_ratio=2, max_runs=4)
    defaults.update(overrides)
    pager = Pager()
    return LSMRTree(pager, max_entries=4, config=LSMConfig(**defaults))


def fill(lsm, n, *, start=0):
    for oid in range(start, start + n):
        lsm.insert(oid, (float(oid % 997), float(oid // 997)), now=float(oid))


class TestWritePath:
    def test_updates_stay_in_memtable_until_threshold(self):
        lsm = small_lsm(auto_compact=False)
        for oid in range(7):
            lsm.insert(oid, (float(oid), 0.0), now=float(oid))
        assert lsm.run_count == 0
        assert len(lsm.memtable) == 7
        lsm.insert(7, (7.0, 0.0), now=7.0)  # trips batch_size=8
        assert lsm.run_count == 1
        assert len(lsm.memtable) == 0

    def test_coalescing_one_object_many_updates(self):
        lsm = small_lsm(auto_compact=False)
        for i in range(7):
            lsm.insert(0, (float(i), 0.0), now=float(i))
        # Seven updates to one object coalesce to one pending entry;
        # the size trigger counts distinct objects, so no flush yet.
        assert lsm.run_count == 0
        assert len(lsm.memtable) == 1
        assert len(lsm) == 1
        lsm.flush()
        assert len(lsm.runs[0]) == 1
        assert dict(lsm.range_search(DOMAIN))[0] == (6.0, 0.0)

    def test_buffered_updates_charge_no_io(self):
        lsm = small_lsm()
        with lsm.pager.stats.category(IOCategory.UPDATE):
            for oid in range(7):  # below the flush threshold
                lsm.insert(oid, (float(oid), 0.0), now=float(oid))
        assert lsm.pager.stats.writes(IOCategory.UPDATE) == 0

    def test_flush_charges_under_callers_category(self):
        lsm = small_lsm(auto_compact=False)
        with lsm.pager.stats.category(IOCategory.UPDATE):
            fill(lsm, 8)  # exactly one flush
        assert lsm.pager.stats.writes(IOCategory.UPDATE) > 0

    def test_flush_of_empty_memtable_is_noop(self):
        lsm = small_lsm()
        assert lsm.flush() == 0
        assert lsm.run_count == 0
        assert lsm.flushes == 0


class TestDelete:
    def test_delete_pending_object_dies_in_memory(self):
        lsm = small_lsm()
        lsm.insert(1, (1.0, 1.0), now=0.0)
        assert lsm.delete(1)
        assert len(lsm) == 0
        lsm.flush()
        # Never reached a run, so no tombstone was worth writing.
        assert lsm.run_count == 0
        assert dict(lsm.range_search(DOMAIN)) == {}

    def test_delete_flushed_object_writes_tombstone(self):
        lsm = small_lsm(auto_compact=False)
        fill(lsm, 8)
        assert lsm.run_count == 1
        assert lsm.delete(3)
        lsm.flush()
        assert lsm.run_count == 2
        assert list(lsm.runs[1].tombstones) == [3]
        assert 3 not in dict(lsm.range_search(DOMAIN))
        assert len(lsm) == 7

    def test_delete_missing_object_returns_false(self):
        lsm = small_lsm()
        assert not lsm.delete(99)
        lsm.insert(1, (1.0, 1.0))
        lsm.delete(1)
        assert not lsm.delete(1)

    def test_reinsert_after_delete(self):
        lsm = small_lsm(auto_compact=False)
        fill(lsm, 8)
        lsm.delete(2)
        lsm.flush()
        lsm.insert(2, (500.0, 500.0), now=99.0)
        assert len(lsm) == 8
        assert dict(lsm.range_search(DOMAIN))[2] == (500.0, 500.0)
        assert_verified(lsm)


class TestQuerySuppression:
    def test_stale_version_moved_out_of_rect_does_not_leak(self):
        """The seen-set trap: oid 0 moved out of the probe rect; its stale
        in-rect version in the older run must still be suppressed."""
        lsm = small_lsm(size_ratio=9, auto_compact=False)
        fill(lsm, 8)  # run 0 holds oid 0 at (0, 0)
        lsm.update(0, (0.0, 0.0), (900.0, 900.0), now=50.0)
        for oid in range(100, 107):
            lsm.insert(oid, (float(oid), 0.0), now=60.0)  # force flush
        assert lsm.run_count == 2
        probe = dict(lsm.range_search(Rect((0.0, 0.0), (10.0, 10.0))))
        assert 0 not in probe

    def test_memtable_version_wins_over_run_version(self):
        lsm = small_lsm(auto_compact=False)
        fill(lsm, 8)
        lsm.update(1, (1.0, 0.0), (400.0, 400.0), now=50.0)
        result = dict(lsm.range_search(DOMAIN))
        assert result[1] == (400.0, 400.0)

    def test_newest_run_version_wins(self):
        lsm = small_lsm(size_ratio=9, auto_compact=False)
        fill(lsm, 8)
        for oid in range(8):
            lsm.update(oid, None, (float(oid) + 100.0, 0.0), now=50.0 + oid)
        assert lsm.run_count == 2
        result = dict(lsm.range_search(DOMAIN))
        assert result[0] == (100.0, 0.0)
        assert len(result) == 8

    def test_nearest_matches_range_derived_answer(self):
        lsm = small_lsm(auto_compact=False)
        fill(lsm, 30)
        lsm.update(5, None, (650.0, 0.0), now=100.0)
        lsm.delete(7)
        import math

        live = dict(lsm.range_search(DOMAIN))
        target = (5.5, 0.0)
        brute = sorted(
            (math.dist(target, pt), oid, pt) for oid, pt in live.items()
        )[:3]
        assert lsm.nearest(target, 3) == brute

    def test_nearest_k_exceeding_population(self):
        lsm = small_lsm()
        fill(lsm, 3)
        assert len(lsm.nearest((0.0, 0.0), 10)) == 3


class TestCompaction:
    def test_size_tier_trigger_merges_equal_runs(self):
        lsm = small_lsm(size_ratio=2, auto_compact=False)
        fill(lsm, 16)  # two runs of 8 in tier 0... wait for trigger check
        assert lsm.run_count == 2
        window = lsm.compaction_needed()
        assert window == (0, 2)
        info = lsm.compact_step()
        assert info is not None and info["runs_merged"] == 2
        assert lsm.run_count == 1
        assert len(lsm.runs[0]) == 16
        assert_verified(lsm)

    def test_auto_compact_runs_to_quiescence(self):
        lsm = small_lsm(size_ratio=2)
        fill(lsm, 64)
        assert lsm.compaction_needed() is None
        assert dict(lsm.range_search(DOMAIN)) == {
            oid: (float(oid % 997), float(oid // 997)) for oid in range(64)
        }

    def test_max_runs_bound_forces_merge(self):
        # size_ratio=9 never trips a tier at this scale; max_runs must.
        lsm = small_lsm(size_ratio=9, max_runs=2, auto_compact=False)
        fill(lsm, 24)
        assert lsm.run_count == 3
        assert lsm.compaction_needed() is not None
        lsm.maybe_compact()
        assert lsm.run_count <= 2
        assert_verified(lsm)

    def test_merge_drops_superseded_versions(self):
        lsm = small_lsm(size_ratio=2, auto_compact=False)
        fill(lsm, 8)
        for oid in range(8):  # newer versions of the same oids
            lsm.update(oid, None, (float(oid) + 200.0, 0.0), now=50.0 + oid)
        assert lsm.run_count == 2
        lsm.compact_step()
        assert lsm.run_count == 1
        assert len(lsm.runs[0]) == 8  # old versions gone, not 16
        assert dict(lsm.range_search(DOMAIN))[0] == (200.0, 0.0)

    def test_tombstone_dropped_at_bottom_of_tree(self):
        lsm = small_lsm(size_ratio=2, auto_compact=False)
        fill(lsm, 8)
        lsm.delete(3)
        for oid in range(100, 108):
            lsm.insert(oid, (float(oid), 0.0), now=200.0)
        assert lsm.run_count == 2
        assert list(lsm.runs[1].tombstones) == [3]
        lsm.maybe_compact()
        assert lsm.run_count == 1
        # Nothing older than the merged run exists: the tombstone drops.
        assert list(lsm.runs[0].tombstones) == []
        assert lsm.compaction.tombstones_dropped == 1
        assert 3 not in dict(lsm.range_search(DOMAIN))
        assert_verified(lsm)

    def test_merge_frees_window_pages(self):
        lsm = small_lsm(size_ratio=2, auto_compact=False)
        fill(lsm, 16)
        before = lsm.pager.freed_count
        lsm.compact_step()
        assert lsm.pager.freed_count > before

    def test_compaction_charges_reads(self):
        lsm = small_lsm(size_ratio=2, auto_compact=False)
        fill(lsm, 16)
        with lsm.pager.stats.category(IOCategory.UPDATE):
            lsm.compact_step()
        assert lsm.pager.stats.reads(IOCategory.UPDATE) > 0


class TestColumnEdgeCases:
    """Shapes the column kernels have to get right: runs with no objects
    (whose dimension is unknown), windows that resolve to nothing, and what
    leaves the index as plain Python values."""

    def test_tombstone_only_run_flushes_and_merges(self):
        lsm = small_lsm(size_ratio=2, auto_compact=False)
        fill(lsm, 16)
        lsm.compact_step()  # one run of 16 at the bottom
        lsm.delete(3)
        lsm.flush()  # a run with one tombstone and no tree contents
        lsm.delete(5)
        lsm.flush()
        assert [len(run) for run in lsm.runs] == [16, 0, 0]
        assert lsm.runs[1].read_columns()[1].shape == (0, 0)
        # The two tombstone-only runs share a tier: a window with no live
        # entry at all, merged into one tombstone-only run.
        assert lsm.compaction_needed() == (1, 3)
        info = lsm.compact_step()
        assert info["entries"] == 0 and info["tombstones"] == 2
        assert list(lsm.runs[1].tombstones) == [3, 5]
        assert lsm.compaction.tombstones_dropped == 0
        assert sorted(dict(lsm.range_search(DOMAIN))) == [
            oid for oid in range(16) if oid not in (3, 5)
        ]
        assert_verified(lsm)

    def test_window_that_resolves_to_nothing_leaves_no_run(self):
        lsm = small_lsm(size_ratio=2, auto_compact=False)
        fill(lsm, 8)
        for oid in range(8):
            lsm.delete(oid)
        lsm.flush()
        assert [run.size for run in lsm.runs] == [8, 8]
        lsm.compact_step()
        assert lsm.run_count == 0 and len(lsm) == 0
        assert lsm.compaction.tombstones_dropped == 8
        assert lsm.range_search(DOMAIN) == []

    def test_stepped_merge_drops_what_the_memtable_supersedes(self):
        lsm = small_lsm(size_ratio=2, auto_compact=False)
        fill(lsm, 16)
        lsm.update(2, None, (500.0, 500.0), now=99.0)  # pending, not flushed
        lsm.delete(9)  # death mark, not flushed
        info = lsm.compact_step()
        assert info["entries"] == 14
        assert 2 not in lsm.runs[0].oids and 9 not in lsm.runs[0].oids
        assert dict(lsm.range_search(DOMAIN))[2] == (500.0, 500.0)
        assert len(lsm) == 15
        assert_verified(lsm)

    def test_one_dimensional_points(self):
        lsm = small_lsm(size_ratio=2)
        for oid in range(40):
            lsm.insert(oid, (float(oid * 7 % 41),), now=float(oid))
        for oid in range(0, 40, 3):
            lsm.update(oid, None, (float(oid) + 100.0,), now=100.0 + oid)
        found = dict(lsm.range_search(Rect((100.0,), (200.0,))))
        assert found == {oid: (float(oid) + 100.0,) for oid in range(0, 40, 3)}
        assert_verified(lsm)

    def test_integer_and_negative_zero_coordinates_store_as_floats(self):
        lsm = small_lsm(size_ratio=2)
        for oid in range(24):
            lsm.insert(oid, (oid % 5, -0.0 if oid % 2 else 0), now=float(oid))
        lsm.flush()
        found = dict(lsm.range_search(Rect((0.0, 0.0), (4.0, 0.0))))
        assert sorted(found) == list(range(24))
        assert str(found[1][1]) == "-0.0" and str(found[2][1]) == "0.0"

    def test_nothing_numpy_leaves_the_index(self):
        lsm = small_lsm(size_ratio=2)
        fill(lsm, 40)
        lsm.delete(7)
        lsm.flush()
        plain = (int, float)
        for oid, point in lsm.range_search(DOMAIN) + list(lsm.iter_objects()):
            assert type(oid) is int and all(type(c) is float for c in point)
        for dist, oid, point in lsm.nearest((5.0, 0.0), 3):
            assert type(dist) in plain and type(oid) is int
            assert all(type(c) is float for c in point)
        for run in lsm.runs:
            assert all(type(oid) is int for oid in run.oids)
            assert all(type(oid) is int for oid in run.tombstones)
        info = small_lsm(size_ratio=2, auto_compact=False)
        fill(info, 16)
        assert all(type(v) is int for v in info.compact_step().values())
        assert all(type(v) is int for v in info.compaction.to_dict().values())

    def test_run_takes_sorted_arrays_as_given_and_sorts_anything_else(self):
        from array import array

        from repro.lsm import Run

        lsm = small_lsm()
        fill(lsm, 8)
        tree = lsm.runs[0].tree
        table = array("q", [1, 4, 9])
        run = Run(tree, table, array("q"), seq=0)
        assert run.oids is table
        assert list(Run(tree, [9, 1, 4], {7, 2}, seq=0).oids) == [1, 4, 9]
        assert list(Run(tree, [9, 1, 4], {7, 2}, seq=0).tombstones) == [2, 7]
        assert run.mentions(4) and not run.mentions(5)
        assert run.mentions(9) and 9 not in run.tombstones


class TestFlatUpdateCost:
    def test_per_update_io_does_not_grow_with_index_size(self):
        """The tentpole property at unit scale: the same update stream costs
        (nearly) the same against a 10x larger index."""
        costs = {}
        for n_seed in (200, 2000):
            pager = Pager()
            lsm = LSMRTree(
                pager,
                max_entries=8,
                config=LSMConfig(memtable_size=32, size_ratio=4, max_runs=12),
            )
            with pager.stats.category(IOCategory.BUILD):
                fill(lsm, n_seed)
                lsm.flush(reason="final")
                lsm.maybe_compact()
                # Warm-up window: absorb the post-seed transient (leftover
                # sub-memtable runs merging with the window's churn) so the
                # measured window sees the steady state.
                for i in range(256):
                    lsm.update(i % 64, None, (float(i % 997), 2.0), now=1e5 + i)
            with pager.stats.category(IOCategory.UPDATE):
                for i in range(256):
                    oid = i % 64
                    lsm.update(oid, None, (float(i % 997), 3.0), now=1e6 + i)
                lsm.flush(reason="final")
            costs[n_seed] = pager.stats.total(IOCategory.UPDATE) / 256
        assert costs[2000] <= costs[200] * 1.15, costs


class TestSnapshot:
    def _populated(self):
        lsm = small_lsm(auto_compact=False)
        fill(lsm, 20)
        lsm.delete(3)
        lsm.update(4, None, (44.0, 44.0), now=500.0)
        return lsm  # leaves a non-empty memtable and a pending tombstone

    def test_kind_tag(self):
        assert index_kind_of(self._populated()) == "lsm"

    def test_roundtrip_preserves_queries_and_config(self):
        lsm = self._populated()
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "lsm.snap")
            save_index(lsm, path)
            loaded = load_index(path)
        assert isinstance(loaded, LSMRTree)
        assert len(loaded) == len(lsm)
        assert loaded.config == lsm.config
        assert loaded.run_count == lsm.run_count
        assert dict(loaded.range_search(DOMAIN)) == dict(lsm.range_search(DOMAIN))
        assert_verified(loaded)

    def test_save_load_save_is_byte_stable(self):
        lsm = self._populated()
        with tempfile.TemporaryDirectory() as d:
            first = os.path.join(d, "a.snap")
            second = os.path.join(d, "b.snap")
            save_index(lsm, first)
            save_index(load_index(first), second)
            with open(first, "rb") as fa, open(second, "rb") as fb:
                assert fa.read() == fb.read()

    def test_live_count_disagreeing_with_components_is_rejected(self):
        document = build_document(self._populated())
        document["index"]["live"] += 1
        with pytest.raises(SnapshotError, match="resolve 19"):
            load_document(document)

    def test_loaded_index_keeps_evolving(self):
        lsm = self._populated()
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "lsm.snap")
            save_index(lsm, path)
            loaded = load_index(path)
        fill(loaded, 40, start=100)
        loaded.flush(reason="final")
        loaded.maybe_compact()
        assert_verified(loaded)
        assert len(loaded) == 19 + 40


class TestVerify:
    def _populated(self):
        lsm = small_lsm(auto_compact=False)
        fill(lsm, 20)
        lsm.delete(3)
        lsm.flush()
        return lsm

    def test_clean_index_verifies(self):
        report = verify_index(self._populated())
        assert report.ok
        assert report.kind == "lsm"
        assert report.checked_objects > 0

    def test_live_counter_drift_is_flagged(self):
        # The live set drifts either way: a deleted oid added back (len()
        # over-counts), or a live oid dropped (len() under-counts).
        drifts = [
            (lambda live: live.add(3), "resolve dead: [3]"),
            (lambda live: live.discard(5), "live set: [5]"),
        ]
        for drift, needle in drifts:
            lsm = self._populated()
            drift(lsm._live)
            report = verify_index(lsm)
            assert not report.ok
            assert report.by_code() == {"lsm-live-set": 1}
            assert needle in report.violations[0].message

    def test_side_table_disagreement_is_flagged(self):
        lsm = self._populated()
        del lsm.runs[0].oids[0]
        report = verify_index(lsm)
        assert not report.ok
        assert any(v.code == "lsm-side-table" for v in report.violations)

    def test_useless_tombstone_is_flagged(self):
        lsm = self._populated()
        lsm.runs[-1].tombstones.append(4242)  # suppresses nothing
        report = verify_index(lsm)
        assert not report.ok
        assert any(v.code == "lsm-tombstone" for v in report.violations)


class TestObservability:
    def test_tree_stats_shape(self):
        lsm = small_lsm(size_ratio=2)
        fill(lsm, 40)
        lsm.range_search(DOMAIN)
        stats = lsm.collect_tree_stats()
        assert stats["kind"] == "lsm"
        assert stats["size"] == 40
        assert stats["n_runs"] == len(stats["run_sizes"]) == lsm.run_count
        assert stats["flushes"] == lsm.flushes
        assert stats["compaction"]["compactions"] >= 1
        assert stats["queries"] == 1
        assert stats["read_amplification"] > 0

    def test_metrics_counters(self):
        registry = set_enabled(True)
        registry.reset()
        try:
            lsm = small_lsm(size_ratio=2)
            fill(lsm, 32)
            lsm.range_search(DOMAIN)
            snapshot = get_registry().to_dict()
            counters = snapshot["counters"]
            assert counters["lsm.flush.count"] == lsm.flushes
            assert counters["lsm.flush.entries"] == 32
            assert counters["lsm.compaction.count"] >= 1
            assert counters["lsm.compaction.runs_merged"] >= 2
            assert "lsm.query.read_amplification" in snapshot["values"]
            assert "lsm.flush.time" in snapshot["timers"]
            assert "lsm.compaction.time" in snapshot["timers"]
        finally:
            set_enabled(False)

    def test_read_amplification_bounded_by_run_count(self):
        lsm = small_lsm(size_ratio=2, max_runs=4)
        fill(lsm, 256)
        for _ in range(10):
            lsm.range_search(Rect((0.0, 0.0), (50.0, 50.0)))
        assert lsm.read_amplification <= lsm.config.max_runs


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"memtable_size": 0},
            {"size_ratio": 1},
            {"max_runs": 1},
            {"run_fill": 0.0},
            {"run_fill": 1.5},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LSMConfig(**kwargs)
