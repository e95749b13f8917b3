"""Unit tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.core.ctrtree import CTRTree
from repro.core.geometry import Rect
from repro.obs import MetricsRegistry, Summary, get_registry, set_enabled, tree_stats
from repro.rtree import LazyRTree, RTree
from repro.storage.pager import Pager

DOMAIN = Rect((0, 0), (1000, 1000))


class TestSummary:
    def test_streams_count_total_min_max(self):
        s = Summary()
        for v in (3.0, 1.0, 2.0):
            s.observe(v)
        assert s.count == 3
        assert s.total == 6.0
        assert s.min == 1.0
        assert s.max == 3.0
        assert s.mean == 2.0

    def test_empty_summary_renders_zeros(self):
        d = Summary().to_dict()
        assert d == {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counter_value("a") == 5
        assert reg.counter_value("missing") == 0

    def test_observe_builds_summary(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.5)
        reg.observe("lat", 1.5)
        assert reg.value_summary("lat").mean == 1.0

    def test_timer_records_positive_duration(self):
        reg = MetricsRegistry()
        with reg.timer("span"):
            sum(range(100))
        summary = reg.timer_summary("span")
        assert summary.count == 1
        assert summary.total >= 0.0

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("a")
        reg.observe("v", 1.0)
        with reg.timer("t"):
            pass
        reg.record_duration("t", 1.0)
        d = reg.to_dict()
        assert d["counters"] == {}
        assert d["values"] == {}
        assert d["timers"] == {}

    def test_disabled_timer_is_shared_noop(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.timer("a") is reg.timer("b")

    def test_to_dict_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.observe("v", 3.25)
        with reg.timer("t"):
            pass
        payload = json.loads(json.dumps(reg.to_dict()))
        assert payload["counters"]["c"] == 2
        assert payload["values"]["v"]["count"] == 1

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.observe("v", 1.0)
        reg.reset()
        assert reg.counter_value("c") == 0
        assert reg.value_summary("v") is None

    def test_global_registry_default_off(self):
        reg = get_registry()
        assert reg.enabled is False

    def test_set_enabled_round_trip(self):
        try:
            assert set_enabled(True).enabled is True
        finally:
            set_enabled(False)


def grid_rtree(max_entries=4, n=16):
    """A deterministic little tree: a 4x4 grid inserted in fixed order."""
    tree = RTree(Pager(), max_entries=max_entries)
    for i in range(n):
        tree.insert(i, (float(i % 4) * 10, float(i // 4) * 10))
    return tree


class TestTreeStats:
    def test_golden_grid_tree(self):
        """Shape of the fixed 4x4-grid tree, pinned exactly."""
        stats = tree_stats(grid_rtree())
        assert stats["size"] == 16
        assert stats["height"] == 3
        assert stats["node_count"] == 8
        assert stats["leaf_count"] == 5
        assert stats["internal_count"] == 3
        # Every object sits in exactly one leaf entry; each non-root node
        # appears in exactly one parent entry.
        assert stats["entry_count"] == 16 + (8 - 1)
        assert stats["fanout"] == {"min": 2, "max": 4, "mean": 2.875}
        assert stats["fanout_hist"] == {"2": 2, "3": 5, "4": 1}
        assert stats["mbr_dead_space_ratio"] == pytest.approx(0.5)
        assert sum(stats["fanout_hist"].values()) == stats["node_count"]
        assert 0.0 <= stats["mbr_dead_space_ratio"] <= 1.0
        assert stats["avg_fill"] == pytest.approx(
            stats["entry_count"] / (stats["node_count"] * 4)
        )

    def test_matches_index_introspection(self):
        tree = grid_rtree(max_entries=5, n=30)
        stats = tree_stats(tree)
        assert stats["node_count"] == tree.node_count()
        assert stats["height"] == tree.height
        assert stats["size"] == len(tree)

    def test_lazy_tree_unwraps_and_reports_tallies(self):
        pager = Pager()
        lazy = LazyRTree(pager, max_entries=4)
        for i in range(10):
            lazy.insert(i, (float(i), float(i)))
        lazy.update(0, (0.0, 0.0), (0.5, 0.5))
        stats = tree_stats(lazy)
        assert stats["size"] == 10
        assert stats["lazy_hits"] + stats["relocations"] == 1

    def test_ct_tree_reports_region_inventory(self):
        regions = [Rect((0, 0), (100, 100)), Rect((200, 200), (300, 300))]
        tree = CTRTree(Pager(), DOMAIN, regions, max_entries=4)
        tree.insert(1, (50.0, 50.0))       # inside region 0
        tree.insert(2, (250.0, 250.0))     # inside region 1
        tree.insert(3, (150.0, 150.0))     # outside: overflow buffer
        stats = tree_stats(tree)
        assert stats["qs_region_count"] == 2
        assert stats["chain_pages"] == 2   # one data page per occupied region
        assert stats["buffered_objects"] == 1
        assert stats["size"] == 3

    def test_stats_are_uncharged(self):
        tree = grid_rtree()
        before = tree.pager.stats.total()
        tree_stats(tree)
        assert tree.pager.stats.total() == before


class TestBuilderPhaseTimings:
    def test_build_report_carries_phase_timings(self, rng):
        from repro.core.builder import CTRTreeBuilder
        from tests.conftest import dwell_trail

        histories = {0: dwell_trail(rng, [(100, 100)], dwell_reports=30)}
        builder = CTRTreeBuilder()
        _tree, report = builder.build(Pager(), DOMAIN, histories)
        assert set(report.phase_timings) == {
            "phase1_qs_mining",
            "phase2_graph",
            "phase3_traffic_merge",
            "phase4_tree_load",
        }
        assert all(t >= 0.0 for t in report.phase_timings.values())
        assert report.to_dict()["phase_timings"] == report.phase_timings

    def test_build_records_timers_when_enabled(self, rng):
        from repro.core.builder import CTRTreeBuilder
        from tests.conftest import dwell_trail

        registry = set_enabled(True)
        registry.reset()
        try:
            histories = {0: dwell_trail(rng, [(100, 100)], dwell_reports=30)}
            CTRTreeBuilder().build(Pager(), DOMAIN, histories)
            assert registry.timer_summary("build.phase1_qs_mining_s").count == 1
            assert registry.timer_summary("build.phase4_tree_load_s").count == 1
        finally:
            set_enabled(False)
            registry.reset()

    def test_build_counts_phase2_density_work(self, rng):
        from repro.core.builder import CTRTreeBuilder
        from tests.conftest import dwell_trail

        spots = [(100, 100), (500, 500)]
        histories = {
            oid: dwell_trail(rng, spots, dwell_reports=30) for oid in range(6)
        }
        registry = set_enabled(True)
        registry.reset()
        try:
            # exhaustive=False sends even this small graph down the grid path.
            _tree, report = CTRTreeBuilder(exhaustive=False).build(
                Pager(), DOMAIN, histories
            )
            assert 0 < report.density_candidate_sets <= report.density_tests
            assert report.to_dict()["density_tests"] == report.density_tests
            assert (
                registry.counter_value("build.phase2.density_tests")
                == report.density_tests
            )
        finally:
            set_enabled(False)
            registry.reset()
