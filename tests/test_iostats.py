"""Unit tests for I/O accounting."""

import pytest

from repro.storage.iostats import IOCategory, IOCounter, IOStats


class TestIOCounter:
    def test_total(self):
        assert IOCounter(3, 4).total == 7

    def test_add_sub(self):
        a, b = IOCounter(5, 5), IOCounter(2, 1)
        assert (a + b).reads == 7
        assert (a - b).writes == 4

    def test_sub_refuses_negative_delta(self):
        """A negative delta means the counters were reset between the two
        snapshots; the driver's attribution must fail loudly, not go negative."""
        with pytest.raises(ValueError, match="reset"):
            IOCounter(1, 5) - IOCounter(2, 1)
        with pytest.raises(ValueError, match="negative"):
            IOCounter(5, 1) - IOCounter(1, 2)

    def test_sub_reset_scenario_raises(self):
        stats = IOStats()
        with stats.category(IOCategory.UPDATE):
            stats.record_read(3)
        before = stats.counter(IOCategory.UPDATE)
        stats.reset()  # mid-run reset
        with pytest.raises(ValueError):
            stats.counter(IOCategory.UPDATE) - before

    def test_to_dict(self):
        assert IOCounter(2, 3).to_dict() == {"reads": 2, "writes": 3, "total": 5}

    def test_copy_is_independent(self):
        a = IOCounter(1, 1)
        b = a.copy()
        b.reads += 1
        assert a.reads == 1

    def test_live_counter_tracks_in_place(self):
        stats = IOStats()
        live = stats.live(IOCategory.QUERY)
        with stats.category(IOCategory.QUERY):
            stats.record_read()
            stats.record_write()
        assert live.total == 2
        assert stats.live(IOCategory.QUERY) is live

    def test_stats_to_dict(self):
        stats = IOStats()
        with stats.category(IOCategory.BUILD):
            stats.record_write(2)
        assert stats.to_dict() == {
            "build": {"reads": 0, "writes": 2, "total": 2}
        }


class TestIOStats:
    def test_default_category_is_other(self):
        stats = IOStats()
        stats.record_read()
        assert stats.reads(IOCategory.OTHER) == 1

    def test_category_scoping(self):
        stats = IOStats()
        with stats.category(IOCategory.QUERY):
            stats.record_read()
            stats.record_write(2)
        assert stats.reads(IOCategory.QUERY) == 1
        assert stats.writes(IOCategory.QUERY) == 2
        assert stats.total(IOCategory.UPDATE) == 0

    def test_nested_categories(self):
        stats = IOStats()
        with stats.category(IOCategory.UPDATE):
            stats.record_read()
            with stats.category(IOCategory.BUILD):
                stats.record_read()
            stats.record_read()
        assert stats.reads(IOCategory.UPDATE) == 2
        assert stats.reads(IOCategory.BUILD) == 1

    def test_category_restored_after_exception(self):
        stats = IOStats()
        try:
            with stats.category(IOCategory.QUERY):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert stats.active_category == IOCategory.OTHER

    def test_totals_across_categories(self):
        stats = IOStats()
        with stats.category(IOCategory.QUERY):
            stats.record_read()
        with stats.category(IOCategory.UPDATE):
            stats.record_write()
        assert stats.reads() == 1
        assert stats.writes() == 1
        assert stats.total() == 2

    def test_snapshot_is_frozen(self):
        stats = IOStats()
        stats.record_read()
        snap = stats.snapshot()
        stats.record_read()
        assert snap[IOCategory.OTHER].reads == 1

    def test_counter_returns_copy(self):
        stats = IOStats()
        counter = stats.counter(IOCategory.QUERY)
        counter.reads = 99
        assert stats.reads(IOCategory.QUERY) == 0

    def test_reset(self):
        stats = IOStats()
        stats.record_read()
        stats.reset()
        assert stats.total() == 0

    def test_counter_diff_pattern(self):
        """The driver measures runs by before/after counter subtraction."""
        stats = IOStats()
        with stats.category(IOCategory.UPDATE):
            stats.record_read(5)
        before = stats.counter(IOCategory.UPDATE)
        with stats.category(IOCategory.UPDATE):
            stats.record_read(3)
            stats.record_write(2)
        delta = stats.counter(IOCategory.UPDATE) - before
        assert delta.reads == 3
        assert delta.writes == 2

    def test_repr_mentions_counts(self):
        stats = IOStats()
        stats.record_read()
        assert "1r" in repr(stats)

    def test_iostats_bulk_counts(self):
        stats = IOStats()
        stats.record_read(5)
        stats.record_write(3)
        assert stats.total() == 8
