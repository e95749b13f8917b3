"""Unit tests for I/O accounting."""

import pytest

from repro.engine.sharded import ShardIOStats
from repro.storage.iostats import IOCategory, IOCounter, IOStats
from repro.storage.page import RawPage
from repro.storage.pager import Pager


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


class TestLedgerSemantics:
    """What a charge lands on, whatever happened to the scope stack since it
    was last read: resets, exceptions, never-charged scopes, and the shard
    ledgers that share their stack with the engine ledger."""

    def test_reset_inside_an_open_scope_keeps_charging_that_scope(self):
        stats = IOStats()
        pager = Pager(stats=stats)
        pid = pager.allocate(RawPage())
        with stats.category(IOCategory.UPDATE):
            pager.read(pid)
            stale = stats.live(IOCategory.UPDATE)
            stats.reset()
            pager.read(pid)
            stats.record_write(2)
        assert stats.to_dict() == {"update": {"reads": 1, "writes": 2, "total": 3}}
        # A counter handed out before the reset is detached, not revived.
        assert stale.total == 1
        pager.read(pid)
        assert stats.reads(IOCategory.OTHER) == 1

    def test_reset_outside_any_scope(self):
        stats = IOStats()
        stats.record_read()
        stats.reset()
        stats.record_write()
        assert stats.to_dict() == {"other": {"reads": 0, "writes": 1, "total": 1}}

    def test_nested_scopes_unwind_through_an_exception(self):
        stats = IOStats()
        with pytest.raises(RuntimeError):
            with stats.category(IOCategory.UPDATE):
                stats.record_read()
                with stats.category(IOCategory.QUERY):
                    stats.record_read()
                    with stats.category(IOCategory.BUILD):
                        raise RuntimeError("boom")
        assert stats.active_category == IOCategory.OTHER
        stats.record_write()
        assert stats.to_dict() == {
            "other": {"reads": 0, "writes": 1, "total": 1},
            "query": {"reads": 1, "writes": 0, "total": 1},
            "update": {"reads": 1, "writes": 0, "total": 1},
        }

    def test_exception_caught_between_scopes_resumes_the_outer_one(self):
        stats = IOStats()
        with stats.category(IOCategory.UPDATE):
            try:
                with stats.category(IOCategory.QUERY):
                    stats.record_read()
                    raise KeyError("inner")
            except KeyError:
                pass
            stats.record_write(3)
        assert stats.writes(IOCategory.UPDATE) == 3
        assert stats.writes(IOCategory.QUERY) == 0

    def test_reports_list_only_charged_or_requested_categories(self):
        stats = IOStats()
        with stats.category(IOCategory.QUERY):
            pass
        with stats.category(IOCategory.UPDATE):
            with stats.category(IOCategory.BUILD):
                pass
            stats.record_read()
        assert list(stats.to_dict()) == ["update"]
        assert list(stats.snapshot()) == ["update"]
        assert repr(stats) == "IOStats(update=1r/0w)"
        stats.live(IOCategory.QUERY)
        stats.counter(IOCategory.BUILD)
        assert list(stats.to_dict()) == ["build", "query", "update"]
        assert stats.to_dict()["query"] == {"reads": 0, "writes": 0, "total": 0}

    def test_snapshot_lists_categories_in_first_charge_order(self):
        stats = IOStats()
        with stats.category(IOCategory.UPDATE):
            with stats.category(IOCategory.QUERY):
                stats.record_read()
            stats.record_write()
        stats.record_read()
        assert list(stats.snapshot()) == ["query", "update", "other"]

    def test_a_zero_charge_still_lists_its_category(self):
        stats = IOStats()
        with stats.category(IOCategory.QUERY):
            stats.record_read(0)
        assert stats.to_dict() == {"query": {"reads": 0, "writes": 0, "total": 0}}

    def test_live_counter_requested_inside_its_scope_is_the_charged_one(self):
        stats = IOStats()
        with stats.category(IOCategory.UPDATE):
            live = stats.live(IOCategory.UPDATE)
            stats.record_read()
            stats.record_write()
        assert live.total == 2
        assert stats.live(IOCategory.UPDATE) is live


class TestShardIOStats:
    """A shard ledger mirrors each charge into the engine-wide ledger; both
    attribute it to the category on top of their one shared stack."""

    def _ledgers(self):
        shared = IOStats()
        return shared, ShardIOStats(shared), ShardIOStats(shared)

    def test_scope_entered_on_the_shared_ledger(self):
        shared, a, b = self._ledgers()
        pager = Pager(stats=a)
        pid = pager.allocate(RawPage())
        with shared.category(IOCategory.QUERY):
            pager.read(pid)
            b.record_read(2)
        assert a.to_dict() == {
            "other": {"reads": 0, "writes": 1, "total": 1},
            "query": {"reads": 1, "writes": 0, "total": 1},
        }
        assert b.to_dict() == {"query": {"reads": 2, "writes": 0, "total": 2}}
        assert shared.to_dict() == {
            "other": {"reads": 0, "writes": 1, "total": 1},
            "query": {"reads": 3, "writes": 0, "total": 3},
        }

    def test_scope_entered_on_a_shard_ledger(self):
        shared, a, b = self._ledgers()
        with a.category(IOCategory.UPDATE):
            a.record_write()
            b.record_read()
            # The engine ledger's own charges follow the shared stack too.
            shared.record_read(4)
        assert a.to_dict() == {"update": {"reads": 0, "writes": 1, "total": 1}}
        assert b.to_dict() == {"update": {"reads": 1, "writes": 0, "total": 1}}
        assert shared.to_dict() == {"update": {"reads": 5, "writes": 1, "total": 6}}
        assert shared.active_category == a.active_category == IOCategory.OTHER

    def test_scopes_interleaved_across_ledgers(self):
        shared, a, b = self._ledgers()
        with shared.category(IOCategory.UPDATE):
            a.record_read()
            with b.category(IOCategory.BUILD):
                a.record_read()
                shared.record_write()
            a.record_write()
            shared.record_write()
        assert a.to_dict() == {
            "build": {"reads": 1, "writes": 0, "total": 1},
            "update": {"reads": 1, "writes": 1, "total": 2},
        }
        assert shared.to_dict() == {
            "build": {"reads": 1, "writes": 1, "total": 2},
            "update": {"reads": 1, "writes": 2, "total": 3},
        }

    def test_charge_lands_on_the_named_category_in_both(self):
        shared, a, _b = self._ledgers()
        with shared.category(IOCategory.QUERY):
            a.charge(IOCategory.UPDATE, 2, 3)
        assert a.to_dict() == {"update": {"reads": 2, "writes": 3, "total": 5}}
        assert shared.to_dict() == a.to_dict()

    def test_shard_reset_in_scope_leaves_the_shared_ledger(self):
        shared, a, _b = self._ledgers()
        with shared.category(IOCategory.UPDATE):
            a.record_read()
            a.reset()
            a.record_read()
        assert a.to_dict() == {"update": {"reads": 1, "writes": 0, "total": 1}}
        assert shared.to_dict() == {"update": {"reads": 2, "writes": 0, "total": 2}}
