"""Unit tests for the secondary hash index (paper Figure 1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashindex import HashIndex
from repro.storage.pager import Pager


@pytest.fixture
def index(pager):
    return HashIndex(pager, entries_per_bucket=4)


class TestBasics:
    def test_get_missing_returns_none(self, index):
        assert index.get(0) is None

    def test_set_then_get(self, index):
        index.set(7, 123)
        assert index.get(7) == 123

    def test_overwrite(self, index):
        index.set(7, 1)
        index.set(7, 2)
        assert index.get(7) == 2
        assert len(index) == 1

    def test_remove(self, index):
        index.set(3, 9)
        assert index.remove(3)
        assert index.get(3) is None
        assert len(index) == 0

    def test_remove_missing_is_false(self, index):
        assert not index.remove(3)

    def test_negative_id_rejected(self, index):
        with pytest.raises(ValueError):
            index.set(-1, 0)

    def test_default_bucket_capacity_from_page_size(self, pager):
        index = HashIndex(pager)
        assert index.entries_per_bucket == pager.page_size // 16


class TestDirectAddressing:
    def test_ids_in_same_bucket_share_page(self, index, pager):
        index.set(0, 10)
        pages_after_first = pager.page_count
        index.set(3, 13)  # same bucket of 4
        assert pager.page_count == pages_after_first
        index.set(4, 14)  # next bucket
        assert pager.page_count == pages_after_first + 1

    def test_sparse_ids_only_allocate_touched_buckets(self, index):
        index.set(0, 1)
        index.set(1000, 2)
        assert index.bucket_count == 2

    def test_size_bytes(self, index, pager):
        index.set(0, 1)
        assert index.size_bytes == pager.page_size


class TestCharging:
    def test_get_costs_one_read(self, index, pager):
        index.set(5, 50)
        before = pager.stats.reads()
        index.get(5)
        assert pager.stats.reads() == before + 1

    def test_get_on_unallocated_bucket_is_free(self, index, pager):
        before = pager.stats.total()
        assert index.get(999) is None
        assert pager.stats.total() == before

    def test_set_costs_read_plus_write_on_existing_bucket(self, index, pager):
        index.set(0, 1)  # allocates
        before_r, before_w = pager.stats.reads(), pager.stats.writes()
        index.set(1, 2)
        assert pager.stats.reads() == before_r + 1
        assert pager.stats.writes() == before_w + 1

    def test_first_set_in_bucket_costs_one_write(self, index, pager):
        before_r, before_w = pager.stats.reads(), pager.stats.writes()
        index.set(0, 1)
        assert pager.stats.reads() == before_r
        assert pager.stats.writes() == before_w + 2  # allocation + content write

    def test_set_many_coalesces_per_bucket(self, index, pager):
        index.set(0, 0)  # allocate bucket 0
        index.set(4, 0)  # allocate bucket 1
        before_r, before_w = pager.stats.reads(), pager.stats.writes()
        index.set_many([(0, 1), (1, 2), (2, 3), (5, 9)])
        # bucket 0: 1 read + 1 write for three entries; bucket 1: 1 + 1.
        assert pager.stats.reads() == before_r + 2
        assert pager.stats.writes() == before_w + 2

    def test_set_many_coalesces_a_dicts_items(self, index, pager):
        index.set(0, 0)
        index.set(4, 0)
        repoint = {0: 1, 5: 9, 1: 2}
        repoint[0] = 7  # last writer wins before the pages are touched
        before_r, before_w = pager.stats.reads(), pager.stats.writes()
        index.set_many(repoint.items())
        assert pager.stats.reads() == before_r + 2
        assert pager.stats.writes() == before_w + 2
        assert [index.peek(i) for i in (0, 1, 5)] == [7, 2, 9]

    def test_get_many_costs_one_read_per_allocated_bucket(self, index, pager):
        index.set_many([(0, 10), (1, 11), (3, 13), (5, 15), (9, 19)])  # buckets 0-2
        before_r, before_w = pager.stats.reads(), pager.stats.writes()
        # 6 ids over buckets 0, 1 and the never-allocated bucket 250.
        index.get_many([0, 5, 1, 3, 1000, 6])
        assert pager.stats.reads() == before_r + 2
        assert pager.stats.writes() == before_w

    def test_get_many_on_unallocated_buckets_is_free(self, index, pager):
        before = pager.stats.total()
        assert index.get_many([999, 12]) == [None, None]
        assert pager.stats.total() == before

    def test_peek_is_free(self, index, pager):
        index.set(0, 7)
        before = pager.stats.total()
        assert index.peek(0) == 7
        assert pager.stats.total() == before

    def test_lookup_then_repoint_costs_one_read_and_one_write(self, index, pager):
        index.set(1, 10)
        before_r, before_w = pager.stats.reads(), pager.stats.writes()
        pid, bucket = index.lookup(1)
        assert pid == 10
        index.repoint(bucket, 1, 20)
        assert pager.stats.reads() == before_r + 1
        assert pager.stats.writes() == before_w + 1
        assert index.peek(1) == 20 and len(index) == 1

    def test_lookup_on_unallocated_bucket_is_free(self, index, pager):
        before = pager.stats.total()
        assert index.lookup(999) == (None, None)
        assert pager.stats.total() == before

    def test_repoint_carries_a_set_many_between(self, index):
        """A split's ``set_many`` in between mutates the held bucket, so
        the one write of ``repoint`` keeps both changes."""
        index.set_many([(0, 1), (1, 1)])
        _pid, bucket = index.lookup(0)
        index.set_many([(1, 5)])
        index.repoint(bucket, 0, 7)
        assert (index.peek(0), index.peek(1)) == (7, 5)

    def test_repoint_to_none_clears_and_counts(self, index):
        index.set_many([(0, 1), (2, 3)])
        pid, bucket = index.lookup(2)
        index.repoint(bucket, 2, None)
        assert index.peek(2) is None and len(index) == 1
        index.repoint(bucket, 3, 4)  # an empty slot of the same bucket
        assert index.peek(3) == 4 and len(index) == 2


class TestBulk:
    def test_set_many_counts_new_entries_once(self, index):
        index.set_many([(0, 1), (1, 2)])
        index.set_many([(0, 3)])
        assert len(index) == 2
        assert index.get(0) == 3

    def test_get_many_answers_in_request_order(self, index):
        index.set_many([(0, 10), (5, 15), (6, 16), (9, 19)])
        # Interleaved buckets, a repeat, an unset slot and an unallocated bucket.
        asked = [9, 0, 6, 2, 5, 0, 1000]
        assert index.get_many(asked) == [19, 10, 16, None, 15, 10, None]
        assert index.get_many([]) == []

    def test_get_many_rejects_a_negative_id_before_reading(self, index, pager):
        index.set(0, 1)
        before = pager.stats.total()
        with pytest.raises(ValueError):
            index.get_many([0, -1])
        assert pager.stats.total() == before

    @given(st.lists(st.integers(0, 500), max_size=80))
    def test_get_many_matches_get(self, asked):
        pager = Pager()
        index = HashIndex(pager, entries_per_bucket=8)
        index.set_many((key, key * 3) for key in range(0, 500, 7))
        before = pager.stats.reads()
        assert index.get_many(asked) == [index.peek(key) for key in asked]
        allocated = {key // 8 for key in asked} & {key // 8 for key in range(0, 500, 7)}
        assert pager.stats.reads() - before == len(allocated)

    @given(st.dictionaries(st.integers(0, 500), st.integers(0, 10_000), max_size=60))
    def test_matches_dict_semantics(self, mapping):
        pager = Pager()
        index = HashIndex(pager, entries_per_bucket=8)
        for key, value in mapping.items():
            index.set(key, value)
        for key, value in mapping.items():
            assert index.get(key) == value
        assert len(index) == len(mapping)
