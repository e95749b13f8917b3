"""Unit tests for the LRU buffer pool ablation substrate."""

import pytest

from repro.core.ctrtree import CTRTree
from repro.core.geometry import Rect
from repro.rtree import LazyRTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.page import RawPage
from repro.storage.pager import Pager
from tests.conftest import (
    assert_verified,
    brute_force_range,
    random_points,
    random_query,
)


@pytest.fixture
def pool():
    return BufferPool(Pager(), capacity=3)


class TestBasics:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            BufferPool(Pager(), capacity=0)

    def test_allocate_charges_one_write_and_caches(self, pool):
        pid = pool.allocate(RawPage("a"))
        assert pool.stats.writes() == 1
        before = pool.stats.reads()
        pool.read(pid)  # cached: free
        assert pool.stats.reads() == before
        assert pool.hits == 1

    def test_read_miss_charges_then_hit_is_free(self):
        pager = Pager()
        pids = [pager.allocate(RawPage(i)) for i in range(5)]
        pool = BufferPool(pager, capacity=2)
        pool.read(pids[0])
        assert pool.misses == 1
        assert pager.stats.reads() == 1
        pool.read(pids[0])
        assert pool.hits == 1
        assert pager.stats.reads() == 1


class TestEviction:
    def test_lru_eviction_order(self, pool):
        pids = [pool.allocate(RawPage(i)) for i in range(3)]
        pool.read(pids[0])  # 0 most recent
        pool.allocate(RawPage(3))  # evicts pid 1 (least recent)
        reads_before = pool.stats.reads()
        pool.read(pids[0])
        assert pool.stats.reads() == reads_before  # still cached
        pool.read(pids[1])
        assert pool.stats.reads() == reads_before + 1  # was evicted

    def test_dirty_eviction_writes_back(self):
        pager = Pager()
        pool = BufferPool(pager, capacity=1)
        page_a = RawPage("a")
        pool.allocate(page_a)
        pool.write(page_a)  # dirty, not yet charged
        writes_before = pager.stats.writes()
        pool.allocate(RawPage("b"))  # evicts dirty a -> +1 write-back +1 alloc
        assert pager.stats.writes() == writes_before + 2

    def test_clean_eviction_is_free(self):
        pager = Pager()
        pool = BufferPool(pager, capacity=1)
        pid = pager.allocate(RawPage("cold"))
        pool.read(pid)  # clean frame
        writes_before = pager.stats.writes()
        pool.allocate(RawPage("hot"))  # evicts clean: only the alloc write
        assert pager.stats.writes() == writes_before + 1


class TestWriteBack:
    def test_write_deferred_until_flush(self, pool):
        page = RawPage("x")
        pool.allocate(page)
        writes_before = pool.stats.writes()
        pool.write(page)
        pool.write(page)
        assert pool.stats.writes() == writes_before  # absorbed
        assert pool.flush() == 1
        assert pool.stats.writes() == writes_before + 1

    def test_flush_twice_writes_once(self, pool):
        page = RawPage()
        pool.allocate(page)
        pool.write(page)
        assert pool.flush() == 1
        assert pool.flush() == 0

    def test_free_drops_frame(self, pool):
        page = RawPage()
        pid = pool.allocate(page)
        pool.write(page)
        pool.free(pid)
        assert pool.flush() == 0  # dirty frame gone with the page

    def test_free_dirty_frame_charges_writeback(self):
        """The deferred write comes due when the page is released: the
        cache-less pager charged the mutation immediately, so dropping it
        would undercount pooled runs."""
        pager = Pager()
        pool = BufferPool(pager, capacity=4)
        page = RawPage("d")
        pid = pool.allocate(page)
        pool.write(page)  # dirty, deferred
        writes_before = pager.stats.writes()
        pool.free(pid)
        assert pager.stats.writes() == writes_before + 1
        assert pool.dirty_writebacks == 1

    def test_free_clean_frame_is_uncharged(self):
        pager = Pager()
        pool = BufferPool(pager, capacity=4)
        pid = pool.allocate(RawPage("c"))  # cached clean
        writes_before = pager.stats.writes()
        pool.free(pid)
        assert pager.stats.writes() == writes_before
        assert pool.dirty_writebacks == 0

    def test_write_miss_charges_read(self):
        """Write-back caches are read-modify-write: dirtying a non-resident
        page must fetch it first."""
        pager = Pager()
        page = RawPage("cold")
        pager.allocate(page)
        pool = BufferPool(pager, capacity=2)
        reads_before = pager.stats.reads()
        pool.write(page)  # not resident
        assert pager.stats.reads() == reads_before + 1
        assert pool.misses == 1
        # Now resident and dirty: a second write is absorbed ...
        pool.write(page)
        assert pager.stats.reads() == reads_before + 1
        # ... and the deferred write surfaces on flush.
        assert pool.flush() == 1

    def test_hit_rate(self, pool):
        pid = pool.allocate(RawPage())
        pool.read(pid)
        pool.read(pid)
        assert pool.hit_rate == 1.0


class TestTelemetry:
    def test_eviction_counters(self):
        pager = Pager()
        pool = BufferPool(pager, capacity=1)
        page_a = RawPage("a")
        pool.allocate(page_a)
        pool.write(page_a)           # dirty
        pool.allocate(RawPage("b"))  # evicts dirty a
        pool.allocate(RawPage("c"))  # evicts clean b
        assert pool.evictions == 2
        assert pool.dirty_writebacks == 1

    def test_flush_counts_writebacks(self):
        pager = Pager()
        pool = BufferPool(pager, capacity=4)
        page = RawPage()
        pool.allocate(page)
        pool.write(page)
        pool.flush()
        assert pool.dirty_writebacks == 1

    def test_metrics_dict_schema(self):
        pager = Pager()
        pool = BufferPool(pager, capacity=2)
        pid = pool.allocate(RawPage())
        pool.read(pid)
        d = pool.metrics_dict()
        assert d["capacity"] == 2
        assert d["frames"] == 1
        assert d["hits"] == 1
        assert d["misses"] == 0
        assert d["hit_rate"] == 1.0
        assert d["evictions"] == 0
        assert d["dirty_writebacks"] == 0


class TestPagerParity:
    """The pool must be a drop-in replacement for the Pager interface."""

    def test_inspect_contains_iter(self, pool):
        pid = pool.allocate(RawPage("z"))
        assert pool.inspect(pid).payload == "z"
        assert pool.contains(pid)
        assert list(pool.iter_pids()) == [pid]

    def test_page_size_and_count(self, pool):
        pool.allocate(RawPage())
        assert pool.page_size == 4096
        assert pool.page_count == 1


class TestIndexesOverBufferPool:
    """The pool is a drop-in pager; indexes must behave identically on it."""

    def test_lazy_rtree_on_pool_matches_brute_force(self, rng):
        pool = BufferPool(Pager(), capacity=64)
        tree = LazyRTree(pool, max_entries=6)  # type: ignore[arg-type]
        points = random_points(rng, 150)
        for oid, point in points.items():
            tree.insert(oid, point)
        for _ in range(400):
            oid = rng.randrange(150)
            new = (rng.uniform(0, 100), rng.uniform(0, 100))
            tree.update(oid, points[oid], new)
            points[oid] = new
        assert_verified(tree)
        for _ in range(20):
            query = random_query(rng)
            got = sorted(oid for oid, _ in tree.range_search(query))
            assert got == brute_force_range(points, query)
        assert pool.hit_rate > 0.3  # the cache is actually being exercised

    def test_ct_tree_on_pool(self, rng):
        pool = BufferPool(Pager(), capacity=64)
        domain = Rect((0, 0), (1000, 1000))
        tree = CTRTree(
            pool, domain, [Rect((100, 100), (400, 400))], max_entries=6  # type: ignore[arg-type]
        )
        points = {}
        for oid in range(80):
            point = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            tree.insert(oid, point)
            points[oid] = point
        assert_verified(tree)
        got = sorted(oid for oid, _ in tree.range_search(domain))
        assert got == sorted(points)

    def test_pool_charges_less_than_raw(self, rng):
        points = random_points(rng, 100)
        raw_pager = Pager()
        raw = LazyRTree(raw_pager, max_entries=6)
        pool_backing = Pager()
        pool = BufferPool(pool_backing, capacity=256)
        cached = LazyRTree(pool, max_entries=6)  # type: ignore[arg-type]
        for oid, point in points.items():
            raw.insert(oid, point)
            cached.insert(oid, point)
        assert pool_backing.stats.total() < raw_pager.stats.total()
