"""Unit tests for the pager's allocation and charging model, and for the
page epoch's once-per-page rule over every kind of store."""

from collections import Counter

import pytest

from repro.storage.buffer_pool import BufferPool
from repro.storage.page import NO_PAGE, RawPage
from repro.storage.pager import PageEpoch, PageNotAllocatedError, Pager


class TestAllocation:
    def test_allocate_assigns_sequential_ids(self, pager):
        a, b = RawPage("a"), RawPage("b")
        assert pager.allocate(a) == 0
        assert pager.allocate(b) == 1

    def test_allocate_charges_one_write(self, pager):
        pager.allocate(RawPage())
        assert pager.stats.writes() == 1
        assert pager.stats.reads() == 0

    def test_double_allocate_rejected(self, pager):
        page = RawPage()
        pager.allocate(page)
        with pytest.raises(ValueError):
            pager.allocate(page)

    def test_free_releases_and_unsets_pid(self, pager):
        page = RawPage()
        pid = pager.allocate(page)
        pager.free(pid)
        assert page.pid == NO_PAGE
        assert not pager.contains(pid)
        assert pager.freed_count == 1

    def test_free_is_not_charged(self, pager):
        pid = pager.allocate(RawPage())
        before = pager.stats.total()
        pager.free(pid)
        assert pager.stats.total() == before

    def test_free_unknown_pid_raises(self, pager):
        with pytest.raises(PageNotAllocatedError):
            pager.free(42)

    def test_pids_are_never_reused(self, pager):
        pid = pager.allocate(RawPage())
        pager.free(pid)
        assert pager.allocate(RawPage()) == pid + 1

    def test_rejects_nonpositive_page_size(self):
        with pytest.raises(ValueError):
            Pager(page_size=0)


class TestChargedAccess:
    def test_read_returns_page_and_charges(self, pager):
        page = RawPage("payload")
        pid = pager.allocate(page)
        got = pager.read(pid)
        assert got is page
        assert pager.stats.reads() == 1

    def test_read_unknown_raises(self, pager):
        with pytest.raises(PageNotAllocatedError):
            pager.read(7)

    def test_write_charges(self, pager):
        page = RawPage()
        pager.allocate(page)
        pager.write(page)
        assert pager.stats.writes() == 2  # allocation + explicit write

    def test_write_freed_page_raises(self, pager):
        page = RawPage()
        pid = pager.allocate(page)
        pager.free(pid)
        with pytest.raises(PageNotAllocatedError):
            pager.write(page)


class TestUnchargedAccess:
    def test_inspect_free_of_charge(self, pager):
        pid = pager.allocate(RawPage("x"))
        before = pager.stats.total()
        assert pager.inspect(pid).payload == "x"
        assert pager.stats.total() == before

    def test_inspect_unknown_raises(self, pager):
        with pytest.raises(PageNotAllocatedError):
            pager.inspect(3)

    def test_page_count_and_iter(self, pager):
        pids = [pager.allocate(RawPage(i)) for i in range(5)]
        pager.free(pids[0])
        assert pager.page_count == 4
        assert set(pager.iter_pids()) == set(pids[1:])


CHARGED = ("read", "write", "allocate", "free")


class LoggingPager(Pager):
    """A pager that logs each call it charges (and each free) by page id."""

    def __init__(self) -> None:
        super().__init__()
        self.log = []

    def read(self, pid):
        self.log.append(("read", pid))
        return super().read(pid)

    def write(self, page):
        self.log.append(("write", page.pid))
        super().write(page)

    def allocate(self, page):
        pid = super().allocate(page)
        self.log.append(("write", pid))
        return pid

    def free(self, pid):
        self.log.append(("free", pid))
        super().free(pid)


class PassThroughStore:
    """A wrapper whose charged calls are instance attributes."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.read = inner.read
        self.write = inner.write
        self.allocate = inner.allocate
        self.free = inner.free

    def __getattr__(self, name):
        return getattr(self.inner, name)


STORES = {
    "pager": lambda pager: pager,
    "pool": lambda pager: BufferPool(pager, capacity=64),
    "wrapper": PassThroughStore,
}


@pytest.fixture(params=sorted(STORES))
def epoch_store(request):
    """(store, logging pager under it, the ids of four pages on it); the
    pages are not in a pool's frames yet."""
    pager = LoggingPager()
    pids = [pager.allocate(RawPage(i)) for i in range(4)]
    pager.log.clear()
    return STORES[request.param](pager), pager, pids


def _settled(store, pager):
    """Every charge the store owes, by (call, page id): a pool's deferred
    writes flushed first."""
    if isinstance(store, BufferPool):
        store.flush()
    return Counter(pager.log)


def _own(store):
    """The store's own attributes under the charged calls' names."""
    return {name: vars(store)[name] for name in CHARGED if name in vars(store)}


class TestPageEpoch:
    def test_each_page_is_charged_at_most_one_read_and_one_write(self, epoch_store):
        store, pager, pids = epoch_store
        with PageEpoch(store):
            for _ in range(3):
                for pid in pids:
                    store.write(store.read(pid))
        expected = {("read", pid): 1 for pid in pids}
        expected.update({("write", pid): 1 for pid in pids})
        assert _settled(store, pager) == expected

    def test_an_allocated_page_dirtied_later_takes_one_more_write(self, epoch_store):
        store, pager, _pids = epoch_store
        with PageEpoch(store):
            clean = store.allocate(RawPage("clean"))
            dirty = store.allocate(RawPage("dirty"))
            store.read(clean)
            for _ in range(2):
                store.write(store.read(dirty))
        assert _settled(store, pager) == {("write", clean): 1, ("write", dirty): 2}

    def test_freeing_a_dirty_page_charges_its_write_first(self, epoch_store):
        store, pager, pids = epoch_store
        with PageEpoch(store):
            store.write(store.read(pids[0]))
            store.read(pids[1])
            store.free(pids[0])
            store.free(pids[1])
        assert pager.log == [
            ("read", pids[0]),
            ("read", pids[1]),
            ("write", pids[0]),
            ("free", pids[0]),
            ("free", pids[1]),
        ]

    def test_an_error_still_writes_the_dirty_pages_and_restores_the_store(
        self, epoch_store
    ):
        store, pager, pids = epoch_store
        own = _own(store)
        keys = sorted(vars(store))
        with pytest.raises(RuntimeError, match="mid-epoch"):
            with PageEpoch(store):
                store.write(store.read(pids[0]))
                store.write(store.read(pids[0]))
                store.read(pids[1])
                raise RuntimeError("mid-epoch")
        assert _settled(store, pager) == {
            ("read", pids[0]): 1,
            ("read", pids[1]): 1,
            ("write", pids[0]): 1,
        }
        assert sorted(vars(store)) == keys
        assert _own(store) == own

    @pytest.mark.parametrize("kind", sorted(STORES))
    def test_a_nested_epoch_charges_what_one_does(self, kind):
        def work(store, pids):
            for pid in pids:
                store.write(store.read(pid))
            fresh = store.allocate(RawPage())
            store.write(store.read(fresh))
            store.free(fresh)

        def run(nested):
            pager = LoggingPager()
            pids = [pager.allocate(RawPage(i)) for i in range(4)]
            store = STORES[kind](pager)
            own = _own(store)
            with PageEpoch(store):
                work(store, pids[:2])
                if nested:
                    with PageEpoch(store):
                        work(store, pids)
                else:
                    work(store, pids)
                work(store, pids[2:])
            assert _own(store) == own
            return _settled(store, pager)

        assert run(nested=True) == run(nested=False)

    def test_after_the_block_the_store_charges_as_before(self, epoch_store):
        store, pager, pids = epoch_store
        own = _own(store)
        with PageEpoch(store):
            store.write(store.read(pids[0]))
            store.free(store.allocate(RawPage()))
        _settled(store, pager)
        pager.log.clear()
        for _ in range(2):
            for pid in pids[1:]:
                store.write(store.read(pid))
        expected = Counter()
        if isinstance(store, BufferPool):  # a cache: one miss per page
            expected.update(("read", pid) for pid in pids[1:])
            expected.update(("write", pid) for pid in pids[1:])
        else:
            expected.update(2 * [("read", pid) for pid in pids[1:]])
            expected.update(2 * [("write", pid) for pid in pids[1:]])
        assert _settled(store, pager) == expected
        assert _own(store) == own
