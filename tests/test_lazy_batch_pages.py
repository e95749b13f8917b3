"""The lazy family's batch page rule: a batch holds the pages it touches.

``LazyRTree.apply_batch`` (inherited by the alpha-tree) runs in a page epoch
on its store (``repro.storage.PageEpoch``), so within one call no page is
read twice and none is written twice -- a page a split allocates may take
one write after its allocation.  The charges must be exactly those of the
same page accesses made straight against a
``BufferPool(store, capacity=10**9)`` that is flushed when the batch ends:
nothing hidden, nothing charged twice.  The oracle replays each batch on a
twin index whose epoch keeps nothing, over such a pool; the two trees must
also stay bit-equal, since the epoch changes no decision.

Random batches of 1 to 300 moves, with new ids and far jumps, over trees of
fan-out 8 (so batches split leaves and inner nodes), then one batch that
empties whole subtrees (so it frees pages it has already changed), in 2-D
and 3-D.
"""

import json
import random
from collections import Counter

import pytest

from repro.engine.buffer import PendingUpdate
from repro.hashindex import HashIndex
from repro.health import verify_index
from repro.rtree import AlphaTree, LazyRTree
from repro.rtree import lazy as lazy_module
from repro.storage import BufferPool
from repro.storage.pager import Pager
from repro.storage.snapshot import build_document

SPAN = 100.0
BATCHES = 12


class RecordingStore:
    """A pager that logs every charged access by page id."""

    def __init__(self) -> None:
        self.pager = Pager()
        self.reset()

    def reset(self) -> None:
        self.reads = []
        self.writes = []
        self.allocated = []

    def read(self, pid):
        self.reads.append(pid)
        return self.pager.read(pid)

    def write(self, page):
        self.writes.append(page.pid)
        self.pager.write(page)

    def allocate(self, page):
        pid = self.pager.allocate(page)
        self.allocated.append(pid)
        return pid

    def free(self, pid):
        self.pager.free(pid)

    def __getattr__(self, name):
        return getattr(self.pager, name)


class _PassThrough:
    """An epoch that keeps nothing: the hit loop's handle over the store's
    own calls, and every other access goes straight to the store."""

    def __init__(self, store) -> None:
        self.fetch = store.read
        self.write = store.write
        self.held = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        pass


def _make(cls, store):
    return cls(
        store,
        max_entries=8,
        hash_index=HashIndex(store, entries_per_bucket=32),
    )


def _point(rng, dim):
    return tuple(rng.uniform(0, SPAN) for _ in range(dim))


def _batch(rng, positions, dim, size, t0):
    """``size`` moves: jitters (hits), far jumps (escapees) and new ids."""
    fresh = max(1, size // 8)
    known = rng.sample(sorted(positions), min(size - fresh, len(positions)))
    first_new = max(positions) + 1
    batch = []
    for seq, oid in enumerate(known + list(range(first_new, first_new + fresh))):
        old = positions.get(oid)
        if old is None or rng.random() < 0.3:
            new = _point(rng, dim)
        else:
            new = tuple(min(SPAN, max(0.0, c + rng.gauss(0, 1.0))) for c in old)
        batch.append(PendingUpdate(oid, old, new, t0 + seq, seq))
    return batch


def _evacuation(positions, dim, t0):
    """Every object left of x = 40 jumps right of x = 60: whole subtrees
    empty, so inner nodes dirtied by an earlier unlink in the batch are
    freed by a later one."""
    batch = []
    for seq, (oid, old) in enumerate(sorted(positions.items())):
        if old[0] < 40.0:
            new = (old[0] + 60.0,) + old[1:]
            batch.append(PendingUpdate(oid, old, new, t0 + seq, seq))
    return batch


def _charges(pager):
    return pager.stats.reads(), pager.stats.writes()


def _oracle_apply(twin, twin_pager, batch, monkeypatch):
    """Apply ``batch`` to ``twin`` with no page kept by the index, over a
    fresh never-evicting pool flushed at the end; returns its charges."""
    pool = BufferPool(twin_pager, capacity=10**9)
    before = _charges(twin_pager)
    twin.tree._pager = pool
    twin.hash._pager = pool
    raised = None
    try:
        with monkeypatch.context() as patch:
            patch.setattr(lazy_module, "PageEpoch", _PassThrough)
            twin.apply_batch(batch)
    except KeyError as exc:
        raised = exc
    finally:
        pool.flush()
        twin.tree._pager = twin_pager
        twin.hash._pager = twin_pager
    after = _charges(twin_pager)
    return (after[0] - before[0], after[1] - before[1]), raised


def _assert_page_rule(store):
    reread = [pid for pid, n in Counter(store.reads).items() if n > 1]
    rewritten = [pid for pid, n in Counter(store.writes).items() if n > 1]
    assert reread == [], f"pages read twice in one batch: {reread}"
    assert rewritten == [], f"pages written twice in one batch: {rewritten}"


def _assert_restored(*stores):
    """The epoch has left each store's own attributes as it found them."""
    for store in stores:
        assert sorted(vars(store)) == ["allocated", "pager", "reads", "writes"]


def _document(index):
    return json.dumps(build_document(index), sort_keys=True)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("cls", [LazyRTree, AlphaTree])
def test_each_page_read_and_written_at_most_once_per_batch(cls, dim, monkeypatch):
    rng = random.Random(7 + dim)
    store = RecordingStore()
    index = _make(cls, store)
    twin_pager = Pager()
    twin = _make(cls, twin_pager)
    positions = {oid: _point(rng, dim) for oid in range(150)}
    for oid, point in positions.items():
        index.insert(oid, point)
        twin.insert(oid, point)
    sizes = [1, 300] + [rng.randint(1, 300) for _ in range(BATCHES - 2)]
    splits = frees = 0
    for round_no, size in enumerate(sizes + [None]):
        t0 = 1000.0 * round_no
        if size is None:
            batch = _evacuation(positions, dim, t0)
        else:
            batch = _batch(rng, positions, dim, size, t0)
        pages_before = store.pager.page_count
        store.reset()
        before = _charges(store.pager)
        assert index.apply_batch(batch) == len(batch)
        after = _charges(store.pager)
        _assert_page_rule(store)
        splits += len(store.allocated)
        frees += pages_before + len(store.allocated) - store.pager.page_count
        expected, raised = _oracle_apply(twin, twin_pager, batch, monkeypatch)
        assert raised is None
        assert (after[0] - before[0], after[1] - before[1]) == expected
        positions.update((update.oid, update.point) for update in batch)
    assert splits > 0 and frees > 0
    _assert_restored(store)
    assert len(index) == len(positions)
    assert verify_index(index).ok
    assert _document(index) == _document(twin)
    assert sorted(index.tree.iter_objects()) == sorted(positions.items())


@pytest.mark.parametrize("cls", [LazyRTree, AlphaTree])
def test_stale_pointer_charges_the_deferred_writes(cls, monkeypatch):
    """A stale hash pointer aborts the batch mid-way; the pages it had
    already changed are still written once each, as a flushed pool would."""
    rng = random.Random(3)
    store = RecordingStore()
    index = _make(cls, store)
    twin_pager = Pager()
    twin = _make(cls, twin_pager)
    positions = {oid: _point(rng, 2) for oid in range(200)}
    for oid, point in positions.items():
        index.insert(oid, point)
        twin.insert(oid, point)
    batch = [
        PendingUpdate(oid, positions[oid], _point(rng, 2), float(oid), oid)
        for oid in range(150)
    ]
    for target in (index, twin):
        home = target.hash.peek(149)
        elsewhere = next(leaf.pid for leaf in target.tree.iter_leaves() if leaf.pid != home)
        target.hash.set(149, elsewhere)
    store.reset()
    before = _charges(store.pager)
    with pytest.raises(KeyError, match="stale hash pointer"):
        index.apply_batch(batch)
    after = _charges(store.pager)
    _assert_page_rule(store)
    assert store.writes, "the aborted batch wrote nothing it had changed"
    expected, raised = _oracle_apply(twin, twin_pager, batch, monkeypatch)
    assert isinstance(raised, KeyError)
    assert (after[0] - before[0], after[1] - before[1]) == expected
    assert _document(index) == _document(twin)
    assert len(index) == 200
    _assert_restored(store)


def test_a_hash_index_on_its_own_store_gets_its_own_view():
    rng = random.Random(5)
    tree_store, hash_store = RecordingStore(), RecordingStore()
    index = LazyRTree(
        tree_store, max_entries=8, hash_index=HashIndex(hash_store, entries_per_bucket=32)
    )
    positions = {oid: _point(rng, 2) for oid in range(150)}
    for oid, point in positions.items():
        index.insert(oid, point)
    for round_no in range(4):
        batch = _batch(rng, positions, 2, 200, t0=1000.0 * round_no)
        tree_store.reset()
        hash_store.reset()
        index.apply_batch(batch)
        for store in (tree_store, hash_store):
            assert store.reads and store.writes
            _assert_page_rule(store)
        positions.update((update.oid, update.point) for update in batch)
    _assert_restored(tree_store, hash_store)
    assert sorted(index.tree.iter_objects()) == sorted(positions.items())
    assert verify_index(index).ok
