"""The hash index's per-operation costs, as exact identities over a trace.

``docs/CHARGING.md`` charges every hash-indexed kind one bucket read per
operation: an update or a delete reads its object's bucket once, and a
relocation or a delete writes back the bucket it already holds.  Here a
``Pager`` subclass splits each charge into hash-bucket pages and everything
else, and a fixed trace of hits, relocations and deletes runs over the
lazy-R-tree, the alpha-tree, the CT-R-tree (data pages and buffer trees)
and the lazy B+-tree.  Splits and Appendix-A adaptation repoint other
objects through ``HashIndex.set`` / ``set_many``; the bucket I/O those calls
make is booked apart, so every identity holds for every operation:

* an update reads exactly one bucket of its own;
* a hit costs exactly 1 bucket read + 1 data/leaf read + 1 data/leaf write;
* a relocation writes exactly one bucket of its own, and exactly one in all
  when no split or adaptation repointed anything;
* a delete costs one bucket read and one bucket write.
"""

import random
from collections import Counter

import pytest

from repro.btree import LazyBPlusTree
from repro.core.ctrtree import CTRTree
from repro.core.geometry import Rect
from repro.core.overflow import DataPage
from repro.core.params import CTParams
from repro.hashindex import BucketPage, HashIndex
from repro.health import verify_index
from repro.rtree import AlphaTree, LazyRTree
from repro.rtree.node import RTreeNode
from repro.storage.pager import Pager

SIDE = 1000.0
DOMAIN = Rect((0.0, 0.0), (SIDE, SIDE))
OBJECTS = 150
OPS = 900


class RolePager(Pager):
    """A ``Pager`` that also counts its charges by page role: ``bucket``
    (a ``BucketPage``) or ``other``.  Bucket I/O made inside
    ``HashIndex.set`` / ``set_many`` is counted again under ``repointed``."""

    def __init__(self):
        super().__init__()
        self.io = {"bucket": [0, 0], "other": [0, 0], "repointed": [0, 0]}

    def _count(self, page, kind):
        self.io["bucket" if type(page) is BucketPage else "other"][kind] += 1

    def read(self, pid):
        page = super().read(pid)
        self._count(page, 0)
        return page

    def write(self, page):
        super().write(page)
        self._count(page, 1)

    def allocate(self, page):
        pid = super().allocate(page)
        self._count(page, 1)
        return pid

    def ledger(self):
        return {role: tuple(counts) for role, counts in self.io.items()}


@pytest.fixture
def booked_repoints(monkeypatch):
    """Book the bucket I/O of every ``set`` / ``set_many`` as repointed."""

    def booked(method):
        def call(self, *args):
            io = self._pager.io
            before = tuple(io["bucket"])
            try:
                return method(self, *args)
            finally:
                io["repointed"][0] += io["bucket"][0] - before[0]
                io["repointed"][1] += io["bucket"][1] - before[1]

        return call

    for name in ("set", "set_many"):
        monkeypatch.setattr(HashIndex, name, booked(getattr(HashIndex, name)))


def _ct(pager):
    regions = [
        Rect((x, y), (x + 150.0, y + 150.0))
        for x in (50.0, 450.0, 800.0)
        for y in (50.0, 450.0, 800.0)
    ]
    return CTRTree(
        pager, DOMAIN, regions, max_entries=6,
        ct_params=CTParams(t_list=1, t_buf_num=3, t_buf_time=100.0),
    )


KINDS = {
    "lazy": lambda pager: LazyRTree(pager, max_entries=6),
    "alpha": lambda pager: AlphaTree(pager, max_entries=6),
    "ct": _ct,
    "lazy_bplus": lambda pager: LazyBPlusTree(pager, max_entries=6),
}


def _trace(dim):
    """Load, then moves -- mostly short (hits), some teleports
    (relocations) -- with a delete every 30th op."""
    rng = random.Random(23)

    def anywhere():
        return tuple(rng.uniform(0, SIDE) for _ in range(dim))

    load = {oid: anywhere() for oid in range(OBJECTS)}
    positions = dict(load)
    ops = []
    for n in range(OPS):
        oid = rng.choice(sorted(positions))
        if n % 30 == 29:
            ops.append(("delete", oid, positions.pop(oid)))
            continue
        old = positions[oid]
        if rng.random() < 0.3:
            new = anywhere()
        else:
            new = tuple(min(SIDE, max(0.0, c + rng.uniform(-3, 3))) for c in old)
        ops.append(("update", oid, old, new))
        positions[oid] = new
    return load, ops, positions


def _delta(after, before):
    return {role: tuple(a - b for a, b in zip(after[role], before[role])) for role in after}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_hash_operation_reads_its_bucket_once(kind, booked_repoints):
    one_d = kind == "lazy_bplus"
    load, ops, final = _trace(1 if one_d else 2)
    pager = RolePager()
    index = KINDS[kind](pager)
    for t, (oid, point) in enumerate(load.items()):
        if one_d:
            index.insert(oid, point[0])
        else:
            index.insert(oid, point, now=float(t))
    seen = Counter()
    clock = float(len(load))
    for op in ops:
        clock += 1.0
        oid = op[1]
        holder = type(pager.inspect(index.hash.peek(oid))).__name__
        before = pager.ledger()
        hits = index.lazy_hits
        if op[0] == "delete":
            assert index.delete(oid, now=clock) if kind == "ct" else index.delete(oid)
        elif one_d:
            index.update(oid, op[2][0], op[3][0])
        else:
            index.update(oid, op[2], op[3], now=clock)
        io = _delta(pager.ledger(), before)
        repointed = io["repointed"] != (0, 0)
        own = tuple(b - r for b, r in zip(io["bucket"], io["repointed"]))
        if op[0] == "delete":
            seen["delete"] += 1
            assert own == (1, 1), (op, io)
            if not repointed:
                assert io["bucket"] == (1, 1), (op, io)
        elif index.lazy_hits > hits:
            seen["hit", holder] += 1
            assert io == {"bucket": (1, 0), "other": (1, 1), "repointed": (0, 0)}, (op, io)
        else:
            seen["relocation", holder, repointed] += 1
            assert own == (1, 1), (op, io)
            if not repointed:
                assert io["bucket"] == (1, 1), (op, io)
    # The trace reaches every case the identities speak of.
    assert seen["delete"] == OPS // 30
    if kind == "ct":
        holders = (DataPage.__name__, RTreeNode.__name__)
    else:
        holders = ("BNode",) if one_d else (RTreeNode.__name__,)
    for holder in holders:
        assert seen["hit", holder] > 0, seen
        assert seen["relocation", holder, False] > 0, seen
    assert sum(n for case, n in seen.items() if case[-1] is True) > 0, seen
    # ... and leaves a correct index behind.
    if one_d:
        assert sorted(index.range_search(-1.0, SIDE + 1.0)) == sorted(
            (oid, point[0]) for oid, point in final.items()
        )
    else:
        assert sorted(index.range_search(DOMAIN)) == sorted(final.items())
        if kind != "ct":  # see the strict xfail below
            assert verify_index(index).ok


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a CT buffer tree's tolerance bound is frozen at conversion: the "
    "node's MBR grows later, objects placed in its buffer then lie outside "
    "the bound, and verify_index reports them",
)
def test_ct_trace_verifies():
    load, ops, _final = _trace(2)
    index = _ct(Pager())
    for t, (oid, point) in enumerate(load.items()):
        index.insert(oid, point, now=float(t))
    for clock, op in enumerate(ops, start=len(load) + 1):
        if op[0] == "delete":
            index.delete(op[1], now=float(clock))
        else:
            index.update(op[1], op[2], op[3], now=float(clock))
    assert verify_index(index).ok
