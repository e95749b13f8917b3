"""Differential parity: the SoA layout must be invisible (PR 7).

Runs the same deterministic trace through both registered entry layouts
(``soa`` and ``object``, switched via ``set_default_layout``) and demands
exact equality everywhere an observer could look: query result sequences,
per-category I/O ledgers (0.000% delta -- the counters are integers, so
"within tolerance" means equal), and canonical snapshot documents byte for
byte.  Inline engines and a process-mode worker pool are both exercised.

Also unit-tests the shared-memory transport underneath the process pool:
transport selection, the forced-pipe override, the oversize->pipe payload
detour, and the unavailability error.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import random

import pytest

from repro.core.geometry import Rect
from repro.engine import IndexKind, ShardedIndex
from repro.engine.registry import IndexOptions, make_index
from repro.parallel import shm
from repro.parallel.shm import shm_available
from repro.parallel.workers import ProcessWorker, WorkerFailure
from repro.rtree.node import default_layout, set_default_layout
from repro.storage.iostats import IOCategory
from repro.storage.pager import Pager
from repro.storage.snapshot import build_document

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))

QUERY_RECTS = [
    Rect((10.0, 10.0), (60.0, 60.0)),
    Rect((0.0, 0.0), (100.0, 100.0)),
    Rect((40.0, 0.0), (55.0, 100.0)),
    Rect((80.0, 80.0), (99.0, 99.0)),
]


def _trace(n=70, rounds=3, seed=13):
    """A deterministic insert/move/delete/query script."""
    rng = random.Random(seed)
    ops = []
    pos = {}
    t = 1000.0
    for oid in range(n):
        p = (rng.uniform(0, 100), rng.uniform(0, 100))
        ops.append(("insert", oid, p, t))
        pos[oid] = p
        t += 1.0
    for r in range(rounds):
        for oid in range(n):
            if oid % 11 == r or oid not in pos:
                continue
            p = (rng.uniform(0, 100), rng.uniform(0, 100))
            ops.append(("update", oid, pos[oid], p, t))
            pos[oid] = p
            t += 1.0
        for q in QUERY_RECTS:
            ops.append(("query", q))
        victim = rng.randrange(n)
        if victim in pos:
            ops.append(("delete", victim, pos.pop(victim), t))
            t += 1.0
    return ops


def _replay(index, ops, stats, kind=None):
    """Drive any SpatialIndex through the script; returns query results."""
    from repro.engine.registry import delete_object

    results = []
    for op in ops:
        if op[0] == "insert":
            with stats.category(IOCategory.UPDATE):
                index.insert(op[1], op[2], now=op[3])
        elif op[0] == "update":
            with stats.category(IOCategory.UPDATE):
                index.update(op[1], op[2], op[3], now=op[4])
        elif op[0] == "delete":
            with stats.category(IOCategory.UPDATE):
                if kind is None:
                    index.delete(op[1], op[2], now=op[3])
                else:
                    delete_object(
                        kind, index, op[1], old_position=op[2], now=op[3]
                    )
        else:
            with stats.category(IOCategory.QUERY):
                results.append(index.range_search(op[1]))
    return results


@pytest.fixture
def restore_layout():
    prev = default_layout()
    yield
    set_default_layout(prev)


def _run_inline(kind, layout, ops, **options):
    prev = set_default_layout(layout)
    try:
        pager = Pager()
        index = make_index(kind, pager, DOMAIN, max_entries=5, **options)
        results = _replay(index, ops, pager.stats, kind=kind)
        ledger = pager.stats.to_dict()
        doc = json.dumps(build_document(index), sort_keys=True)
    finally:
        set_default_layout(prev)
    return results, ledger, doc


@pytest.mark.parametrize("kind", [IndexKind.RTREE, IndexKind.LAZY, IndexKind.ALPHA])
def test_inline_layout_parity(kind, restore_layout):
    ops = _trace()
    soa = _run_inline(kind, "soa", ops)
    obj = _run_inline(kind, "object", ops)
    assert soa[0] == obj[0], "query result sequences diverged"
    assert soa[1] == obj[1], "I/O ledgers diverged"
    assert soa[2] == obj[2], "snapshot documents diverged"


def test_lsm_layout_parity(restore_layout):
    """The LSM's flush and merge fill leaves from columns and read them back
    as columns; the per-entry container must give the same trees.  Sized so
    the trace flushes ~35 times and merges in every tier."""
    ops = _trace()
    knobs = dict(lsm_memtable=8, lsm_size_ratio=2, lsm_max_runs=4)
    soa = _run_inline(IndexKind.LSM, "soa", ops, **knobs)
    obj = _run_inline(IndexKind.LSM, "object", ops, **knobs)
    assert soa[0] == obj[0], "query result sequences diverged"
    assert soa[1] == obj[1], "I/O ledgers diverged"
    assert soa[2] == obj[2], "snapshot documents diverged"
    document = json.loads(soa[2])
    assert len(document["index"]["runs"]) > 1
    assert any(run["tombstones"] for run in document["index"]["runs"])


def _ledger_bytes(ledger) -> bytes:
    """Canonical serialized form: parity must hold byte-for-byte, not just
    under ``==`` (which would tolerate e.g. int/float drift in counters)."""
    return json.dumps(ledger, sort_keys=True, separators=(",", ":")).encode()


def _run_parallel(layout, ops, mode, **kwargs):
    prev = set_default_layout(layout)
    try:
        index = ShardedIndex(
            IndexKind.LAZY, DOMAIN, 2, mode=mode, max_entries=5, **kwargs
        )
        try:
            results = _replay(index, ops, index.pager.stats)
            ledger = index.pager.stats.to_dict()
        finally:
            index.close()
    finally:
        set_default_layout(prev)
    return results, ledger


def test_process_pool_layout_parity(restore_layout):
    """Process workers fork after set_default_layout, so each pool runs
    entirely on one layout; results and ledgers must still match -- and
    the ledgers byte-identically, across the hoisted-header command
    framing the process transport uses."""
    ops = _trace(n=40, rounds=2)
    soa = _run_parallel("soa", ops, "process")
    obj = _run_parallel("object", ops, "process")
    assert soa[0] == obj[0]
    assert _ledger_bytes(soa[1]) == _ledger_bytes(obj[1])


def test_process_pool_matches_inline(restore_layout):
    """The parallel SoA run against the inline object run: the full
    cross-product rail (layout x execution mode) holds."""
    ops = _trace(n=40, rounds=2)
    par = _run_parallel("soa", ops, "process")
    pager = Pager()
    prev = set_default_layout("object")
    try:
        index = make_index(IndexKind.LAZY, pager, DOMAIN, max_entries=5)
        inline_results = _replay(index, ops, pager.stats, kind=IndexKind.LAZY)
    finally:
        set_default_layout(prev)
    # Shard fan-out merges in shard-id order == inline insertion-order
    # routing, so even the result *sequences* agree, not just the sets.
    assert [sorted(r) for r in par[0]] == [sorted(r) for r in inline_results]


# -- shared-memory transport unit tests --------------------------------------


def _fork_ctx():
    if "fork" not in mp.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    return mp.get_context("fork")


def _mk_worker(**kwargs):
    return ProcessWorker(
        IndexKind.RTREE,
        0,
        DOMAIN,
        IndexOptions(max_entries=5),
        **kwargs,
    )


def _drain_ready(worker):
    ready = worker.result()
    assert ready.get("ok"), ready


def test_transport_auto_selects_shm():
    ctx = _fork_ctx()
    if not shm_available(ctx):
        pytest.skip("shared memory unavailable on this host")
    worker = _mk_worker()
    try:
        assert worker.transport == "shm"
        _drain_ready(worker)
        worker.submit(("ping", 7))
        resp = worker.result()
        assert resp["ok"] and resp["pong"] == 7
    finally:
        worker.close()


def test_transport_forced_pipe():
    worker = _mk_worker(transport="pipe")
    try:
        assert worker.transport == "pipe"
        _drain_ready(worker)
        worker.submit(("ping", 3))
        assert worker.result()["pong"] == 3
    finally:
        worker.close()


def test_transport_rejects_unknown():
    with pytest.raises(ValueError):
        _mk_worker(transport="carrier-pigeon")


def test_forced_shm_unavailable_raises():
    if "spawn" not in mp.get_all_start_methods():
        pytest.skip("spawn start method unavailable")
    ctx = mp.get_context("spawn")
    # shm_available requires fork; forcing shm under spawn must fail loudly.
    with pytest.raises(WorkerFailure):
        _mk_worker(transport="shm", ctx=ctx)


def test_oversize_payload_detours_through_pipe(monkeypatch):
    """A response larger than the mailbox rides the fallback pipe
    (FLAG_PIPE) without the caller noticing."""
    ctx = _fork_ctx()
    if not shm_available(ctx):
        pytest.skip("shared memory unavailable on this host")
    monkeypatch.setattr(shm, "DEFAULT_CAPACITY", 4096)
    worker = _mk_worker(transport="shm")
    try:
        assert worker.transport == "shm"
        _drain_ready(worker)
        token = "x" * 50_000  # pickles far beyond the 4 KiB mailbox
        worker.submit(("ping", token))
        resp = worker.result()
        assert resp["ok"] and resp["pong"] == token
    finally:
        worker.close()


def test_oversize_payload_beyond_socket_buffer(monkeypatch):
    """FLAG_PIPE with a payload far beyond the kernel socket buffer
    (~64-208 KiB): the doorbell must ring before the pipe write, so the
    reader drains concurrently.  With the old ordering (send_bytes before
    the semaphore release) this deadlocked both processes -- the writer
    blocked on a full pipe, the reader parked on the doorbell."""
    ctx = _fork_ctx()
    if not shm_available(ctx):
        pytest.skip("shared memory unavailable on this host")
    monkeypatch.setattr(shm, "DEFAULT_CAPACITY", 1 << 20)
    worker = _mk_worker(transport="shm")
    try:
        assert worker.transport == "shm"
        _drain_ready(worker)
        # 2 MiB: oversize at the default 1 MiB capacity in *both*
        # directions, and far past any socket buffer either way.
        token = "x" * (2 * 1024 * 1024)
        worker.submit(("ping", token))
        resp = worker.result()
        assert resp["ok"] and resp["pong"] == token
    finally:
        worker.close()


def test_orphaned_worker_exits_and_unlinks():
    """A SIGKILLed parent never reaches close(): the child's ppid check on
    the command doorbell must notice, exit, and unlink the segments."""
    import signal
    import time

    ctx = _fork_ctx()
    if not shm_available(ctx):
        pytest.skip("shared memory unavailable on this host")
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm to inspect for leaked segments")

    parent_conn, child_conn = ctx.Pipe(duplex=False)

    def middle() -> None:
        worker = _mk_worker(transport="shm")
        _drain_ready(worker)
        channel = worker._channel
        child_conn.send(
            (channel._req._shm.name, channel._resp._shm.name)
        )
        time.sleep(60)  # hold the worker open until SIGKILLed

    # Not daemonic: the middle process must itself fork the worker.
    proc = ctx.Process(target=middle)
    proc.start()
    child_conn.close()
    names = parent_conn.recv()
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=5.0)
    # The grandchild polls its ppid every _CHILD_POLL_S; give it a few
    # cycles to notice, exit the command loop, and unlink.
    deadline = time.monotonic() + 10.0
    paths = [f"/dev/shm/{name.lstrip('/')}" for name in names]
    while time.monotonic() < deadline:
        if not any(os.path.exists(p) for p in paths):
            break
        time.sleep(0.1)
    leaked = [p for p in paths if os.path.exists(p)]
    assert not leaked, f"orphaned worker left segments behind: {leaked}"


def test_shm_worker_sequences_fire_and_forget(monkeypatch):
    """Two sends without an intervening receive must not clobber each
    other (the free-slot rendezvous): the worker sees both, in order."""
    ctx = _fork_ctx()
    if not shm_available(ctx):
        pytest.skip("shared memory unavailable on this host")
    worker = _mk_worker(transport="shm")
    try:
        _drain_ready(worker)
        worker.submit(("ping", "a"))
        worker.submit(("ping", "b"))  # blocks until "a" is consumed
        assert worker.result()["pong"] == "a"
        assert worker.result()["pong"] == "b"
    finally:
        worker.close()
