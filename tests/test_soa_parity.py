"""Golden node-layout outputs, and the process pool's shared-memory transport.

Runs one deterministic insert/move/delete/query script through the rtree,
lazy, alpha and LSM engines inline, and through a two-shard process pool,
and pins what an observer could look at: the query result sequence, the
per-category I/O ledger and the canonical snapshot document.  The
constants were recorded before the per-entry reference node layout was
deleted, with the packed and the per-entry layouts both run on this
script and giving identical values; they are that agreement, frozen.  A
change to how a node stores or scans its entries must reproduce them
exactly.

Also unit-tests the shared-memory transport underneath the process pool:
transport selection, the forced-pipe override, the oversize->pipe payload
detour, and the unavailability error.
"""

from __future__ import annotations

import hashlib
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


#: Recorded with both node layouts run on these scripts: the packed and
#: the per-entry layout produced exactly these values.  The lazy, alpha and
#: process UPDATE reads were re-based once since, when a relocating update
#: and a delete stopped reading their hash bucket twice; every digest held.
GOLDEN = {
    IndexKind.RTREE: {
        "ledger": {
            "other": {"reads": 0, "writes": 1, "total": 1},
            "query": {"reads": 188, "writes": 0, "total": 188},
            "update": {"reads": 1845, "writes": 1165, "total": 3010},
        },
        "results_sha256": "2b9586005ecc7bebc4f7104a788d22d18f71e9fe5bea0273649279a2adca39a9",
        "snapshot_sha256": "6d722591a19f1da4dfe632686e08dad60325cf9625eda264143b45a1b64ca39d",
    },
    IndexKind.LAZY: {
        "ledger": {
            "other": {"reads": 0, "writes": 1, "total": 1},
            "query": {"reads": 225, "writes": 0, "total": 225},
            "update": {"reads": 1427, "writes": 1061, "total": 2488},
        },
        "results_sha256": "17849a1b46e106a44376f3063d73456441c5c73cc190ca9e793d593a0c69204c",
        "snapshot_sha256": "b28992cd5c9b2c0642f5dbe2e47d5d671869b3d95102583d8f6c1f60252c2af1",
    },
    IndexKind.ALPHA: {
        "ledger": {
            "other": {"reads": 0, "writes": 1, "total": 1},
            "query": {"reads": 270, "writes": 0, "total": 270},
            "update": {"reads": 1431, "writes": 1107, "total": 2538},
        },
        "results_sha256": "32a71c851b336a4abf7cd31016162290ef55d5ea25acb74a00eefc816273041a",
        "snapshot_sha256": "ff46a471a5310ff09e7845a31a7571b7c1daacbdda7c73aabbb72ade7f58a438",
    },
    IndexKind.LSM: {
        "ledger": {
            "query": {"reads": 226, "writes": 0, "total": 226},
            "update": {"reads": 353, "writes": 462, "total": 815},
        },
        "results_sha256": "879ac5eb8dddcff7e6793de35c1c126f56e76da1f031c916a687f8fb4c720140",
        "snapshot_sha256": "fe98675e3748ba4dbc2483de72c9630e7ee054141e38fbb4cf153a5c4f6bd929",
    },
    # Two lazy shards on the process pool, over ``_trace(n=40, rounds=2)``.
    "process": {
        "ledger": {
            "other": {"reads": 0, "writes": 2, "total": 2},
            "query": {"reads": 93, "writes": 0, "total": 93},
            "update": {"reads": 507, "writes": 472, "total": 979},
        },
        "results_sha256": "6b812a3371293adaf6cb1d5940132a2358e4203640951df68bdfaac22146f2c9",
    },
}


def _sha256(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()


def _run_inline(kind, ops, **options):
    """Replay ``ops`` on one inline index; returns (observed, snapshot)."""
    pager = Pager()
    index = make_index(kind, pager, DOMAIN, max_entries=5, **options)
    results = _replay(index, ops, pager.stats, kind=kind)
    document = build_document(index)
    observed = {
        "ledger": pager.stats.to_dict(),
        "results_sha256": _sha256(results),
        "snapshot_sha256": _sha256(document),
    }
    return observed, document


@pytest.mark.parametrize("kind", [IndexKind.RTREE, IndexKind.LAZY, IndexKind.ALPHA])
def test_inline_layout_parity(kind):
    """Each inline engine reproduces what both node layouts produced."""
    observed, _ = _run_inline(kind, _trace())
    assert observed == GOLDEN[kind]


def test_lsm_layout_parity():
    """The LSM's flush and merge fill leaves from columns and read them back
    as columns.  Sized so the trace flushes ~35 times and merges in every
    tier."""
    knobs = dict(lsm_memtable=8, lsm_size_ratio=2, lsm_max_runs=4)
    observed, document = _run_inline(IndexKind.LSM, _trace(), **knobs)
    assert observed == GOLDEN[IndexKind.LSM]
    assert len(document["index"]["runs"]) > 1
    assert any(run["tombstones"] for run in document["index"]["runs"])


def _ledger_bytes(ledger) -> bytes:
    """Canonical serialized form: the ledger must match byte-for-byte, not
    just under ``==`` (which would tolerate e.g. int/float drift in counters)."""
    return json.dumps(ledger, sort_keys=True, separators=(",", ":")).encode()


def _run_parallel(ops, mode):
    index = ShardedIndex(IndexKind.LAZY, DOMAIN, 2, mode=mode, max_entries=5)
    try:
        results = _replay(index, ops, index.pager.stats)
        ledger = index.pager.stats.to_dict()
    finally:
        index.close()
    return results, ledger


def test_process_pool_layout_parity():
    """The process pool's results and ledger, the ledger byte for byte
    across the hoisted-header command framing the process transport uses."""
    results, ledger = _run_parallel(_trace(n=40, rounds=2), "process")
    assert _sha256(results) == GOLDEN["process"]["results_sha256"]
    assert _ledger_bytes(ledger) == _ledger_bytes(GOLDEN["process"]["ledger"])


def test_process_pool_matches_inline():
    """The process pool against the inline executor over the same shards:
    same result sequences, byte-identical ledgers."""
    ops = _trace(n=40, rounds=2)
    par = _run_parallel(ops, "process")
    inline = _run_parallel(ops, "inline")
    assert par[0] == inline[0]
    assert _ledger_bytes(par[1]) == _ledger_bytes(inline[1])


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
