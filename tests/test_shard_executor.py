"""The shard-executor contract: one router, two executors, one behaviour.

``ShardedIndex(..., mode=...)`` runs its shard commands inline or on process
workers.  These tests pin what the executor may not change -- which ids a
batch accepts, the order a batch applies in (repeated ids and cross-shard
moves included), the rebalancer's per-op cadence -- and that the inline
engine never loads the worker-pool machinery.
"""

from __future__ import annotations

import random
import subprocess
import sys

import pytest

from repro.core.geometry import Rect
from repro.engine import (
    FlushPolicy,
    IndexKind,
    RebalancePolicy,
    ShardedIndex,
    ShardRebalancer,
    UpdateBuffer,
)
from repro.engine.buffer import PendingUpdate
from repro.serve import EngineService
from repro.storage.iostats import IOCategory

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))
MODES = ["inline", "process"]


def _io_signature(stats):
    return tuple(
        (cat, counter.reads, counter.writes)
        for cat, counter in sorted(stats.snapshot().items())
    )


def _state(index):
    return (
        _io_signature(index.pager.stats),
        index.position_map(),
        len(index),
        sorted(index.range_search(DOMAIN)),
    )


@pytest.mark.parametrize("mode", MODES)
def test_unknown_id_raises_before_any_page_changes(mode):
    """An id the router does not hold raises KeyError before anything is
    dispatched: no page, ledger or position moves, so a retry re-applies
    nothing with a stale ``old_point``."""
    with ShardedIndex(IndexKind.LAZY, DOMAIN, 4, mode=mode) as index:
        for oid in range(8):
            index.insert(oid, (13.0 + oid, 50.0), now=float(oid))
        signature = _io_signature(index.pager.stats)
        positions = index.position_map()
        size = len(index)
        batch = [
            PendingUpdate(1, (14.0, 50.0), (15.0, 51.0), 10.0, seq=1),
            PendingUpdate(999, (1.0, 1.0), (2.0, 2.0), 11.0, seq=2),
        ]
        with pytest.raises(KeyError):
            index.apply_batch(batch)
        assert _io_signature(index.pager.stats) == signature
        assert index.position_map() == positions
        assert len(index) == size
        # An insert earlier in the same batch counts as held.
        born = [
            PendingUpdate(50, None, (70.0, 70.0), 12.0, seq=3),
            PendingUpdate(50, (70.0, 70.0), (20.0, 70.0), 13.0, seq=4),
        ]
        assert index.apply_batch(born) == 2
        assert index.position_map()[50] == (20.0, 70.0)


def _writer_batches():
    """Uncoalesced writer batches: a repeated id within one batch (insert
    then updates, same-shard then cross-shard), and cross-shard moves."""
    rng = random.Random(23)
    positions = {oid: (rng.uniform(0, 100), rng.uniform(0, 100)) for oid in range(24)}
    batches = []
    t = 1.0
    for _ in range(5):
        batch = []
        for _ in range(40):
            oid = rng.randrange(28)  # ids 24..27 are born mid-stream
            if rng.random() < 0.3:
                point = (rng.uniform(0, 100), rng.uniform(0, 100))
            elif oid in positions:
                x, y = positions[oid]
                point = (min(100.0, x + rng.uniform(-3, 3)), y)
            else:
                point = (rng.uniform(0, 100), rng.uniform(0, 100))
            batch.append((oid, point, t))
            t += 1.0
        batches.append(batch)
    return positions, batches


@pytest.mark.parametrize("mode", MODES)
def test_serve_writer_batches_apply_like_single_ops(mode, monkeypatch):
    """``serve --shards`` hands the writer's uncoalesced batch to
    ``apply_batch``; the result equals op-by-op application."""
    positions, batches = _writer_batches()
    batched = ShardedIndex(IndexKind.LAZY, DOMAIN, 4, mode=mode)
    single = ShardedIndex(IndexKind.LAZY, DOMAIN, 4)
    calls = []
    real = ShardedIndex.apply_batch

    def spy(self, batch):
        calls.append(len(batch))
        return real(self, batch)

    monkeypatch.setattr(ShardedIndex, "apply_batch", spy)
    try:
        service = EngineService(batched, batched.pager, IndexKind.LAZY, DOMAIN)
        service.load(positions, now=0.0)
        stats = single.pager.stats
        ledger = {}
        with stats.category(IOCategory.BUILD):
            for oid, point in positions.items():
                single.insert(oid, point, now=0.0)
                ledger[oid] = point
        moves_seen = 0
        for batch in batches:
            ops = [service.ack_update(oid, point, t) for oid, point, t in batch]
            assert service.apply(ops) == len(ops)
            with stats.category(IOCategory.UPDATE):
                for oid, point, t in batch:
                    if oid in ledger:
                        single.update(oid, ledger[oid], point, now=t)
                    else:
                        single.insert(oid, point, now=t)
                    ledger[oid] = point
            moves_seen = single.cross_shard_moves
        assert calls == [len(batch) for batch in batches]
        assert moves_seen > 0
        assert any(
            len({oid for oid, _, _ in batch}) < len(batch) for batch in batches
        )
        assert batched.cross_shard_moves == single.cross_shard_moves
        assert _state(batched) == _state(single)
        assert batched.position_map() == ledger
    finally:
        batched.close()


def _hot_script(n_objects=40, rounds=6, seed=29):
    """A flash crowd in one narrow slab, so the rebalancer fires.
    Returns (starting positions, op script)."""
    rng = random.Random(seed)
    start = {
        oid: (rng.uniform(0, 100), rng.uniform(0, 100))
        if oid % 5 == 0
        else (rng.uniform(2, 12), rng.uniform(0, 100))
        for oid in range(n_objects)
    }
    positions = dict(start)
    script = []
    t = 2000.0
    for _ in range(rounds):
        for oid in sorted(positions):
            x, y = positions[oid]
            new = (
                min(100.0, max(0.0, x + rng.uniform(-2, 2))),
                min(100.0, max(0.0, y + rng.uniform(-2, 2))),
            )
            script.append(("update", oid, (x, y), new, t))
            positions[oid] = new
            t += 1.0
        script.append(("query", Rect((2.0, 0.0), (12.0, 100.0))))
    return start, script


def _rebalanced_engine():
    return ShardedIndex(
        IndexKind.LAZY,
        DOMAIN,
        4,
        max_entries=8,
        rebalancer=ShardRebalancer(
            RebalancePolicy(check_every=64, min_window_ios=32, hot_factor=1.8)
        ),
    )


def test_buffered_inline_batches_keep_the_rebalancer_cadence():
    """Inline ``apply_batch`` applies op by op, so a rebalancer attached to
    an engine fed through an ``UpdateBuffer`` sweeps exactly where it would
    under per-op calls: same cutovers, same partition, same ledger."""
    start, script = _hot_script()
    per_op = _rebalanced_engine()
    buffered = _rebalanced_engine()
    buffer = UpdateBuffer(FlushPolicy(batch_size=16))
    for index in (per_op, buffered):
        with index.pager.stats.category(IOCategory.UPDATE):
            for i, (oid, point) in enumerate(sorted(start.items())):
                index.insert(oid, point, now=1000.0 + i)
    for op in script:
        if op[0] == "query":
            with buffered.pager.stats.category(IOCategory.UPDATE):
                buffer.flush(buffered)
            for index in (per_op, buffered):
                with index.pager.stats.category(IOCategory.QUERY):
                    index.range_search(op[1])
            continue
        _tag, oid, old, new, t = op
        with per_op.pager.stats.category(IOCategory.UPDATE):
            per_op.update(oid, old, new, now=t)
        buffer.put(oid, old, new, t)
        if buffer.should_flush(t):
            with buffered.pager.stats.category(IOCategory.UPDATE):
                buffer.flush(buffered)
    assert per_op.rebalances >= 1
    assert buffered.rebalances == per_op.rebalances
    assert buffered._rebalancer.events == per_op._rebalancer.events
    assert buffered.partition.to_dict() == per_op.partition.to_dict()
    assert _io_signature(buffered.pager.stats) == _io_signature(
        per_op.pager.stats
    )
    counters = lambda index: [  # noqa: E731
        (r.n_updates, r.n_queries, r.result_count, r.update_ios, r.query_ios)
        for r in index.shard_results()
    ]
    assert counters(buffered) == counters(per_op)


def test_inline_engine_loads_no_worker_pool():
    """The pool is imported only when a pool is requested."""
    code = (
        "import sys, repro.engine\n"
        "from repro.core.geometry import Rect\n"
        "e = repro.engine.ShardedIndex('lazy', Rect((0, 0), (1, 1)), 2)\n"
        "e.insert(1, (0.5, 0.5))\n"
        "bad = [m for m in sys.modules\n"
        "       if m == 'multiprocessing' or m.startswith('repro.parallel')]\n"
        "print(','.join(bad))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": ":".join(sys.path)},
    )
    assert out.stdout.strip() == ""
