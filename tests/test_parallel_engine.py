"""Shard-executor parity: worker pools change *where* work runs, never
what happens or what gets charged.

Every test replays one deterministic workload against the inline
:class:`ShardedIndex` and the same router on a process pool and compares
observable state: I/O ledgers per category, query result sequences, move
counters, object counts, per-shard run ledgers.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.core.geometry import Rect
from repro.engine import IndexKind, ShardedIndex
from repro.engine.buffer import PendingUpdate

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))
N_SHARDS = 4
N_OBJECTS = 48
MODES = ["process"]


def _io_signature(stats):
    return tuple(
        (cat, counter.reads, counter.writes)
        for cat, counter in sorted(stats.snapshot().items())
    )


def _script(seed: int = 5):
    """A deterministic op script: inserts, drifts (some crossing shard
    boundaries), deletes, and range queries, with per-object positions."""
    rng = random.Random(seed)
    ops: List[tuple] = []
    pos = {}
    t = 1000.0
    for oid in range(N_OBJECTS):
        p = (rng.uniform(0, 100), rng.uniform(0, 100))
        pos[oid] = p
        ops.append(("insert", oid, p, t))
        t += 1.0
    for _ in range(4):
        for oid in range(N_OBJECTS):
            if rng.random() < 0.25:
                # Long horizontal hop: likely crosses a slab boundary.
                p = (rng.uniform(0, 100), pos[oid][1])
            else:
                p = (
                    min(100.0, max(0.0, pos[oid][0] + rng.uniform(-4, 4))),
                    min(100.0, max(0.0, pos[oid][1] + rng.uniform(-4, 4))),
                )
            ops.append(("update", oid, pos[oid], p, t))
            pos[oid] = p
            t += 1.0
        lo = (rng.uniform(0, 80), rng.uniform(0, 80))
        ops.append(("query", Rect(lo, (lo[0] + 20.0, lo[1] + 20.0))))
    for oid in range(0, N_OBJECTS, 7):
        ops.append(("delete", oid, pos.pop(oid), t))
        t += 1.0
    return ops, pos


def _replay(index, ops):
    query_results = []
    for op in ops:
        if op[0] == "insert":
            index.insert(op[1], op[2], now=op[3])
        elif op[0] == "update":
            index.update(op[1], op[2], op[3], now=op[4])
        elif op[0] == "delete":
            index.delete(op[1], op[2], now=op[3])
        else:
            query_results.append(index.range_search(op[1]))
    return query_results


@pytest.fixture(scope="module")
def inline_run():
    ops, pos = _script()
    index = ShardedIndex(IndexKind.LAZY, DOMAIN, N_SHARDS, query_rate=1.0)
    results = _replay(index, ops)
    return ops, pos, index, results


@pytest.mark.parametrize("mode", MODES)
def test_parallel_matches_inline_exactly(mode, inline_run):
    ops, pos, inline, inline_results = inline_run
    with ShardedIndex(
        IndexKind.LAZY, DOMAIN, N_SHARDS, mode=mode, query_rate=1.0
    ) as par:
        par_results = _replay(par, ops)
        assert par_results == inline_results
        assert len(par) == len(inline) == len(pos)
        assert par.cross_shard_moves == inline.cross_shard_moves
        assert par.cross_shard_moves > 0  # the script must exercise moves
        assert _io_signature(par.pager.stats) == _io_signature(
            inline.pager.stats
        )
        assert par.merged_result().n_updates == inline.merged_result().n_updates
        # Engine telemetry mirrors the inline router's per-shard split.
        par_shards = par.engine_dict()["shards"]
        inline_shards = inline.engine_dict()["shards"]
        assert [s["objects"] for s in par_shards] == [
            s["objects"] for s in inline_shards
        ]


@pytest.mark.parametrize("mode", MODES)
def test_batched_dispatch_matches_inline(mode):
    """apply_batch parity: per-shard sub-batches + sequenced moves give the
    exact inline I/O ledger and positions."""
    rng = random.Random(11)
    inserts = [
        PendingUpdate(oid, None, (rng.uniform(0, 100), rng.uniform(0, 100)),
                      1000.0 + oid, seq=oid)
        for oid in range(N_OBJECTS)
    ]
    pos = {u.oid: u.point for u in inserts}
    batches = [inserts]
    seq = N_OBJECTS
    for _ in range(3):
        batch = []
        for oid in range(N_OBJECTS):
            p = (rng.uniform(0, 100), rng.uniform(0, 100))
            batch.append(
                PendingUpdate(oid, pos[oid], p, 2000.0 + seq, seq=seq)
            )
            pos[oid] = p
            seq += 1
        batches.append(batch)

    inline = ShardedIndex(IndexKind.LAZY, DOMAIN, N_SHARDS, query_rate=1.0)
    inline_applied = 0
    for batch in batches:
        for u in batch:
            if u.old_point is None:
                inline.insert(u.oid, u.point, now=u.t)
            else:
                inline.update(u.oid, u.old_point, u.point, now=u.t)
            inline_applied += 1

    with ShardedIndex(
        IndexKind.LAZY, DOMAIN, N_SHARDS, mode=mode, query_rate=1.0
    ) as par:
        par_applied = sum(par.apply_batch(batch) for batch in batches)
        assert par_applied == inline_applied
        assert len(par) == len(inline)
        assert par.cross_shard_moves == inline.cross_shard_moves
        assert _io_signature(par.pager.stats) == _io_signature(
            inline.pager.stats
        )
        rect = Rect((10.0, 10.0), (70.0, 70.0))
        assert par.range_search(rect) == inline.range_search(rect)
        expected = sorted(
            oid for oid, p in pos.items() if rect.contains_point(p)
        )
        assert sorted(oid for oid, _ in par.range_search(rect)) == expected


@pytest.mark.parametrize("mode", MODES)
def test_per_shard_wall_clocks_are_positive(mode):
    """The satellite fix: per-shard RunResult.wall_clock_s must be real
    measured time, not the 0.0 the sharded runs used to report."""
    ops = _script()[0]
    with ShardedIndex(
        IndexKind.LAZY, DOMAIN, N_SHARDS, mode=mode, query_rate=1.0
    ) as par:
        _replay(par, ops)
        results = par.shard_results()
        assert len(results) == N_SHARDS
        for result in results:
            assert result.wall_clock_s > 0.0
            assert result.n_updates > 0


def test_inline_shard_wall_clocks_are_positive():
    ops = _script()[0]
    index = ShardedIndex(IndexKind.LAZY, DOMAIN, N_SHARDS, query_rate=1.0)
    _replay(index, ops)
    for result in index.shard_results():
        assert result.wall_clock_s > 0.0


@pytest.mark.parametrize("mode", MODES)
def test_store_surface(mode):
    """The ShardedStore facade feeds the driver/CLI telemetry paths."""
    with ShardedIndex(
        IndexKind.LAZY, DOMAIN, N_SHARDS, mode=mode, query_rate=1.0
    ) as par:
        par.insert(1, (10.0, 10.0), now=1.0)
        store = par.pager
        assert store.page_count > 0
        metrics = store.metrics_dict()
        assert metrics["parallel"]["mode"] == mode
        assert metrics["parallel"]["workers"] == N_SHARDS
        assert metrics["parallel"]["fell_back"] is False
        assert len(metrics["shards"]) == N_SHARDS
        engine = par.engine_dict()
        assert engine["parallel"]["worker_failures"] == 0
        stats = par.collect_tree_stats()
        assert stats["size"] == 1
        assert stats["n_shards"] == N_SHARDS


def test_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ShardedIndex(IndexKind.LAZY, DOMAIN, 2, mode="fiber")
    with pytest.raises(ValueError):
        ShardedIndex(IndexKind.LAZY, DOMAIN, 2, mode="thread")
