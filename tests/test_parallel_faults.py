"""Worker-failure injection: a dead shard worker swaps the router's pool
executor for an inline one without losing acknowledged state.

The ``("crash",)`` fault hook makes a worker die without responding --
exactly the signature of a killed process.  After the fallback the engine
must hold the same objects at the same positions as an uninterrupted run,
pass the structural verifier, and tag the obs counters.
"""

from __future__ import annotations

import random

import pytest

from repro.core.geometry import Rect
from repro.engine import IndexKind, ShardedIndex
from repro.engine.buffer import PendingUpdate
from repro.health import verify_index
from repro.obs import get_registry, set_enabled

from .conftest import brute_force_range

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))
N_SHARDS = 4
MODES = ["process"]


def _populate(par, n=60, seed=3):
    rng = random.Random(seed)
    positions = {}
    for oid in range(n):
        p = (rng.uniform(0, 100), rng.uniform(0, 100))
        par.insert(oid, p, now=1000.0 + oid)
        positions[oid] = p
    return positions, rng


def _crash(par, sid):
    par._executor._workers[sid].submit(("crash",))


def _assert_degraded_and_consistent(par, positions):
    assert par.worker_failures == 1
    assert par.fallbacks == 1
    assert par.engine_dict()["parallel"]["fell_back"] is True
    assert len(par) == len(positions)
    rect = Rect((0.0, 0.0), (100.0, 100.0))
    assert sorted(oid for oid, _ in par.range_search(rect)) == sorted(positions)
    for oid, point in positions.items():
        hits = par.range_search(
            Rect((point[0] - 0.25, point[1] - 0.25),
                 (point[0] + 0.25, point[1] + 0.25))
        )
        assert oid in {h for h, _ in hits}
    report = verify_index(par)
    assert report.ok, report.summary()


@pytest.mark.parametrize("mode", MODES)
def test_crash_during_single_op_falls_back(mode):
    with ShardedIndex(
        IndexKind.LAZY, DOMAIN, N_SHARDS, mode=mode, query_rate=1.0
    ) as par:
        positions, rng = _populate(par)
        _crash(par, 0)
        # The next op that touches the dead worker triggers the fallback;
        # the op itself must still be applied (inline).
        victim = next(oid for oid, sid in par._owner.items() if sid == 0)
        new_point = (rng.uniform(0, 100), rng.uniform(0, 100))
        par.update(victim, positions[victim], new_point, now=2000.0)
        positions[victim] = new_point
        _assert_degraded_and_consistent(par, positions)


@pytest.mark.parametrize("mode", MODES)
def test_crash_mid_batch_applies_full_batch(mode):
    with ShardedIndex(
        IndexKind.LAZY, DOMAIN, N_SHARDS, mode=mode, query_rate=1.0
    ) as par:
        positions, rng = _populate(par)
        _crash(par, 1)
        batch = []
        for seq, oid in enumerate(sorted(positions)):
            p = (rng.uniform(0, 100), rng.uniform(0, 100))
            batch.append(
                PendingUpdate(oid, positions[oid], p, 3000.0 + seq, seq=seq)
            )
            positions[oid] = p
        applied = par.apply_batch(batch)
        # The returned count covers the full batch: acked on workers before
        # the death was detected, plus the remainder re-applied inline.
        assert applied == len(batch)
        _assert_degraded_and_consistent(par, positions)


@pytest.mark.parametrize("mode", MODES)
def test_crash_during_query_falls_back(mode):
    with ShardedIndex(
        IndexKind.LAZY, DOMAIN, N_SHARDS, mode=mode, query_rate=1.0
    ) as par:
        positions, _ = _populate(par)
        _crash(par, 2)
        rect = Rect((10.0, 10.0), (90.0, 90.0))
        hits = sorted(oid for oid, _ in par.range_search(rect))
        assert hits == brute_force_range(positions, rect)
        _assert_degraded_and_consistent(par, positions)


@pytest.mark.parametrize("mode", MODES)
def test_failure_counters_are_tagged(mode):
    registry = set_enabled(True)
    registry.reset()
    try:
        with ShardedIndex(
            IndexKind.LAZY, DOMAIN, N_SHARDS, mode=mode, query_rate=1.0
        ) as par:
            positions, _ = _populate(par, n=20)
            _crash(par, 0)
            par.range_search(Rect((0.0, 0.0), (100.0, 100.0)))
            assert get_registry().counter_value("parallel.worker_failures") == 1
            assert get_registry().counter_value("parallel.fallback") == 1
    finally:
        registry.reset()
        set_enabled(False)


@pytest.mark.parametrize("mode", MODES)
def test_only_one_fallback_ever(mode):
    """Repeated trouble after the cutover must not stack fallbacks."""
    with ShardedIndex(
        IndexKind.LAZY, DOMAIN, N_SHARDS, mode=mode, query_rate=1.0
    ) as par:
        positions, rng = _populate(par, n=24)
        _crash(par, 0)
        par.range_search(Rect((0.0, 0.0), (100.0, 100.0)))
        assert par.fallbacks == 1
        for oid in list(positions)[:6]:
            p = (rng.uniform(0, 100), rng.uniform(0, 100))
            par.update(oid, positions[oid], p, now=4000.0 + oid)
            positions[oid] = p
        assert par.fallbacks == 1
        assert par.worker_failures == 1
        _assert_degraded_and_consistent(par, positions)
        par.close()
        par.close()  # idempotent
