"""Sharded verification reaches every shard, wherever it lives.

``verify_index`` on a :class:`ShardedIndex` sends each shard the
``("verify",)`` shard command: the shard answers with ``verify_index`` of
its own index plus its ``(oid, position)`` residents, and the router-level
checks (duplicate object, slab coverage, stale owner map) run on those
responses.  So every kind is verified -- the LSM's runs and memtable
included -- and a process-pool engine reports exactly what its inline twin
reports after the same script.
"""

from __future__ import annotations

import random

import pytest

from repro.core.geometry import Rect
from repro.engine import IndexKind, ShardedIndex
from repro.health import verify_index

from .conftest import dwell_trail

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))
N_SHARDS = 4
SLAB = 100.0 / N_SHARDS
KINDS = [
    IndexKind.RTREE,
    IndexKind.LAZY,
    IndexKind.ALPHA,
    IndexKind.CT,
    IndexKind.LSM,
]
MODES = ["inline", "process"]


def _histories(n: int):
    rng = random.Random(11)
    spots = [(20.0, 20.0), (80.0, 30.0), (50.0, 80.0)]
    return {oid: dwell_trail(rng, spots, dwell_reports=10) for oid in range(n)}


def _point(rng: random.Random, slab: int):
    return (slab * SLAB + rng.uniform(0.5, SLAB - 0.5), rng.uniform(0.0, 100.0))


def _engine(kind: str, mode: str) -> ShardedIndex:
    """A 4-shard engine after a fixed script: inserts spread evenly over
    the slabs, in-slab updates, cross-slab moves, deletes and a query.

    The LSM gets 300 objects per slab, past the 256-entry default memtable,
    so every shard has flushed at least one run."""
    n = 1200 if kind == IndexKind.LSM else 160
    index = ShardedIndex(
        kind,
        DOMAIN,
        N_SHARDS,
        mode=mode,
        histories=_histories(24) if kind == IndexKind.CT else None,
        query_rate=1.0,
    )
    rng = random.Random(5)
    positions = {}
    t = 600.0
    for oid in range(n):
        positions[oid] = _point(rng, oid % N_SHARDS)
        index.insert(oid, positions[oid], now=t)
        t += 1.0
    for oid in range(0, n, 3):
        slab = oid % N_SHARDS if oid % 2 else (oid + 1) % N_SHARDS
        point = _point(rng, slab)
        index.update(oid, positions[oid], point, now=t)
        positions[oid] = point
        t += 1.0
    for oid in range(1, n, 7):
        index.delete(oid, positions.pop(oid), now=t)
        t += 1.0
    assert len(index.range_search(DOMAIN)) == len(positions)
    return index


def _signature(report):
    return (
        report.kind,
        [(v.code, v.location, v.message, v.repairable) for v in report.violations],
        report.checked_nodes,
        report.checked_objects,
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", KINDS)
def test_verify_counts_every_shard(kind, mode):
    """The sharded report's counts are the sum of each shard verified on
    its own (taken from the inline twin), and a process engine's report
    equals its inline twin's."""
    with _engine(kind, "inline") as inline:
        per_shard = [verify_index(shard.index) for shard in inline.shards]
        assert all(sub.ok for sub in per_shard), [s.summary() for s in per_shard]
        nodes = sum(sub.checked_nodes for sub in per_shard)
        objects = sum(sub.checked_objects for sub in per_shard)
        assert nodes > 0 and objects >= len(inline) > 0
        if kind == IndexKind.LSM:
            assert all(shard.index.runs for shard in inline.shards)
        twin = verify_index(inline)
        if mode == "inline":
            report = twin
        else:
            with _engine(kind, mode) as engine:
                report = verify_index(engine)
            assert _signature(report) == _signature(twin)
    assert report.ok, report.summary()
    assert report.kind == "sharded"
    assert (report.checked_nodes, report.checked_objects) == (nodes, objects)


@pytest.mark.parametrize("kind", [IndexKind.LAZY, IndexKind.LSM])
def test_process_engine_reports_stale_owner_map(kind):
    """Owner-map corruption planted in a process engine is found, exactly
    as in its inline twin."""
    reports = []
    for mode in MODES:
        with _engine(kind, mode) as index:
            victim = 0
            index._owner[victim] = (index._owner[victim] + 1) % N_SHARDS
            index._owner[10_000] = 2  # an object no shard stores
            reports.append(verify_index(index))
    inline, process = reports
    assert process.by_code() == {"router-stale": 2}
    assert _signature(process) == _signature(inline)


def test_verify_probe_survives_a_worker_death():
    """A worker that dies before the probe falls the engine back to inline;
    the verify probe then runs on the rebuilt shards."""
    with _engine(IndexKind.LAZY, "process") as index:
        index._executor._workers[1].submit(("crash",))
        report = verify_index(index)
        assert index.fallbacks == 1
        assert index.mode == "process" and index.shards
        assert report.checked_objects == len(index)
    assert report.ok, report.summary()
