"""Property-based health checks: random op interleavings leave every
registered kind verifying clean, and repair() really repairs.

Also home to the sharded cross-shard exception-safety test (the router
must not lose an object when the destination shard's insert throws).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.geometry import Rect
from repro.engine import IndexKind, ShardedIndex, make_index
from repro.health import repair_index, verify_index
from repro.storage.pager import Pager

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (op, oid, x, y): op 0 = upsert, 1 = delete, 2 = re-update.
OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=15),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=80,
)


def _apply(index, ops, kind=None):
    """Drive a SpatialIndex through an op interleaving; returns the oracle."""
    from repro.engine import delete_object

    positions = {}
    t = 0.0
    for op, oid, x, y in ops:
        t += 1.0
        point = (x, y)
        if op == 1:
            if oid in positions:
                if kind is None:  # sharded router / wrapper: uniform delete
                    index.delete(oid, positions[oid], now=t)
                else:
                    delete_object(
                        kind, index, oid,
                        old_position=positions[oid], now=t,
                    )
                del positions[oid]
        elif oid in positions:
            index.update(oid, positions[oid], point, now=t)
            positions[oid] = point
        else:
            index.insert(oid, point, now=t)
            positions[oid] = point
    return positions


def _histories(seed=1, n=8):
    from .conftest import dwell_trail

    rng = random.Random(seed)
    spots = [(25.0, 25.0), (75.0, 70.0)]
    return {oid: dwell_trail(rng, spots, dwell_reports=8) for oid in range(n)}


@pytest.mark.parametrize("kind", IndexKind.ALL)
@SETTINGS
@given(ops=OPS)
def test_random_interleavings_verify_clean(kind, ops):
    index = make_index(
        kind, Pager(), DOMAIN, histories=_histories(), query_rate=1.0
    )
    positions = _apply(index, ops, kind=kind)
    report = verify_index(index)
    assert report.ok, report.summary() + "\n" + "\n".join(
        str(v) for v in report.violations
    )
    served = dict(index.range_search(DOMAIN))
    assert served == {oid: tuple(p) for oid, p in positions.items()}


@SETTINGS
@given(ops=OPS, n_shards=st.integers(min_value=2, max_value=4))
def test_sharded_interleavings_verify_clean(ops, n_shards):
    index = ShardedIndex("lazy", DOMAIN, n_shards)
    positions = _apply(index, ops)
    report = verify_index(index)
    assert report.ok, report.summary()
    assert len(index) == len(positions)


@SETTINGS
@given(
    ops=OPS,
    corruptions=st.lists(
        st.integers(min_value=0, max_value=15), min_size=1, max_size=5
    ),
)
def test_repair_heals_corrupted_hash_index(ops, corruptions):
    index = make_index("lazy", Pager(), DOMAIN)
    _apply(index, ops, kind="lazy")
    # Poison the secondary hash: repoint live entries at a bogus page and
    # invent an orphan.  Both classes are repairable by design.
    poisoned = False
    for oid in corruptions:
        if index.hash.peek(oid) is not None:
            index.hash.set(oid, 999_999)
            poisoned = True
    index.hash.set(777_777, 5)
    report = verify_index(index)
    assert not report.ok
    if poisoned:
        assert report.by_code("hash-stale")
    assert report.by_code("hash-orphan")
    repair_index(index)
    after = verify_index(index)
    assert after.ok, after.summary()


@SETTINGS
@given(ops=OPS)
def test_self_healing_wrapper_preserves_behaviour(ops):
    from repro.health import HealPolicy, SelfHealingIndex

    plain = make_index("lazy", Pager(), DOMAIN)
    wrapped = SelfHealingIndex(
        make_index("lazy", Pager(), DOMAIN), "lazy", DOMAIN,
        policy=HealPolicy(rebuild_batch=4, cooldown_updates=10_000),
    )
    expected = _apply(plain, ops, kind="lazy")
    got = _apply(wrapped, ops)
    assert got == expected
    assert dict(wrapped.range_search(DOMAIN)) == dict(plain.range_search(DOMAIN))
    assert verify_index(wrapped).ok


# -- satellite: cross-shard move exception safety -----------------------------


class _ExplodingIndex:
    """Delegates to a real lazy R-tree but can be armed to fail inserts."""

    def __init__(self, inner):
        self.inner = inner
        self.explode = False

    def insert(self, obj_id, point, now=None):
        if self.explode:
            raise RuntimeError("disk full")
        return self.inner.insert(obj_id, point, now=now)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __len__(self):
        return len(self.inner)


def test_cross_shard_move_failure_restores_source_shard():
    index = ShardedIndex("lazy", DOMAIN, 2)
    # Shard 0 owns x < 50, shard 1 owns x >= 50 (static split on x).
    index.insert(1, (10.0, 50.0), now=0.0)
    index.insert(2, (20.0, 50.0), now=1.0)
    target_sid = index.partition.shard_of((90.0, 50.0))
    source_sid = index.partition.shard_of((10.0, 50.0))
    assert target_sid != source_sid
    boom = _ExplodingIndex(index.shards[target_sid].index)
    index.shards[target_sid].index = boom
    boom.explode = True
    with pytest.raises(RuntimeError, match="disk full"):
        index.update(1, (10.0, 50.0), (90.0, 50.0), now=2.0)
    assert index.cross_shard_move_failures == 1
    assert index.cross_shard_moves == 0
    # The object is back on its source shard at its old position; the
    # owner map never moved, so routing still works.  The verifier reads
    # the real tree the test double wraps.
    index.shards[target_sid].index = boom.inner
    served = dict(index.range_search(DOMAIN))
    assert served == {1: (10.0, 50.0), 2: (20.0, 50.0)}
    assert verify_index(index).ok
    # And the restored object remains fully updatable.
    index.update(1, (10.0, 50.0), (90.0, 50.0), now=3.0)
    assert index.cross_shard_moves == 1
    assert dict(index.range_search(DOMAIN))[1] == (90.0, 50.0)
    assert index.engine_dict()["cross_shard_move_failures"] == 1


def test_cross_shard_move_failure_counter_in_snapshot_roundtrip(tmp_path):
    from repro.storage.snapshot import load_index, save_index

    index = ShardedIndex("lazy", DOMAIN, 2)
    index.insert(1, (10.0, 50.0), now=0.0)
    path = save_index(index, tmp_path / "sharded.json")
    loaded = load_index(path)
    # The loader builds the instance without __init__; the counter must
    # still exist so engine_dict() and future failures work.
    assert loaded.cross_shard_move_failures == 0
    assert loaded.engine_dict()["cross_shard_move_failures"] == 0
