"""Property-based LSM-R-tree checks: random insert/update/delete
interleavings with arbitrary flush/compaction points stay equal to a
dict-of-latest-positions oracle, and verify_index stays clean throughout.

The ops strategy inserts explicit **flush** and **compact** actions into
the interleaving, so the oracle comparison exercises every component
boundary: memtable-only, memtable + runs, mid-compaction run layouts.
"""

from __future__ import annotations

import math
import os
import random
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.geometry import Rect
from repro.durability import DurabilityManager, recover
from repro.health import verify_index
from repro.lsm import LSMConfig, LSMRTree
from repro.storage.pager import Pager
from repro.storage.snapshot import load_index, save_index

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (op, oid, x, y): 0 = upsert, 1 = delete, 2 = flush, 3 = compact_step.
OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=15),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=100,
)

CONFIGS = st.sampled_from(
    [
        # Tiny memtable: every few ops cross a flush boundary organically.
        LSMConfig(memtable_size=4, size_ratio=2, max_runs=3),
        # Flush only when the interleaving says so.
        LSMConfig(memtable_size=64, size_ratio=2, max_runs=4, auto_compact=False),
        LSMConfig(memtable_size=8, size_ratio=3, max_runs=5, auto_compact=False),
    ]
)


def _drive(lsm, ops):
    """Apply the interleaving; returns the latest-position oracle."""
    oracle = {}
    for _ in _steps(lsm, ops, oracle):
        pass
    return oracle


def _steps(lsm, ops, oracle):
    """Apply the interleaving one op at a time, keeping ``oracle`` (the
    latest-position dict) current; yields the oid after each op."""
    t = 0.0
    for op, oid, x, y in ops:
        t += 1.0
        if op == 0:
            old = oracle.get(oid)
            if old is None:
                lsm.insert(oid, (x, y), now=t)
            else:
                lsm.update(oid, old, (x, y), now=t)
            oracle[oid] = (x, y)
        elif op == 1:
            assert lsm.delete(oid) == (oid in oracle)
            oracle.pop(oid, None)
        elif op == 2:
            lsm.flush()
        else:
            lsm.compact_step()
        yield oid


def newest_first_live(lsm, oid):
    """Liveness by walking the components newest first -- the memtable's
    death marks and pending entries, then each run from the newest -- where
    the first component that mentions ``oid`` decides.  The reference the
    index's live-oid set must agree with."""
    if oid in lsm._mem_dead:
        return False
    if lsm.memtable.pending_for(oid) is not None:
        return True
    for run in reversed(lsm.runs):
        if oid in run.oids:
            return True
        if oid in run.tombstones:
            return False
    return False


class TestLSMProperties:
    @SETTINGS
    @given(ops=OPS, config=CONFIGS)
    def test_range_matches_oracle_at_every_step(self, ops, config):
        lsm = LSMRTree(Pager(), max_entries=4, config=config)
        oracle = {}
        t = 0.0
        for op, oid, x, y in ops:
            t += 1.0
            if op == 0:
                old = oracle.get(oid)
                if old is None:
                    lsm.insert(oid, (x, y), now=t)
                else:
                    lsm.update(oid, old, (x, y), now=t)
                oracle[oid] = (x, y)
            elif op == 1:
                lsm.delete(oid)
                oracle.pop(oid, None)
            elif op == 2:
                lsm.flush()
            else:
                lsm.compact_step()
            assert dict(lsm.range_search(DOMAIN)) == oracle
            assert len(lsm) == len(oracle)

    @SETTINGS
    @given(ops=OPS, config=CONFIGS)
    def test_verify_clean_at_every_flush_and_compaction(self, ops, config):
        lsm = LSMRTree(Pager(), max_entries=4, config=config)
        oracle = {}
        t = 0.0
        for op, oid, x, y in ops:
            t += 1.0
            if op == 0:
                old = oracle.get(oid)
                if old is None:
                    lsm.insert(oid, (x, y), now=t)
                else:
                    lsm.update(oid, old, (x, y), now=t)
                oracle[oid] = (x, y)
            elif op == 1:
                lsm.delete(oid)
                oracle.pop(oid, None)
            else:
                if op == 2:
                    lsm.flush()
                else:
                    lsm.compact_step()
                report = verify_index(lsm)
                assert report.ok, [str(v) for v in report.violations]
        report = verify_index(lsm)
        assert report.ok, [str(v) for v in report.violations]
        assert report.kind == "lsm"

    @SETTINGS
    @given(ops=OPS, config=CONFIGS)
    def test_partial_rect_and_knn_match_oracle(self, ops, config):
        lsm = LSMRTree(Pager(), max_entries=4, config=config)
        oracle = _drive(lsm, ops)
        probe = Rect((20.0, 20.0), (70.0, 70.0))
        expected = {
            oid: pt for oid, pt in oracle.items() if probe.contains_point(pt)
        }
        assert dict(lsm.range_search(probe)) == expected
        if oracle:
            target = (50.0, 50.0)
            brute = sorted(
                (math.dist(target, pt), oid, pt) for oid, pt in oracle.items()
            )[:3]
            assert lsm.nearest(target, 3) == brute

    @SETTINGS
    @given(ops=OPS, config=CONFIGS)
    def test_final_drain_and_full_compaction_preserve_answers(self, ops, config):
        lsm = LSMRTree(Pager(), max_entries=4, config=config)
        oracle = _drive(lsm, ops)
        lsm.flush(reason="final")
        lsm.maybe_compact()
        assert dict(lsm.range_search(DOMAIN)) == oracle
        assert sorted(dict(lsm.iter_objects()).items()) == sorted(oracle.items())
        assert verify_index(lsm).ok

    @SETTINGS
    @given(ops=OPS, config=CONFIGS)
    def test_live_set_matches_newest_first_walk_at_every_step(self, ops, config):
        lsm = LSMRTree(Pager(), max_entries=4, config=config)
        oracle = {}
        touched = set()
        for oid in _steps(lsm, ops, oracle):
            touched.add(oid)
            for probe in touched:
                live = probe in oracle
                assert (probe in lsm._live) == live
                assert newest_first_live(lsm, probe) == live
            assert len(lsm) == len(oracle)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "lsm.snap")
            save_index(lsm, path)
            assert load_index(path)._live == lsm._live


def test_recovery_restores_the_acked_live_set(tmp_path):
    """Crash an LSM holding flushed runs, a tombstone and a non-empty
    memtable: recovery (checkpoint + WAL tail) rebuilds the acked model."""
    rng = random.Random(3)
    manager = DurabilityManager(tmp_path, sync="always")
    config = LSMConfig(memtable_size=8, size_ratio=2, max_runs=4)
    lsm = LSMRTree(Pager(), max_entries=4, config=config, wal=manager)
    manager.attach(lsm)
    model = {}
    t = 0.0

    def upsert(oid):
        point = (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
        if oid in model:
            lsm.update(oid, model[oid], point, now=t)
        else:
            lsm.insert(oid, point, now=t)
        model[oid] = point

    def delete(oid):
        manager.log_delete(oid, model[oid], t)
        assert lsm.delete(oid)
        del model[oid]

    try:
        for oid in range(20):
            t += 1.0
            upsert(oid)
        delete(3)
        manager.checkpoint()
        for _ in range(30):
            t += 1.0
            upsert(rng.randrange(26))
        delete(next(oid for oid in sorted(model) if lsm.runs[-1].mentions(oid)))
        # The crash point: runs on the pager, a pending tombstone, acked
        # updates still in the memtable.
        assert lsm.run_count >= 1 and lsm._mem_dead and len(lsm.memtable) > 0
    finally:
        manager.close()

    recovered, report = recover(tmp_path)
    assert report.checkpoint_ordinal == 1 and report.records_replayed > 0
    assert report.verify_ok, report.verify_violations
    assert len(recovered) == len(model)
    assert recovered._live == set(model)
    assert dict(recovered.range_search(DOMAIN)) == model
