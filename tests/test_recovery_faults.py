"""The crash-anywhere invariant suite.

Every test here injects a failure into a logged run -- a crash mid-append,
a torn tail, a crash mid-checkpoint, a checkpoint published but not yet
truncated, bit rot, a lost segment -- and asserts the one property the
durability subsystem promises:

    ``recover(dir)`` yields an index whose range-query results and object
    count match an uncrashed run over the acknowledged prefix.

With ``sync="always"`` the acknowledged prefix *is* the durable prefix:
``log_update`` returning means the record is fsynced, so the harness's
count of acknowledged updates is exactly what recovery must reproduce.

The matrix covers the lazy R-tree, the CT-R-tree, and a 4-shard engine
(one WAL like the others, replayed through the restored shard router).
"""

import random

import pytest

from repro.core.geometry import Rect
from repro.durability import (
    DurabilityManager,
    FaultInjector,
    InjectedCrash,
    corrupt_record,
    drop_segment,
    recover,
    tear_tail,
    write_checkpoint,
)
from repro.engine import IndexKind, ShardedIndex, make_index
from repro.storage.pager import Pager
from tests.conftest import brute_force_range, random_points
from tests.test_engine import small_histories

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))
N_OBJECTS = 16
N_UPDATES = 48
QUERIES = [
    Rect((0.0, 0.0), (50.0, 50.0)),
    Rect((25.0, 25.0), (100.0, 100.0)),
    Rect((10.0, 40.0), (90.0, 70.0)),
    DOMAIN,
]

#: The acceptance matrix: a lazy R-tree, a CT-R-tree, a 4-shard engine.
KINDS = [IndexKind.LAZY, IndexKind.CT, "sharded4"]


def build_index(kind):
    if kind == "sharded4":
        return ShardedIndex(IndexKind.LAZY, DOMAIN, 4)
    rng = random.Random(99)
    if kind == IndexKind.CT:
        return make_index(
            IndexKind.CT, Pager(), DOMAIN, histories=small_histories(rng)
        )
    return make_index(kind, Pager(), DOMAIN)


def make_stream(seed=7):
    """Deterministic workload: initial positions + an update stream."""
    rng = random.Random(seed)
    positions = random_points(rng, N_OBJECTS)
    updates = []
    for i in range(N_UPDATES):
        updates.append(
            (
                i % N_OBJECTS,
                (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
                float(i + 1),
            )
        )
    return positions, updates


def logged_run(
    kind,
    directory,
    *,
    fault=None,
    checkpoint_at=None,
    segment_bytes=1 << 20,
):
    """Run the workload under a WAL until it completes or the fault fires.

    Mirrors the driver's unbuffered path: log (acknowledge) first, apply
    second.  Returns ``(index, acked, manager)`` where ``acked`` is the
    number of updates whose ``log_update`` returned -- the durable prefix
    under ``sync="always"``.
    """
    positions, updates = make_stream()
    index = build_index(kind)
    manager = DurabilityManager(
        directory, sync="always", fault=fault, segment_bytes=segment_bytes
    )
    manager.attach(index)
    ledger = {}
    for oid, point in positions.items():
        index.insert(oid, point, now=0.0)
        ledger[oid] = point
    manager.checkpoint()  # the baseline covering the (unlogged) bulk load
    acked = 0
    try:
        for step, (oid, new, t) in enumerate(updates):
            old = ledger[oid]
            manager.log_update(oid, old, new, t)
            acked += 1
            index.update(oid, old, new, now=t)
            manager.note_applied(1)
            ledger[oid] = new
            if checkpoint_at is not None and step + 1 == checkpoint_at:
                manager.checkpoint()
    except InjectedCrash:
        pass
    return index, acked, manager


def expected_positions(n_applied):
    """The oracle: load positions overlaid with the first ``n_applied``
    updates -- what an uncrashed run over the durable prefix would hold."""
    positions, updates = make_stream()
    state = dict(positions)
    for oid, new, _t in updates[:n_applied]:
        state[oid] = new
    return state


def assert_matches_prefix(index, n_applied):
    state = expected_positions(n_applied)
    assert len(index) == N_OBJECTS
    for rect in QUERIES:
        got = sorted(oid for oid, _ in index.range_search(rect))
        assert got == brute_force_range(state, rect), rect


class TestCrashPoints:
    """Live crashes injected at a physical event, per index family."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("crash_on_append,torn_bytes", [(12, 0), (30, 4)])
    def test_crash_mid_append(self, tmp_path, kind, crash_on_append, torn_bytes):
        fault = FaultInjector(
            crash_on_append=crash_on_append, torn_bytes=torn_bytes
        )
        _, acked, _ = logged_run(kind, tmp_path, fault=fault)
        assert acked < N_UPDATES  # the crash really happened
        recovered, report = recover(tmp_path)
        assert report.records_replayed == acked
        assert_matches_prefix(recovered, acked)

    @pytest.mark.parametrize("kind", KINDS)
    def test_mid_stream_checkpoint_bounds_replay(self, tmp_path, kind):
        # A checkpoint taken mid-stream moves the replay floor: recovery
        # starts from it and replays only the tail logged afterwards.
        fault = FaultInjector(crash_on_append=45, torn_bytes=2)
        _, acked, _ = logged_run(kind, tmp_path, fault=fault, checkpoint_at=24)
        assert 24 < acked < N_UPDATES
        recovered, report = recover(tmp_path)
        assert report.checkpoint_ordinal == 2
        assert report.records_replayed == acked - 24
        assert_matches_prefix(recovered, acked)

    @pytest.mark.parametrize("kind", KINDS)
    def test_crash_mid_checkpoint_falls_back(self, tmp_path, kind):
        # The baseline checkpoint succeeds (the injector starts unarmed);
        # the end-of-run checkpoint then dies after its tmp file is fully
        # written but before the atomic rename publishes it.
        fault = FaultInjector()
        _, acked, manager = logged_run(kind, tmp_path, fault=fault)
        assert acked == N_UPDATES
        fault.crash_on_checkpoint_replace = True
        with pytest.raises(InjectedCrash):
            manager.checkpoint()
        # The tmp file exists; the published set still ends at the baseline.
        assert any(p.name.endswith(".tmp") for p in tmp_path.iterdir())
        recovered, report = recover(tmp_path)
        assert report.checkpoint_ordinal == 1  # fell back to the baseline
        assert report.records_replayed == N_UPDATES
        assert report.tmp_files_removed >= 1
        assert_matches_prefix(recovered, N_UPDATES)

    @pytest.mark.parametrize("kind", KINDS)
    def test_crash_post_checkpoint_pre_truncate(self, tmp_path, kind):
        # A checkpoint is published but the process dies before the WAL
        # truncation pass: every record is covered, none may be replayed
        # twice, and repair retires the now-redundant segments.
        index, acked, manager = logged_run(kind, tmp_path)
        assert acked == N_UPDATES
        write_checkpoint(index, tmp_path, covered_seq=manager.last_seq)
        recovered, report = recover(tmp_path)
        assert report.records_replayed == 0
        assert report.records_skipped > 0  # the covered tail was read
        assert report.segments_truncated >= 1  # ...and retired by repair
        assert_matches_prefix(recovered, N_UPDATES)

    @pytest.mark.parametrize("kind", KINDS)
    def test_recovery_is_idempotent_after_repair(self, tmp_path, kind):
        fault = FaultInjector(crash_on_append=20, torn_bytes=3)
        _, acked, _ = logged_run(kind, tmp_path, fault=fault)
        _, report1 = recover(tmp_path)
        second, report2 = recover(tmp_path)
        assert report2.records_replayed == report1.records_replayed
        assert not report2.torn_tail  # repair trimmed the debris
        assert_matches_prefix(second, acked)


class TestPostMortemDamage:
    """File surgery on a completed (uncrashed, uncheckpointed-tail) run."""

    def _complete_run(self, tmp_path, kind=IndexKind.LAZY):
        _, acked, manager = logged_run(kind, tmp_path)
        manager.close()
        assert acked == N_UPDATES
        return acked

    def test_torn_tail_loses_only_the_last_record(self, tmp_path):
        self._complete_run(tmp_path)
        tear_tail(tmp_path, nbytes=3)
        recovered, report = recover(tmp_path)
        assert report.torn_tail
        assert report.records_replayed == N_UPDATES - 1
        assert_matches_prefix(recovered, N_UPDATES - 1)

    def test_corrupt_record_truncates_history_there(self, tmp_path):
        self._complete_run(tmp_path)
        # Record 0 in the segment is the baseline CHECKPOINT marker, so
        # corrupting record 10 leaves 9 replayable updates.
        corrupt_record(tmp_path, 10)
        recovered, report = recover(tmp_path)
        assert report.corrupt_segments == 1
        assert report.records_replayed == 9
        # Records past the CRC failure never even enter the ledger (the
        # scan stops there); the report flags the damage as a gap instead.
        assert report.gap_at_seq == 11
        assert_matches_prefix(recovered, 9)

    def test_missing_shard_segment_stops_at_the_gap(self, tmp_path):
        # Small segments force rotation so a *middle* segment can go
        # missing -- a numbering gap the directory scan reports directly.
        _, _acked, manager = logged_run("sharded4", tmp_path, segment_bytes=256)
        manager.close()
        from repro.durability import list_segments

        numbers = [n for n, _ in list_segments(tmp_path)]
        assert len(numbers) >= 3
        drop_segment(tmp_path, numbers[1])
        recovered, report = recover(tmp_path)
        assert report.missing_segments == [numbers[1]]
        assert report.gap_at_seq > 0
        assert 0 < report.records_replayed < N_UPDATES
        # Whatever prefix survived must still be consistent.
        assert_matches_prefix(recovered, report.records_replayed)

    def test_wal_only_recovery_needs_a_factory(self, tmp_path):
        from repro.durability import RecoveryError

        self._complete_run(tmp_path)
        for path in tmp_path.iterdir():
            if path.name.startswith("checkpoint-"):
                path.unlink()
        with pytest.raises(RecoveryError):
            recover(tmp_path)
        recovered, report = recover(
            tmp_path, index_factory=lambda: build_index(IndexKind.LAZY)
        )
        # No checkpoint means the bulk load is gone too, but every object
        # is updated during the stream, so the upsert replay materializes
        # all of them at their final oracle positions.
        assert report.checkpoint_ordinal == 0
        assert report.records_replayed == N_UPDATES
        assert_matches_prefix(recovered, N_UPDATES)
