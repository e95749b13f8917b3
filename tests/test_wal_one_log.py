"""One write-ahead log per durability directory, whatever index it serves.

A sharded engine logs to the same single segment directory as an unsharded
index, so the ``group:N`` loss bound -- at most N-1 acknowledged records at
risk -- holds for both.  The crash images here are copies of the live
directory taken while the manager is still open: exactly what a SIGKILL
leaves on disk (synced frames only; the unsynced group sits in the
process's write buffer).
"""

import shutil

import pytest

from repro.durability import (
    DurabilityManager,
    RecoveryError,
    WalOp,
    WriteAheadLog,
    list_segments,
    recover,
    write_checkpoint,
)
from repro.engine import IndexKind, ShardedIndex, make_index
from repro.storage.pager import Pager
from tests.test_recovery_faults import DOMAIN, N_UPDATES, make_stream

GROUP = 8


def build(shards):
    if shards == 1:
        return make_index(IndexKind.LAZY, Pager(), DOMAIN)
    return ShardedIndex(IndexKind.LAZY, DOMAIN, shards)


def crash_images(shards, root):
    """Log-then-apply the stream under ``group:8``, copying the live
    directory after every acked update -> ``{acked: image_dir}``."""
    positions, updates = make_stream()
    index = build(shards)
    live = root / "live"
    manager = DurabilityManager(live, sync=f"group:{GROUP}")
    manager.attach(index)
    ledger = {}
    for oid, point in positions.items():
        index.insert(oid, point, now=0.0)
        ledger[oid] = point
    manager.checkpoint()
    images = {}
    for acked, (oid, new, t) in enumerate(updates, start=1):
        manager.log_update(oid, ledger[oid], new, t)
        index.update(oid, ledger[oid], new, now=t)
        manager.note_applied(1)
        ledger[oid] = new
        images[acked] = root / f"image-{acked:02d}"
        shutil.copytree(live, images[acked])
    manager.close()
    return images


def recovered_positions(image):
    index, report = recover(image)
    return sorted(index.range_search(DOMAIN)), report


def test_sharded_crash_images_lose_no_more_than_unsharded(tmp_path):
    flat = crash_images(1, tmp_path / "flat")
    sharded = crash_images(4, tmp_path / "sharded")
    for acked in range(1, N_UPDATES + 1):
        want, flat_report = recovered_positions(flat[acked])
        got, report = recovered_positions(sharded[acked])
        assert got == want, acked
        assert acked - report.records_replayed <= GROUP - 1, acked
        assert report.records_replayed == flat_report.records_replayed, acked
        assert report.records_skipped == 0, acked
        assert report.verify_ok, (acked, report.verify_violations)


def _old_layout(directory):
    """A directory as the retired per-shard layout left it: the checkpoint
    at the top level, every logged record in a ``shard-<id>/`` log."""
    positions, updates = make_stream()
    index = build(4)
    for oid, point in positions.items():
        index.insert(oid, point, now=0.0)
    write_checkpoint(index, directory, covered_seq=0)
    oid, new, t = updates[0]
    with WriteAheadLog(directory / "shard-02", sync="always") as wal:
        wal.append(
            WalOp.UPDATE, oid=oid, point=new, old_point=positions[oid], t=t,
            seq=1,
        )
    assert not list_segments(directory)


def test_recover_rejects_the_per_shard_layout(tmp_path):
    _old_layout(tmp_path)
    with pytest.raises(RecoveryError, match="shard-02/"):
        recover(tmp_path)


def test_attach_rejects_the_per_shard_layout(tmp_path):
    _old_layout(tmp_path)
    manager = DurabilityManager(tmp_path)
    with pytest.raises(RecoveryError, match="shard-02/"):
        manager.attach(build(4))
    assert not manager.attached

