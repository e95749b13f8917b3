"""Crash recovery: newest valid checkpoint + WAL tail replay.

``recover(dir)`` rebuilds the index a crashed process would have served:

1. load the newest *valid* checkpoint (damaged ones fall back to older);
2. scan the directory's one WAL -- the same flat segment layout whether
   it logged a single index or a sharded engine -- into a ledger ordered
   by sequence number;
3. replay every data record past the checkpoint's ``covered_seq`` through
   the index (a sharded engine's restored router re-derives every
   cross-shard move from its owner map), in ``(t, seq)`` order (seq order
   *is* timestamp order: the driver logs in stream order), stopping at
   the first sequence gap -- a torn final record, a corrupted record, or
   a missing segment all surface as a gap, so nothing past a hole is
   ever applied out of order;
4. optionally repair the directory: trim damaged tails to their valid
   prefix, drop records beyond the gap (they are unreachable forever),
   delete segments wholly covered by the checkpoint, and remove stale
   ``*.tmp`` leftovers -- leaving a directory a fresh writer can append to.

The returned :class:`RecoveryReport` is the audit trail the fault-injection
suite asserts against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple, Union

from repro.durability.checkpoint import (
    CheckpointInfo,
    clean_stale_tmp,
    load_latest_checkpoint,
)
from repro.durability.wal import (
    WalOp,
    WalRecord,
    list_segments,
    scan_directory,
    scan_segment,
)
from repro.obs.metrics import get_registry


class RecoveryError(RuntimeError):
    """Raised when no starting state (checkpoint or factory) exists."""


@dataclass
class RecoveryReport:
    """What recovery found, replayed, and cleaned up."""

    checkpoint_ordinal: int = 0
    checkpoint_seq: int = 0
    kind: str = ""
    records_replayed: int = 0
    #: Records read but not applied: already covered by the checkpoint,
    #: duplicates, or stranded past a sequence gap.
    records_skipped: int = 0
    #: Segments deleted (covered by the checkpoint) plus tails trimmed.
    segments_truncated: int = 0
    torn_tail: bool = False
    corrupt_segments: int = 0
    missing_segments: List[int] = field(default_factory=list)
    #: First sequence number missing from the replayable ledger (0 = none).
    gap_at_seq: int = 0
    tmp_files_removed: int = 0
    replay_s: float = 0.0
    #: Post-recovery structural verification (the health layer's fsck):
    #: None when verification was skipped or unavailable.
    verify_ok: Optional[bool] = None
    verify_violations: List[str] = field(default_factory=list)
    #: ``app_state`` dict of the loaded checkpoint (``None`` when absent):
    #: application state -- e.g. the serving dedup watermark -- that the
    #: checkpoint carried past its WAL truncation.
    app_state: Optional[Dict[str, object]] = None
    #: ``(client, rid, seq)`` idempotency stamps of the *replayed* data
    #: records, in replay order -- the WAL-tail half of rebuilding the
    #: dedup journal after a restart (``app_state`` holds the other half).
    dedup_records: List[Tuple[str, int, int]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "checkpoint_ordinal": self.checkpoint_ordinal,
            "checkpoint_seq": self.checkpoint_seq,
            "kind": self.kind,
            "records_replayed": self.records_replayed,
            "records_skipped": self.records_skipped,
            "segments_truncated": self.segments_truncated,
            "torn_tail": self.torn_tail,
            "corrupt_segments": self.corrupt_segments,
            "missing_segments": list(self.missing_segments),
            "gap_at_seq": self.gap_at_seq,
            "tmp_files_removed": self.tmp_files_removed,
            "replay_s": self.replay_s,
            "verify_ok": self.verify_ok,
            "verify_violations": list(self.verify_violations),
            "dedup_records": len(self.dedup_records),
        }


def reject_per_shard_layout(directory: Path) -> None:
    """Refuse a directory written by the retired one-log-per-shard layout.

    Its acked records sit in ``shard-<id>/`` subdirectories that neither
    recovery nor a new writer reads: replay would silently return the
    bare checkpoint.
    """
    for child in sorted(directory.iterdir()):
        if child.name.startswith("shard-") and list_segments(child):
            raise RecoveryError(
                f"{directory} keeps WAL segments under {child.name}/: the "
                "retired one-log-per-shard layout, which this release "
                "cannot replay"
            )


def _apply_record(index, kind: str, record: WalRecord) -> None:
    if record.op == WalOp.INSERT:
        index.insert(record.oid, record.point, now=record.t)
    elif record.op == WalOp.UPDATE:
        try:
            index.update(record.oid, record.old_point, record.point, now=record.t)
        except KeyError:
            # Upsert: in a WAL-only recovery (checkpoint lost, empty index
            # from the factory) the object's insert was never logged -- the
            # driver bulk-loads it -- so its first update materializes it.
            index.insert(record.oid, record.point, now=record.t)
    elif record.op == WalOp.DELETE:
        _delete_record(index, kind, record)
    else:
        raise RecoveryError(f"cannot replay op {record.op!r}")


def _delete_record(index, kind: str, record: WalRecord) -> None:
    if kind == "sharded":
        index.delete(record.oid, record.old_point, now=record.t)
        return
    # The registry's capability adapter knows each family's delete shape.
    from repro.engine.registry import get_spec

    try:
        spec = get_spec(kind)
    except ValueError:
        index.delete(record.oid)
        return
    spec.delete(index, record.oid, record.old_point, record.t)


def recover(
    directory: Union[str, Path],
    *,
    index_factory=None,
    repair: bool = True,
    verify: bool = True,
):
    """Rebuild the index from ``directory`` -> ``(index, RecoveryReport)``.

    Args:
        directory: the durability directory (checkpoints at the top level,
            WAL segments beside them).
        index_factory: zero-argument callable building the empty index when
            no valid checkpoint exists (a WAL-only recovery); without it,
            a checkpointless directory raises :class:`RecoveryError`.
        repair: trim torn tails, drop unreachable post-gap records, delete
            covered segments and stale tmp files, so a fresh
            :class:`~repro.durability.manager.DurabilityManager` can take
            over the directory.
        verify: run the health layer's structural verifier over the
            recovered index; the verdict lands in ``report.verify_ok`` /
            ``report.verify_violations`` (never raises -- a crash should
            still hand back whatever state replay could assemble).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise RecoveryError(f"no such durability directory: {directory}")
    reject_per_shard_layout(directory)
    t0 = perf_counter()
    report = RecoveryReport()

    loaded = load_latest_checkpoint(directory)
    if loaded is not None:
        index, info = loaded
        report.checkpoint_ordinal = info.ordinal
        report.checkpoint_seq = info.covered_seq
        report.kind = info.kind
        report.app_state = info.app_state
    elif index_factory is not None:
        index = index_factory()
        info = None
        from repro.storage.snapshot import SnapshotError, index_kind_of

        try:
            report.kind = index_kind_of(index)
        except SnapshotError:
            report.kind = type(index).__name__
    else:
        raise RecoveryError(
            f"{directory} holds no valid checkpoint and no index_factory "
            "was supplied"
        )

    scan = scan_directory(directory)
    records = sorted(scan.records, key=lambda r: r.seq)
    report.torn_tail = scan.torn_tail
    report.corrupt_segments = scan.corrupt_segments
    report.missing_segments = scan.missing_segments

    covered = report.checkpoint_seq
    expected = covered + 1
    last_good = covered
    stopped = False
    for position, record in enumerate(records):
        if record.seq <= covered or record.seq < expected:
            report.records_skipped += 1  # covered by checkpoint / duplicate
            continue
        if record.seq != expected:
            # A hole: torn tail, corruption, or a lost segment.  Nothing
            # past it can be applied without reordering history.
            report.gap_at_seq = expected
            report.records_skipped += len(records) - position
            stopped = True
            break
        if record.op in WalOp.DATA:
            _apply_record(index, report.kind, record)
            report.records_replayed += 1
            if record.client is not None and record.rid is not None:
                report.dedup_records.append(
                    (record.client, record.rid, record.seq)
                )
        last_good = record.seq
        expected = record.seq + 1
    if not stopped and (report.torn_tail or report.corrupt_segments):
        # Damage at the very tail: no complete record was lost, but note
        # where the ledger ends so repair can trim the debris.
        report.gap_at_seq = expected

    if repair:
        report.tmp_files_removed = clean_stale_tmp(directory)
        report.segments_truncated = _repair_wal_dir(
            directory, covered_seq=covered, last_good_seq=last_good
        )

    if verify:
        # Function-level import: durability must stay importable without
        # the health layer (dependency points health -> durability-free).
        from repro.health.verify import verify_index

        try:
            verdict = verify_index(index)
        except Exception as exc:  # diagnostics must not mask recovery
            report.verify_ok = None
            report.verify_violations = [f"verifier crashed: {exc!r}"]
        else:
            report.verify_ok = verdict.ok
            report.verify_violations = [str(v) for v in verdict.violations]

    report.replay_s = perf_counter() - t0
    registry = get_registry()
    if registry.enabled:
        registry.record_duration("durability.recovery.replay_s", report.replay_s)
        registry.inc("durability.recovery.records_replayed", report.records_replayed)
        if report.verify_ok is not None:
            registry.inc(
                "durability.recovery.verify_ok"
                if report.verify_ok
                else "durability.recovery.verify_failed"
            )
    return index, report


def _repair_wal_dir(
    wal_dir: Path, *, covered_seq: int, last_good_seq: int
) -> int:
    """Make ``wal_dir`` consistent with the recovered state.

    Deletes segments wholly covered by the checkpoint, and truncates every
    remaining segment to the prefix of records with ``seq <=
    last_good_seq`` (within one log, sequence numbers are monotone, so the
    keep-prefix is well-defined).  Returns segments deleted + trimmed.
    """
    changed = 0
    for _number, path in list_segments(wal_dir):
        scan = scan_segment(path)
        if (
            scan.records
            and scan.records[-1].seq <= covered_seq
            and not scan.torn_tail
            and not scan.corrupt
        ):
            path.unlink()
            changed += 1
            continue
        keep_bytes = 0
        for record, end_offset in zip(scan.records, scan.end_offsets):
            if record.seq <= last_good_seq:
                keep_bytes = end_offset
        if keep_bytes < path.stat().st_size:
            with open(path, "r+b") as fh:
                fh.truncate(keep_bytes)
            changed += 1
    return changed
