"""The durability manager: one WAL + checkpoints per directory.

The :class:`DurabilityManager` is the single object the driver, the update
buffer and the CLI hold.  It owns:

* the write-ahead log -- one flat segment directory whatever index it is
  attached to: a :class:`~repro.engine.sharded.ShardedIndex` logs exactly
  like a single index, and replay re-routes each record through the
  restored router;
* checkpointing -- atomic snapshots via the generic kind-tag dispatch,
  recording the covered WAL sequence, retiring obsolete segments, and
  (optionally) firing automatically every ``checkpoint_every`` applied
  records;
* the acknowledgement rule -- logging happens *before* the in-memory state
  change (the update buffer calls :meth:`log_insert`/:meth:`log_update`
  before it buffers; the driver logs before it applies).

The manager satisfies the :class:`~repro.engine.buffer.UpdateLog` protocol,
so ``UpdateBuffer(wal=manager)`` wires buffered runs for free.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.durability.checkpoint import (
    CheckpointInfo,
    list_checkpoints,
    next_ordinal,
    read_checkpoint_info,
    write_checkpoint,
)
from repro.durability.recovery import reject_per_shard_layout
from repro.durability.wal import SyncPolicy, WalOp, WalStats, WriteAheadLog


def _position(point: Optional[Sequence[float]]) -> Optional[Tuple[float, ...]]:
    return None if point is None else tuple(point)


class DurabilityManager:
    """WAL + checkpoint orchestration for one index behind one directory.

    Args:
        directory: where segments and checkpoints live (created if missing).
        sync: WAL sync policy (``always`` / ``group:N`` / ``onflush``).
        checkpoint_every: fire an automatic checkpoint once this many data
            records have been noted applied since the last one (0 = only
            explicit :meth:`checkpoint` calls).
        segment_bytes: WAL segment rotation threshold.
        retain: older checkpoints kept as fallbacks.
        fault: optional :class:`~repro.durability.faults.FaultInjector`
            threaded through every WAL write/fsync and checkpoint publish.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        sync: Union[str, SyncPolicy] = "group:8",
        checkpoint_every: int = 0,
        segment_bytes: int = 1 << 20,
        retain: int = 2,
        fault=None,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sync_policy = SyncPolicy.parse(sync)
        self.checkpoint_every = checkpoint_every
        self.segment_bytes = segment_bytes
        self.retain = retain
        self._fault = fault
        self._index = None
        self._kind: Optional[str] = None
        self._wal: Optional[WriteAheadLog] = None
        self._seq = 0
        self._applied_since_checkpoint = 0
        self.last_checkpoint: Optional[CheckpointInfo] = None
        self.checkpoints_taken = 0
        #: Optional zero-argument callable returning a JSON-safe dict of
        #: application state (e.g. the serving layer's dedup watermark)
        #: embedded in each checkpoint envelope -- state that must survive
        #: the WAL truncation the checkpoint performs.
        self.state_provider = None

    # -- attachment ------------------------------------------------------

    def attach(self, index, *, kind: Optional[str] = None) -> "DurabilityManager":
        """Bind to ``index`` and open the directory's one log."""
        if self._wal is not None:
            raise RuntimeError("DurabilityManager is already attached")
        reject_per_shard_layout(self.directory)
        self._index = index
        self._kind = kind
        self._wal = WriteAheadLog(
            self.directory,
            sync=self.sync_policy,
            segment_bytes=self.segment_bytes,
            fault=self._fault,
        )
        # Continue the sequence past anything already on disk --
        # including the newest checkpoint's covered seq: with every covered
        # segment truncated, the WAL alone would restart numbering inside
        # the covered range and recovery would skip the new records as
        # already applied.
        self._seq = self._wal.last_seq
        for _ordinal, path in reversed(list_checkpoints(self.directory)):
            try:
                info = read_checkpoint_info(path)
            except Exception:
                continue  # damaged checkpoint: recovery's problem, not ours
            self._seq = max(self._seq, info.covered_seq)
            break
        return self

    @property
    def attached(self) -> bool:
        return self._wal is not None

    @property
    def last_seq(self) -> int:
        return self._seq

    def _append(self, op: str, **fields) -> int:
        if self._wal is None:
            raise RuntimeError("DurabilityManager.attach was never called")
        self._seq += 1
        return self._wal.append(op, seq=self._seq, **fields)

    # -- the UpdateLog surface (what the buffer and driver call) ---------

    def log_insert(
        self,
        oid: int,
        point: Sequence[float],
        t: float,
        *,
        client: Optional[str] = None,
        rid: Optional[int] = None,
    ) -> int:
        return self._append(
            WalOp.INSERT, oid=oid, point=_position(point), t=t,
            client=client, rid=rid,
        )

    def log_update(
        self,
        oid: int,
        old_point: Sequence[float],
        point: Sequence[float],
        t: float,
        *,
        client: Optional[str] = None,
        rid: Optional[int] = None,
    ) -> int:
        return self._append(
            WalOp.UPDATE, oid=oid, point=_position(point),
            old_point=_position(old_point), t=t, client=client, rid=rid,
        )

    def log_delete(
        self, oid: int, old_point: Optional[Sequence[float]], t: Optional[float]
    ) -> int:
        return self._append(
            WalOp.DELETE, oid=oid, old_point=_position(old_point), t=t
        )

    def log_flush(self) -> None:
        """Mark a buffer drain; ``onflush`` syncs commit here."""
        self._append(WalOp.FLUSH)

    # -- checkpointing ---------------------------------------------------

    def note_applied(self, n: int) -> None:
        """Tell the manager ``n`` logged records reached the index."""
        self._applied_since_checkpoint += n

    def maybe_checkpoint(self) -> Optional[CheckpointInfo]:
        """Checkpoint if the automatic threshold has been crossed.

        The driver calls this only at quiescent points (no buffered-but-
        unapplied records), which is what makes ``covered_seq = last_seq``
        truthful.
        """
        if (
            self.checkpoint_every
            and self._applied_since_checkpoint >= self.checkpoint_every
        ):
            return self.checkpoint()
        return None

    def checkpoint(self) -> CheckpointInfo:
        """Atomically snapshot the index, then retire covered segments."""
        if self._index is None:
            raise RuntimeError("DurabilityManager.attach was never called")
        covered = self._seq
        # A self-healing wrapper exposes the structure currently serving
        # via ``snapshot_target``; snapshot that, not the wrapper.
        target = getattr(self._index, "snapshot_target", self._index)
        app_state = self.state_provider() if self.state_provider else None
        info = write_checkpoint(
            target,
            self.directory,
            covered_seq=covered,
            ordinal=next_ordinal(self.directory),
            kind=self._kind,
            retain=self.retain,
            fault=self._fault,
            app_state=app_state,
        )
        # The marker makes the checkpoint visible in the log itself; the
        # truncation pass then drops every segment the snapshot covers.
        self._append(WalOp.CHECKPOINT)
        self._wal.sync()
        self._wal.truncate_covered(covered)
        self.last_checkpoint = info
        self.checkpoints_taken += 1
        self._applied_since_checkpoint = 0
        return info

    # -- telemetry / lifecycle -------------------------------------------

    @property
    def stats(self) -> WalStats:
        return WalStats() if self._wal is None else self._wal.stats

    def metrics_dict(self) -> Dict[str, object]:
        return {
            "directory": str(self.directory),
            "sync_policy": self.sync_policy.spec(),
            "checkpoint_every": self.checkpoint_every,
            "last_seq": self._seq,
            "checkpoints_taken": self.checkpoints_taken,
            "covered_seq": (
                self.last_checkpoint.covered_seq if self.last_checkpoint else 0
            ),
            "wal": self.stats.to_dict(),
        }

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DurabilityManager(dir={str(self.directory)!r}, "
            f"sync={self.sync_policy.spec()!r}, last_seq={self._seq}, "
            f"checkpoints={self.checkpoints_taken})"
        )
