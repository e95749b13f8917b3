"""Durability: write-ahead logging, checkpointing, crash recovery, faults.

The in-memory levers that make the engine fast (the coalescing update
buffer, lazily-updated structures) are exactly the state a crash loses;
this package closes the loop:

* :mod:`repro.durability.wal` -- the append-only, CRC-checksummed,
  length-prefixed record log with ``always``/``group:N``/``onflush`` sync
  policies and segment rotation;
* :mod:`repro.durability.checkpoint` -- atomic checkpoints (tmp + fsync +
  rename) embedding the generic snapshot document plus the WAL sequence
  they cover, with retention and segment truncation;
* :mod:`repro.durability.recovery` -- ``recover(dir)``: newest valid
  checkpoint + seq-ordered WAL replay, tolerant of torn tails, with a
  :class:`RecoveryReport` audit trail;
* :mod:`repro.durability.manager` -- the :class:`DurabilityManager` the
  driver/CLI hold (one log per directory, sharded engine or not;
  automatic checkpoint cadence);
* :mod:`repro.durability.faults` -- deterministic fault injection (crash at
  the Nth write, torn tails, CRC corruption, lost segments) for the
  recovery test suite.
"""

from repro.durability.checkpoint import (
    CheckpointError,
    CheckpointInfo,
    clean_stale_tmp,
    list_checkpoints,
    load_latest_checkpoint,
    next_ordinal,
    read_checkpoint,
    read_checkpoint_info,
    write_checkpoint,
)
from repro.durability.faults import (
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    InjectedCrash,
    append_corrupt_frame,
    append_torn_frame,
    corrupt_record,
    drop_segment,
    tear_tail,
)
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import (
    RecoveryError,
    RecoveryReport,
    recover,
)
from repro.durability.wal import (
    SyncPolicy,
    WalOp,
    WalRecord,
    WalStats,
    WriteAheadLog,
    list_segments,
    scan_directory,
    scan_segment,
)

__all__ = [
    "CheckpointError",
    "CheckpointInfo",
    "clean_stale_tmp",
    "list_checkpoints",
    "load_latest_checkpoint",
    "next_ordinal",
    "read_checkpoint",
    "read_checkpoint_info",
    "write_checkpoint",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "append_corrupt_frame",
    "append_torn_frame",
    "InjectedCrash",
    "corrupt_record",
    "drop_segment",
    "tear_tail",
    "DurabilityManager",
    "RecoveryError",
    "RecoveryReport",
    "recover",
    "SyncPolicy",
    "WalOp",
    "WalRecord",
    "WalStats",
    "WriteAheadLog",
    "list_segments",
    "scan_directory",
    "scan_segment",
]
