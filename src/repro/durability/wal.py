"""The write-ahead log: append-only, CRC-checksummed, length-prefixed.

PR 2's coalescing :class:`~repro.engine.buffer.UpdateBuffer` wins its I/O
savings by keeping acknowledged work in memory -- which a crash silently
loses.  The WAL closes that hole the way the LSM-based R-tree line of work
does (Shin et al.): every update is appended to an on-disk log *before* it
is acknowledged, so recovery can replay the tail that never reached the
index pages.

On-disk format (one or more segment files, ``wal-<n>.log``)::

    +----------------+----------------+------------------+
    | length (u32 LE)| crc32 (u32 LE) | payload bytes    |
    +----------------+----------------+------------------+

The payload is compact JSON -- the repo's no-pickle rule applies to the log
exactly as it does to snapshots (data only, never code).  Each record
carries a monotone sequence number ``seq``; checkpoints record the highest
``seq`` they cover, and recovery replays only records past it, stopping at
the first gap in the sequence (a torn tail, a corrupted record, or a
missing segment all surface as a gap).

Sync policies (the durability/throughput dial):

* ``always``   -- fsync after every append (no acknowledged record is ever
  lost; one fsync per update);
* ``group:N``  -- group commit: fsync once every N appends (amortized
  fsyncs; a crash loses at most the last unsynced group);
* ``onflush``  -- fsync only at flush/checkpoint markers (cheapest; bounds
  loss to one buffer flush interval).

Segment rotation keeps individual files small so checkpoint-driven
truncation can drop covered history file-by-file.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry, get_registry

#: Frame header: payload length and CRC32 of the payload, little-endian.
_HEADER = struct.Struct("<II")

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"


class WalOp:
    """Record types (mirrors the ``IndexKind`` string-constant idiom)."""

    INSERT = "ins"
    UPDATE = "upd"
    DELETE = "del"
    FLUSH = "flush"  # an UpdateBuffer drained into the index
    CHECKPOINT = "ckpt"  # a checkpoint covering every earlier seq was taken

    DATA = (INSERT, UPDATE, DELETE)
    MARKERS = (FLUSH, CHECKPOINT)


class WalError(RuntimeError):
    """Raised for malformed WAL state the caller must not ignore."""


@dataclass(frozen=True)
class WalRecord:
    """One logical log entry (decoded form of one frame payload).

    ``client``/``rid`` are the optional idempotency stamp a serving write
    carries (``repro.resilience``): retries of one logical write share one
    ``(client, rid)`` pair, so recovery can rebuild the dedup watermark and
    the chaos harness can prove no pair was applied twice.  Pre-stamp logs
    decode fine -- both keys are absent and default to ``None``.
    """

    op: str
    seq: int
    t: Optional[float] = None
    oid: Optional[int] = None
    point: Optional[Tuple[float, ...]] = None
    old_point: Optional[Tuple[float, ...]] = None
    client: Optional[str] = None
    rid: Optional[int] = None

    def to_payload(self) -> bytes:
        doc: Dict[str, object] = {"op": self.op, "seq": self.seq}
        if self.t is not None:
            doc["t"] = self.t
        if self.oid is not None:
            doc["oid"] = self.oid
        if self.point is not None:
            doc["pt"] = list(self.point)
        if self.old_point is not None:
            doc["old"] = list(self.old_point)
        if self.client is not None:
            doc["cl"] = self.client
        if self.rid is not None:
            doc["rid"] = self.rid
        return json.dumps(doc, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "WalRecord":
        try:
            doc = json.loads(payload.decode("utf-8"))
            return cls(
                op=doc["op"],
                seq=doc["seq"],
                t=doc.get("t"),
                oid=doc.get("oid"),
                point=None if doc.get("pt") is None else tuple(doc["pt"]),
                old_point=None if doc.get("old") is None else tuple(doc["old"]),
                client=doc.get("cl"),
                rid=doc.get("rid"),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise WalError(f"undecodable WAL payload: {exc}") from exc

    def to_frame(self) -> bytes:
        payload = self.to_payload()
        return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass(frozen=True)
class SyncPolicy:
    """When appends reach the platter: ``always`` / ``group:N`` / ``onflush``."""

    mode: str = "group"
    every: int = 8

    ALWAYS = "always"
    GROUP = "group"
    ON_FLUSH = "onflush"

    def __post_init__(self) -> None:
        if self.mode not in (self.ALWAYS, self.GROUP, self.ON_FLUSH):
            raise ValueError(f"unknown sync mode {self.mode!r}")
        if self.mode == self.GROUP and self.every < 1:
            raise ValueError("group commit size must be >= 1")

    @classmethod
    def parse(cls, spec: Union[str, "SyncPolicy"]) -> "SyncPolicy":
        """``"always"`` | ``"group:N"`` | ``"onflush"`` -> policy."""
        if isinstance(spec, SyncPolicy):
            return spec
        text = spec.strip().lower()
        if text == cls.ALWAYS:
            return cls(mode=cls.ALWAYS)
        if text == cls.ON_FLUSH:
            return cls(mode=cls.ON_FLUSH)
        if text.startswith("group"):
            _, _, n = text.partition(":")
            return cls(mode=cls.GROUP, every=int(n) if n else 8)
        raise ValueError(
            f"unknown sync policy {spec!r}; expected always, group:N, or onflush"
        )

    def spec(self) -> str:
        return f"group:{self.every}" if self.mode == self.GROUP else self.mode

    def sync_after(self, pending: int, op: str) -> bool:
        if self.mode == self.ALWAYS:
            return True
        if self.mode == self.GROUP:
            return pending >= self.every
        return op in WalOp.MARKERS  # onflush: markers are the commit points


@dataclass
class WalStats:
    """Lifetime tallies of one log (monotone, JSON-ready)."""

    appends: int = 0
    fsyncs: int = 0
    bytes_written: int = 0
    rotations: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "appends": self.appends,
            "fsyncs": self.fsyncs,
            "bytes_written": self.bytes_written,
            "rotations": self.rotations,
        }


def segment_path(directory: Path, number: int) -> Path:
    return directory / f"{SEGMENT_PREFIX}{number:08d}{SEGMENT_SUFFIX}"


def segment_number(path: Path) -> int:
    stem = path.name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError as exc:
        raise WalError(f"not a WAL segment name: {path.name}") from exc


def list_segments(directory: Union[str, Path]) -> List[Tuple[int, Path]]:
    """``(number, path)`` for every segment in ``directory``, ascending."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for path in directory.iterdir():
        if path.name.startswith(SEGMENT_PREFIX) and path.name.endswith(
            SEGMENT_SUFFIX
        ):
            found.append((segment_number(path), path))
    return sorted(found)


@dataclass
class SegmentScan:
    """What a best-effort read of one segment file yielded."""

    path: Path
    records: List[WalRecord] = field(default_factory=list)
    #: End byte offset of each decoded record (parallel to ``records``).
    end_offsets: List[int] = field(default_factory=list)
    #: Bytes of the valid record prefix (truncation point for repair).
    valid_bytes: int = 0
    #: A partial frame at EOF: the expected torn-write shape, not corruption.
    torn_tail: bool = False
    #: A complete frame whose CRC (or payload) did not verify; scanning
    #: stops there -- framing past a bad record cannot be trusted.
    corrupt: bool = False


def scan_segment(path: Union[str, Path]) -> SegmentScan:
    """Decode the valid record prefix of one segment.

    Tolerant by construction: a short header or short payload at EOF is a
    torn tail (the crash the WAL exists to survive); a CRC mismatch is
    corruption.  Either way the scan stops and reports how many bytes were
    trustworthy.
    """
    path = Path(path)
    scan = SegmentScan(path=path)
    data = path.read_bytes()
    offset = 0
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            scan.torn_tail = True
            break
        length, crc = _HEADER.unpack_from(data, offset)
        payload = data[offset + _HEADER.size : offset + _HEADER.size + length]
        if len(payload) < length:
            scan.torn_tail = True
            break
        if zlib.crc32(payload) != crc:
            scan.corrupt = True
            break
        try:
            scan.records.append(WalRecord.from_payload(payload))
        except WalError:
            scan.corrupt = True
            break
        offset += _HEADER.size + length
        scan.end_offsets.append(offset)
        scan.valid_bytes = offset
    return scan


class WriteAheadLog:
    """An append-only record log over rotating segment files.

    A writer never appends to a pre-existing segment: reopening a directory
    (e.g. after a crash that recovery chose not to repair) starts a fresh
    segment, so a torn tail in an old file can never be written *past*.
    Sequence numbers continue from the highest found on disk unless the
    owner (a :class:`~repro.durability.manager.DurabilityManager` with a
    global sequence) supplies them explicitly.

    Args:
        directory: segment directory (created if missing).
        sync: a :class:`SyncPolicy` or its string spec.
        segment_bytes: rotate to a new segment once the current one reaches
            this size (checked after each append).
        fault: optional :class:`~repro.durability.faults.FaultInjector`;
            every physical frame write and fsync is routed through it.
        metrics: observability sink (defaults to the global registry, which
            is disabled unless an entry point opted in).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        sync: Union[str, SyncPolicy] = "group:8",
        segment_bytes: int = 1 << 20,
        fault=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sync_policy = SyncPolicy.parse(sync)
        self.segment_bytes = segment_bytes
        self.stats = WalStats()
        self.metrics = metrics if metrics is not None else get_registry()
        self._fault = fault
        self._pending_sync = 0
        self._closed = False

        existing = list_segments(self.directory)
        self._segment = (existing[-1][0] + 1) if existing else 1
        self._next_seq = 1
        for _, path in existing:
            scanned = scan_segment(path)
            if scanned.records:
                self._next_seq = max(
                    self._next_seq, scanned.records[-1].seq + 1
                )
        self._fh = open(segment_path(self.directory, self._segment), "ab")

    # -- writing ---------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """The highest sequence number this writer has appended (0 if none)."""
        return self._next_seq - 1

    @property
    def segment(self) -> int:
        return self._segment

    def append(
        self,
        op: str,
        *,
        oid: Optional[int] = None,
        point: Optional[Tuple[float, ...]] = None,
        old_point: Optional[Tuple[float, ...]] = None,
        t: Optional[float] = None,
        seq: Optional[int] = None,
        client: Optional[str] = None,
        rid: Optional[int] = None,
    ) -> int:
        """Append one record; returns its sequence number.

        The record is durable per the sync policy -- ``always`` means it hit
        the platter before this returns; group/onflush mean it is staged.
        """
        if self._closed:
            raise WalError("append to a closed WAL")
        if seq is None:
            seq = self._next_seq
        self._next_seq = max(self._next_seq, seq + 1)
        record = WalRecord(
            op=op, seq=seq, t=t, oid=oid, point=point, old_point=old_point,
            client=client, rid=rid,
        )
        frame = record.to_frame()
        if self._fault is not None:
            self._fault.write_frame(self._fh, frame)
        else:
            self._fh.write(frame)
        self.stats.appends += 1
        self.stats.bytes_written += len(frame)
        self._pending_sync += 1
        if self.metrics.enabled:
            self.metrics.inc("wal.appends")
            self.metrics.inc("wal.bytes", len(frame))
        if self.sync_policy.sync_after(self._pending_sync, op):
            self.sync()
        if self._fh.tell() >= self.segment_bytes:
            self.rotate()
        return seq

    def sync(self) -> None:
        """Flush and fsync the active segment (one group commit)."""
        if self._pending_sync == 0:
            return
        if self._fault is not None:
            self._fault.before_sync()
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.stats.fsyncs += 1
        if self.metrics.enabled:
            self.metrics.inc("wal.fsyncs")
            self.metrics.observe("wal.group_commit_records", self._pending_sync)
        self._pending_sync = 0

    def rotate(self) -> int:
        """Close the active segment and open the next one."""
        self.sync()
        self._fh.close()
        self._segment += 1
        self._fh = open(segment_path(self.directory, self._segment), "ab")
        self.stats.rotations += 1
        return self._segment

    def truncate_covered(self, covered_seq: int) -> int:
        """Delete closed segments wholly covered by a checkpoint.

        A segment is obsolete when every record in it has ``seq <=
        covered_seq``; the active segment is never deleted.  Returns the
        number of segments removed.
        """
        removed = 0
        for number, path in list_segments(self.directory):
            if number == self._segment:
                continue
            scanned = scan_segment(path)
            if scanned.records and scanned.records[-1].seq > covered_seq:
                continue
            if scanned.torn_tail or scanned.corrupt:
                # A damaged segment is recovery's to repair, not ours.
                continue
            path.unlink()
            removed += 1
        return removed

    def close(self) -> None:
        if self._closed:
            return
        try:
            self.sync()
        finally:
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(dir={str(self.directory)!r}, "
            f"segment={self._segment}, last_seq={self.last_seq}, "
            f"sync={self.sync_policy.spec()!r})"
        )


@dataclass
class DirectoryScan:
    """Every decodable record in a WAL directory, plus damage observed."""

    records: List[WalRecord] = field(default_factory=list)
    torn_tail: bool = False
    corrupt_segments: int = 0
    missing_segments: List[int] = field(default_factory=list)
    segments: int = 0


def scan_directory(directory: Union[str, Path]) -> DirectoryScan:
    """Scan every segment in order; damage stops *that* segment only.

    Cross-segment ordering trusts the per-record sequence numbers (recovery
    enforces contiguity), so a scan keeps reading later segments even when
    an earlier one is damaged -- the seq gap, not the scan, decides what is
    replayable.
    """
    result = DirectoryScan()
    segments = list_segments(directory)
    result.segments = len(segments)
    previous_number: Optional[int] = None
    for number, path in segments:
        if previous_number is not None and number != previous_number + 1:
            result.missing_segments.extend(range(previous_number + 1, number))
        previous_number = number
        scanned = scan_segment(path)
        result.records.extend(scanned.records)
        if scanned.torn_tail:
            result.torn_tail = True
        if scanned.corrupt:
            result.corrupt_segments += 1
    return result


def iter_data_records(records: List[WalRecord]) -> Iterator[WalRecord]:
    """The insert/update/delete records of a scan, markers skipped."""
    for record in records:
        if record.op in WalOp.DATA:
            yield record
