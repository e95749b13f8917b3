"""Shared-memory mailbox transport for shard-worker dispatch.

The parallel engine's unit cost is the worker round-trip: serialize a
command, wake the child, serialize the response, wake the parent.  Over a
duplex pipe each direction pays a syscall-bound ``write``/``read`` of the
whole pickle (~75-110µs RTT measured in PR 5).  This module moves the
payload bytes through ``multiprocessing.shared_memory`` instead, so a
dispatch is: pickle into the mapped segment (a memory copy), bump a seqlock
header, and release a semaphore the peer is blocked on.  Only the doorbell
crosses the kernel, and it carries no bytes.

Protocol (single-producer/single-consumer, at most one message in flight
per direction — the engine never pipelines commands to one worker):

* A :class:`ShmMailbox` is one direction: a shared segment laid out as a
  24-byte little-endian header ``(seq, length, flags)`` followed by
  ``capacity`` payload bytes, plus two semaphores: a free-slot token
  (initially 1) and the doorbell (initially 0).
* The writer takes the free-slot token (rendezvous: it blocks until the
  reader consumed the previous message, so a not-yet-drained mailbox is
  never overwritten — e.g. a fire-and-forget shutdown or fault injection
  followed immediately by the next command), bumps ``seq`` to an odd
  value (write in progress), copies the pickle, then publishes ``seq+1``
  (even) with the length and releases the doorbell.  The reader blocks on
  the doorbell, copies the payload out, re-checks ``seq`` — an odd or
  changed ``seq`` would mean a torn write, which the token makes
  impossible in normal operation; the check is the seqlock's integrity
  rail against a writer dying mid-copy with the doorbell already rung —
  and returns the free-slot token before handing the message up (so a
  consumer that exits on the message, like the crash hook, has already
  unblocked the writer).
* A message larger than the segment sets ``FLAG_PIPE`` and travels through
  the fallback pipe instead.  The doorbell rings *before* the payload is
  written: the reader must already be draining ``conn`` while the writer
  fills it, or any payload beyond the kernel socket buffer would deadlock
  both ends (writer full, reader still parked on the semaphore).  Dispatch
  stays correct for arbitrarily large sub-batches; only the common case is
  accelerated.

A blocking semaphore (futex on Linux) is deliberately chosen over the
spin-polling loop classic shm rings use: on an oversubscribed or
single-CPU host, spinning steals the timeslice the peer needs to produce
the message (measured 78.7µs spin vs 21.9µs semaphore vs 29.6µs pipe RTT
on a 1-CPU container).

Availability: requires the ``fork`` start method (segments and semaphores
transfer by inheritance; no re-attach, no pickling of handles) and a
writable ``/dev/shm``.  :func:`shm_available` probes both;
:class:`~repro.parallel.workers.ProcessWorker` falls back to the plain
pipe transport when the probe fails or ``transport="pipe"`` is forced.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
from typing import Callable, Optional

from repro.parallel.pack import is_packed, unpack_ops

try:
    from multiprocessing import shared_memory as _shared_memory
except Exception:  # pragma: no cover - stdlib module; absent only on exotic builds
    _shared_memory = None  # type: ignore[assignment]

#: Header: message sequence (odd while a write is in progress), payload
#: length in bytes, flags.
_HEADER = struct.Struct("<QQQ")
HEADER_SIZE = _HEADER.size

#: Payload flags.
FLAG_INLINE = 0  # payload lives in the segment
FLAG_PIPE = 1  # payload was too large; drain it from the fallback pipe

#: Default payload capacity per direction.  Large enough that sub-batches
#: and query responses at bench scale stay inline; a miss only costs the
#: historical pipe hop.
DEFAULT_CAPACITY = 1 << 20

#: Liveness re-check cadence while blocked on the doorbell (parent side).
_POLL_S = 0.05

#: Child-side cadence for the parent-alive check while idle on the command
#: doorbell.  Only orphan-detection latency rides on it.
_CHILD_POLL_S = 0.25


def decode_frames(data: bytes):
    """Decode one message from a header pickle plus an optional body frame.

    The dispatch hot path hoists the constant ``("apply", category)``
    command header out of the per-sub-batch payload (see
    :func:`repro.parallel.workers.encode_cmd`): the wire bytes are then
    the cached header pickle followed by the ops payload -- either the
    magic-prefixed columnar frame of :mod:`repro.parallel.pack` (bulk
    coordinates as raw ``array`` columns, never pickled) or a second
    pickle stream.  Pickle streams are self-terminating, so one
    ``pickle.load`` leaves the cursor exactly at the body; the frame
    magic (never a valid pickle prefix) tells the two body forms apart.
    A plain single-pickle message (responses, control commands) decodes
    unchanged.  Note ``pickle.loads`` alone would *silently drop* the
    body -- hence this explicit decoder on every receive path that can
    see encoded commands.
    """
    stream = io.BytesIO(data)
    first = pickle.load(stream)
    if stream.tell() >= len(data):
        return first
    if is_packed(data, stream.tell()):
        return (*first, unpack_ops(data, stream.tell()))
    body = pickle.load(stream)
    return (*first, body)


def shm_available(ctx) -> bool:
    """True when the shared-memory transport can run under ``ctx``.

    Requires fork (handles transfer by inheritance) and a functioning
    ``shared_memory`` implementation (e.g. a writable ``/dev/shm``).
    """
    if _shared_memory is None:
        return False
    try:
        if ctx.get_start_method() != "fork":
            return False
    except Exception:
        return False
    try:
        probe = _shared_memory.SharedMemory(create=True, size=64)
    except Exception:
        return False
    try:
        probe.close()
        probe.unlink()
    except Exception:
        pass
    return True


class ShmMailbox:
    """One direction of the transport: a seqlock'd segment + doorbell.

    Exactly one process writes and one process reads (which is which flips
    between the request and response mailboxes of a channel).
    """

    __slots__ = ("_shm", "_sem", "_free", "_capacity", "_seq", "_owner")

    def __init__(self, ctx, capacity: int) -> None:
        assert _shared_memory is not None
        self._capacity = capacity
        self._shm = _shared_memory.SharedMemory(
            create=True, size=HEADER_SIZE + capacity
        )
        _HEADER.pack_into(self._shm.buf, 0, 0, 0, 0)
        self._sem = ctx.Semaphore(0)
        self._free = ctx.Semaphore(1)
        self._seq = 0
        self._owner = os.getpid()

    # -- writer side ---------------------------------------------------------

    def _claim_slot(
        self,
        liveness: Optional[Callable[[], bool]],
        poll_s: float,
    ) -> None:
        """Take the free-slot token; with ``liveness``, a dead reader raises
        :class:`BrokenPipeError` instead of blocking forever."""
        if liveness is None:
            self._free.acquire()
            return
        while True:
            if self._free.acquire(timeout=poll_s):
                return
            if not liveness():
                if self._free.acquire(block=False):
                    return
                raise BrokenPipeError(
                    "peer died before consuming the previous message"
                )

    def send(
        self,
        obj,
        conn,
        liveness: Optional[Callable[[], bool]] = None,
        poll_s: float = _POLL_S,
        data: Optional[bytes] = None,
    ) -> None:
        """Publish one message; oversize payloads detour through ``conn``.

        ``data`` lets the caller pass pre-encoded bytes (the hoisted-header
        command framing of :func:`repro.parallel.workers.encode_cmd`);
        they must decode back to ``obj`` via :func:`decode_frames`.
        """
        if data is None:
            data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._claim_slot(liveness, poll_s)
        buf = self._shm.buf
        seq = self._seq + 1  # odd: write in progress
        if len(data) <= self._capacity:
            _HEADER.pack_into(buf, 0, seq, 0, FLAG_INLINE)
            buf[HEADER_SIZE : HEADER_SIZE + len(data)] = data
            _HEADER.pack_into(buf, 0, seq + 1, len(data), FLAG_INLINE)
            self._seq = seq + 1
            self._sem.release()
        else:
            _HEADER.pack_into(buf, 0, seq + 1, 0, FLAG_PIPE)
            self._seq = seq + 1
            # Ring the doorbell *before* writing the payload.  The reader
            # is blocked on the doorbell, so it cannot drain the pipe until
            # it fires; a payload larger than the kernel socket buffer
            # (~64-208 KiB) would otherwise block this send_bytes() forever
            # while the reader waits on the semaphore -- a mutual deadlock
            # no liveness poll can break, since both peers stay alive.
            # With the header already published, the reader wakes, sees
            # FLAG_PIPE, and sits in recv_bytes() consuming as we write.
            self._sem.release()
            conn.send_bytes(data)

    # -- reader side ---------------------------------------------------------

    def _consume(self, conn):
        buf = self._shm.buf
        seq, length, flags = _HEADER.unpack_from(buf, 0)
        if flags == FLAG_PIPE:
            data = conn.recv_bytes()
            self._free.release()
        else:
            data = bytes(buf[HEADER_SIZE : HEADER_SIZE + length])
            seq_after = _HEADER.unpack_from(buf, 0)[0]
            if seq % 2 or seq_after != seq:
                raise EOFError("torn shared-memory message")
            self._free.release()
        return decode_frames(data)

    def recv(
        self,
        conn,
        liveness: Optional[Callable[[], bool]] = None,
        poll_s: float = _POLL_S,
    ):
        """Block on the doorbell; ``liveness`` is re-checked every
        ``poll_s`` so a dead peer raises instead of hanging forever."""
        if liveness is None:
            self._sem.acquire()
            return self._consume(conn)
        while True:
            if self._sem.acquire(timeout=poll_s):
                return self._consume(conn)
            if not liveness():
                # Final drain: the peer may have rung the doorbell between
                # the timeout and the liveness check.
                if self._sem.acquire(block=False):
                    return self._consume(conn)
                raise EOFError("peer died before responding")

    # -- lifecycle -----------------------------------------------------------

    def close(self, unlink: bool) -> None:
        try:
            self._shm.close()
        except Exception:
            pass
        if unlink:
            try:
                self._shm.unlink()
            except Exception:
                pass


class ShmChannel:
    """A duplex parent<->child message channel over two mailboxes.

    The fallback pipe ``conn`` (one per side) is still owned by the worker
    for the ready handshake, oversize payloads, and crash detection (a dead
    child's pipe reads EOF; shared memory has no such signal).
    """

    __slots__ = ("_req", "_resp", "capacity", "_parent_pid")

    def __init__(self, ctx, capacity: Optional[int] = None) -> None:
        self.capacity = capacity if capacity is not None else DEFAULT_CAPACITY
        self._req = ShmMailbox(ctx, self.capacity)
        try:
            self._resp = ShmMailbox(ctx, self.capacity)
        except Exception:
            self._req.close(unlink=True)
            raise
        # The channel is built in the parent before fork; the child checks
        # its ppid against this while idle so an uncleanly dead parent
        # (SIGKILL -- no pipe EOF reaches a reader parked on the doorbell)
        # doesn't orphan it forever.
        self._parent_pid = os.getpid()

    # Parent side ------------------------------------------------------------

    def send_cmd(
        self,
        cmd,
        conn,
        liveness=None,
        poll_s: float = _POLL_S,
        data: Optional[bytes] = None,
    ) -> None:
        self._req.send(cmd, conn, liveness, poll_s, data=data)

    def recv_resp(self, conn, liveness, poll_s: float = _POLL_S):
        return self._resp.recv(conn, liveness, poll_s)

    # Child side -------------------------------------------------------------

    def _parent_alive(self) -> bool:
        # After the parent dies the child is reparented (to init or a
        # subreaper), so its ppid stops matching the recorded parent pid.
        return os.getppid() == self._parent_pid

    def recv_cmd(self, conn):
        # A gentler cadence than the parent's: orphan detection latency is
        # all that rides on it, and idle workers shouldn't wake 20x/s.
        return self._req.recv(
            conn, liveness=self._parent_alive, poll_s=_CHILD_POLL_S
        )

    def send_resp(self, resp, conn) -> None:
        # Liveness here keeps the child from parking forever on the
        # free-slot token when the parent died without consuming the
        # previous response; BrokenPipeError surfaces as OSError in the
        # command loop, which exits and unlinks.
        self._resp.send(
            resp, conn, liveness=self._parent_alive, poll_s=_CHILD_POLL_S
        )

    # Lifecycle --------------------------------------------------------------

    def close(self, unlink: bool) -> None:
        self._req.close(unlink)
        self._resp.close(unlink)
