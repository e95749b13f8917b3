"""Shard workers: one worker process exclusively owns one shard.

Ownership model: a shard (pager + optional buffer pool + index) is built
and lives inside a child process (fork-preferred), driven over a duplex
pipe (at most one command is ever in flight per worker, so a pipe's single
round-trip beats queue feeder-thread hand-offs).  The parent never sees a
worker-owned shard; every dispatch is awaited before the parent reads any
response -- so no lock is needed anywhere.

I/O accounting: each worker charges a **private** ledger.  Every response
carries the per-category read/write deltas the command incurred, and
:class:`PoolExecutor` -- the sharded router's executor for
``mode="process"`` -- reconciles them into the router's per-shard ledgers,
single-threaded, after the await, via
:meth:`~repro.storage.iostats.IOStats.charge`.  This sidesteps the data race
a mirrored ledger (``ShardIOStats``) would have under concurrent workers,
and keeps pool runs' I/O counts identical to inline runs' (the same page
operations happen, only the ledger hop differs).

Commands are :class:`~repro.engine.sharded.ShardServer`'s protocol, plus
two the worker loop handles itself: ``("crash",)`` (fault-injection hook:
die without responding) and ``("shutdown",)`` (exit the loop cleanly).

Transports: commands and responses travel over a shared-memory mailbox
channel (:mod:`repro.parallel.shm`) when the host supports it — fork start
method plus a writable ``/dev/shm`` — and over the duplex pipe otherwise.
The pipe always exists: it carries the oversize-payload fallback and the
EOF crash signal.  The transport choice never changes command semantics or
I/O accounting; ``transport="pipe"`` forces the historical behaviour (the
dispatch bench A/Bs the two).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.geometry import Rect
from repro.engine.registry import IndexOptions
from repro.engine.sharded import (
    Shard,
    ShardServer,
    WorkerFailure,
    build_shard,
    io_deltas,
)
from repro.obs.metrics import get_registry
from repro.parallel.pack import pack_ops
from repro.parallel.shm import ShmChannel, decode_frames, shm_available
from repro.storage.iostats import IOCategory, IOStats

#: How often the awaiting parent re-checks worker liveness while blocked on
#: a response.  Detection latency only -- correctness never times out.
_POLL_S = 0.05

#: Cached header pickles for the hoisted-header command framing, keyed by
#: ``(tag, category)``.  The set of categories is tiny and fixed
#: (:class:`~repro.storage.iostats.IOCategory`), so the cache never grows
#: past a handful of entries.
_HEADER_PICKLES: Dict[Tuple[str, str], bytes] = {}


def encode_cmd(cmd: tuple) -> bytes:
    """Pickle a worker command, hoisting the ``("apply", category)`` header.

    A dispatch round sends one ``("apply", category, ops)`` sub-batch per
    shard and the 2-tuple header is byte-identical across all of them (and
    across every round of the run); re-pickling it per sub-batch was pure
    waste.  The header is pickled once per ``(tag, category)`` pair and the
    cached bytes are concatenated with the ops payload -- which is either
    the columnar frame of :func:`~repro.parallel.pack.pack_ops` (bulk
    coordinates cross the transport as raw ``array`` columns, never
    pickled) or, for op shapes the frame does not model, the historical
    ops pickle.  :func:`~repro.parallel.shm.decode_frames` reassembles
    either form into the original 3-tuple.  Every other command shape is a
    single plain pickle, which the same decoder passes through unchanged.
    """
    if len(cmd) == 3 and cmd[0] == "apply":
        key = (cmd[0], cmd[1])
        header = _HEADER_PICKLES.get(key)
        if header is None:
            header = pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)
            _HEADER_PICKLES[key] = header
        packed = pack_ops(cmd[2])
        if packed is not None:
            return header + packed
        return header + pickle.dumps(cmd[2], protocol=pickle.HIGHEST_PROTOCOL)
    return pickle.dumps(cmd, protocol=pickle.HIGHEST_PROTOCOL)


def _safe_execute(server: ShardServer, cmd: tuple) -> dict:
    try:
        return server.execute(cmd)
    except Exception as exc:  # command decode / unexpected failure
        return {"ok": False, "error": str(exc), "exc_type": type(exc).__name__}


def _process_shard_main(
    conn,
    channel,
    kind: str,
    sid: int,
    region: Rect,
    options: IndexOptions,
    pool_frames: int,
    category: str,
) -> None:
    """Child-process entry: build the shard, then serve commands forever.

    ``channel`` is the optional shared-memory transport; when present every
    message travels through it (the pipe remains the oversize/crash-signal
    fallback it wraps).  When None the pipe carries whole pickles, as
    before PR 7.
    """

    def send(resp: dict) -> None:
        if channel is not None:
            channel.send_resp(resp, conn)
        else:
            conn.send(resp)

    def recv() -> tuple:
        if channel is not None:
            return channel.recv_cmd(conn)
        # Commands arrive in the hoisted-header framing (encode_cmd); a
        # plain conn.recv() would pickle.loads the first stream and
        # silently drop the ops payload.
        return decode_frames(conn.recv_bytes())

    try:
        stats = IOStats()
        t0 = perf_counter()
        with stats.category(category):
            shard = build_shard(
                kind,
                sid,
                region,
                options,
                stats=stats,
                pool_frames=pool_frames,
            )
        send({
            "ok": True,
            "ready": True,
            "io": io_deltas({}, stats.snapshot()),
            "wall_s": perf_counter() - t0,
            "page_count": shard.pager.page_count,
        })
    except Exception as exc:
        send({"ok": False, "error": str(exc), "exc_type": type(exc).__name__})
        return
    server = ShardServer(kind, shard)
    try:
        while True:
            try:
                cmd = recv()
                tag = cmd[0]
                if tag == "shutdown":
                    return
                if tag == "crash":
                    os._exit(1)
                send(_safe_execute(server, cmd))
            except (EOFError, OSError):
                # Parent gone: pipe EOF/EPIPE, or the shm doorbell's
                # ppid-based liveness check fired.  (Shard execution
                # itself can't land here -- _safe_execute catches.)
                # Exit the loop so the finally below unlinks segments a
                # SIGKILLed parent never will.
                return
    finally:
        if channel is not None:
            # Unlinking while the parent still maps the segments is safe
            # (the name goes away, live mappings persist); the parent's
            # own close(unlink=True) then no-ops on FileNotFoundError.
            channel.close(unlink=True)


class ProcessWorker:
    """One shard in a child process, driven over a duplex pipe.

    The fork start method is preferred (the parent's imported modules and
    the routed history profile transfer by page sharing, not pickling);
    spawn is the fallback where fork is unavailable.

    The channel is a :func:`multiprocessing.Pipe` rather than a pair of
    queues: the protocol allows at most one in-flight command per worker,
    so the queue machinery (a feeder thread and its hand-off latency on
    every message) buys nothing -- and the dispatch round-trip is the
    parallel engine's unit cost, paid per sub-batch and twice per
    sequenced cross-shard move.
    """

    def __init__(
        self,
        kind: str,
        sid: int,
        region: Rect,
        options: IndexOptions,
        *,
        pool_frames: int = 0,
        category: str = IOCategory.OTHER,
        ctx=None,
        transport: str = "auto",
    ) -> None:
        if transport not in ("auto", "shm", "pipe"):
            raise ValueError(
                f"unknown transport {transport!r}; choose auto, shm or pipe"
            )
        self.sid = sid
        if ctx is None:
            method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
            ctx = mp.get_context(method)
        self._channel = None
        if transport in ("auto", "shm"):
            if shm_available(ctx):
                self._channel = ShmChannel(ctx)
            elif transport == "shm":
                raise WorkerFailure(
                    "shared-memory transport unavailable "
                    "(needs fork start method and a writable /dev/shm)"
                )
        #: The transport actually in use (``shm`` or ``pipe``).
        self.transport = "shm" if self._channel is not None else "pipe"
        try:
            self._conn, child_conn = ctx.Pipe(duplex=True)
            self._proc = ctx.Process(
                target=_process_shard_main,
                args=(
                    child_conn,
                    self._channel,
                    kind,
                    sid,
                    region,
                    options,
                    pool_frames,
                    category,
                ),
                daemon=True,
                name=f"shard-worker-{sid}",
            )
            self._proc.start()
        except Exception:
            # close() is never reached when construction fails; unlink the
            # already-created segments here or they sit in /dev/shm until
            # the resource tracker (or a reboot) sweeps them.
            if self._channel is not None:
                self._channel.close(unlink=True)
                self._channel = None
            raise
        # Parent drops its handle on the child end so a dead child reads
        # as EOF instead of a silently half-open pipe.
        child_conn.close()

    def submit(self, cmd: tuple) -> None:
        if not self._proc.is_alive():
            raise WorkerFailure(f"shard {self.sid} worker process is dead")
        try:
            data = encode_cmd(cmd)
            if self._channel is not None:
                self._channel.send_cmd(
                    cmd, self._conn, liveness=self._proc.is_alive, data=data
                )
            else:
                self._conn.send_bytes(data)
        except (BrokenPipeError, OSError):
            raise WorkerFailure(
                f"shard {self.sid} worker process is dead"
            ) from None

    def _recv(self) -> dict:
        try:
            return self._conn.recv()
        except (EOFError, OSError):
            raise WorkerFailure(
                f"shard {self.sid} worker process died mid-command"
            ) from None

    def result(self) -> dict:
        """Await the next response; raises :class:`WorkerFailure` on death.

        A response the child flushed before dying stays readable (in the
        pipe buffer, or in the mailbox with the doorbell already rung), so
        an ack that made it out before the crash is never lost.
        """
        if self._channel is not None:
            try:
                return self._channel.recv_resp(
                    self._conn, liveness=self._proc.is_alive, poll_s=_POLL_S
                )
            except (EOFError, OSError):
                raise WorkerFailure(
                    f"shard {self.sid} worker process died mid-command"
                ) from None
        conn = self._conn
        while True:
            if conn.poll(_POLL_S):
                return self._recv()
            if not self._proc.is_alive():
                # Final drain: the child may have written between our poll
                # timing out and the liveness check.
                if conn.poll(0):
                    return self._recv()
                raise WorkerFailure(
                    f"shard {self.sid} worker process died mid-command"
                )

    def alive(self) -> bool:
        return self._proc.is_alive()

    def close(self) -> None:
        if self._proc.is_alive():
            try:
                self.submit(("shutdown",))
                self._proc.join(timeout=2.0)
            except Exception:
                pass
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(timeout=1.0)
        if self._channel is not None:
            self._channel.close(unlink=True)
            self._channel = None
        self._conn.close()


class PoolExecutor:
    """The sharded router's worker-pool executor: one worker owns one shard.

    ``dispatch`` submits one command per target shard, then awaits every
    response, so independent shards proceed concurrently.  Responses from
    shards that answered before a peer died are reconciled normally --
    acknowledged work is never discarded -- and the dead shards come back
    as ``failed`` for the router to fall back on.
    """

    mode = "process"
    #: Queue per shard; flush at cross-shard moves and at batch end.
    flushes_every_op = False
    #: The shards live in the worker processes, never in the parent.
    shards: Optional[List[Shard]] = None

    def __init__(
        self,
        kind: str,
        specs: Sequence[Tuple[int, Rect, IndexOptions]],
        ledgers: Sequence[IOStats],
        *,
        pool_frames: int = 0,
        category: str = IOCategory.OTHER,
    ) -> None:
        self._ledgers = ledgers
        self._page_counts = [0] * len(specs)
        self._workers: List[ProcessWorker] = []
        try:
            for sid, region, options in specs:
                self._workers.append(
                    ProcessWorker(
                        kind, sid, region, options,
                        pool_frames=pool_frames, category=category,
                    )
                )
            # Await the ready handshakes after every worker has started, so
            # shard construction (CT qs-region mining included) runs
            # concurrently across the pool.
            for sid, worker in enumerate(self._workers):
                resp = worker.result()
                if not resp.get("ok"):
                    raise WorkerFailure(
                        f"shard {sid} worker failed to build: {resp.get('error')}"
                    )
                self._reconcile(sid, resp)
        except BaseException:
            self.close()
            raise

    def _reconcile(self, sid: int, resp: dict) -> None:
        ledger = self._ledgers[sid]
        for cat, dr, dw in resp.get("io", ()):
            ledger.charge(cat, dr, dw)
        if "page_count" in resp:
            self._page_counts[sid] = int(resp["page_count"])
        wall = resp.get("wall_s", 0.0)
        if wall:
            registry = get_registry()
            if registry.enabled:
                registry.record_duration(f"parallel.worker{sid}.busy_s", wall)

    def dispatch(
        self, targets: Mapping[int, tuple]
    ) -> Tuple[Dict[int, dict], List[int]]:
        t0 = perf_counter()
        submitted: List[int] = []
        failed: List[int] = []
        for sid, cmd in targets.items():
            try:
                self._workers[sid].submit(cmd)
                submitted.append(sid)
            except WorkerFailure:
                failed.append(sid)
        out: Dict[int, dict] = {}
        for sid in submitted:
            try:
                resp = self._workers[sid].result()
            except WorkerFailure:
                failed.append(sid)
                continue
            self._reconcile(sid, resp)
            out[sid] = resp
        registry = get_registry()
        if registry.enabled:
            registry.observe("parallel.dispatch.latency_s", perf_counter() - t0)
        return out, failed

    def page_counts(self) -> List[int]:
        """Each shard's page count as of its last response."""
        return list(self._page_counts)

    def close(self) -> None:
        """Shut every worker down (best-effort, idempotent)."""
        workers, self._workers = self._workers, []
        for worker in workers:
            try:
                worker.close()
            except Exception:
                pass
