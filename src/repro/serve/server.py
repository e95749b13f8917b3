"""The asyncio serving daemon: bounded writer queue, admission, replicas.

Concurrency architecture (queue-based load leveling):

* The **event loop** owns all bookkeeping: it decodes frames, runs
  admission control, appends to the WAL, advances the acked-positions
  ledger, and enqueues write ops on a *bounded* ``asyncio.Queue``.  A full
  queue is an immediate ``RETRY_AFTER`` -- the queue bound, not client
  count, caps how much unapplied work the daemon ever holds.
* The **writer task** drains the queue in batches onto a single-thread
  executor; only that thread ever touches the primary index.  This is the
  same one-actor-per-structure ownership model the worker pool uses, so no
  index needs internal locking.
* **Replica reads** run on a separate reader pool against snapshot
  replicas (:mod:`repro.serve.replica`); they never wait on the writer, so
  a slow write burst cannot block reads beyond the queue bound.  ``fresh``
  reads opt into read-your-writes by quiescing the queue first and running
  on the writer executor.
* **Checkpoints** happen only at provable quiescent points: write intake
  is paused first (the ``checkpoint`` op sheds with ``RETRY_AFTER``, the
  drain with ``SHUTTING_DOWN``), the queue is joined until
  ``acked == applied`` holds, and the call then runs on the event loop
  with no ``await`` in between, so no handler can log a WAL record the
  checkpoint would falsely cover.

Crash model: an exception escaping the WAL-append/apply path (e.g. an
injected fault) aborts the daemon *without* drain or final checkpoint --
exactly a crash.  Recovery then replays the acked prefix, which is the
guarantee the log-before-ack ordering pays for.
"""

from __future__ import annotations

import asyncio
import math
import signal
import threading
import time
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, Optional, Set, Tuple

from concurrent.futures import ThreadPoolExecutor

from repro.obs import get_registry
from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import AdmissionController
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_RETRY_AFTER,
    ERR_SHUTTING_DOWN,
    ERR_UNSUPPORTED,
    ProtocolError,
    error_response,
    ok_response,
    read_frame,
    write_message,
)
from repro.serve.replica import ReplicaSet
from repro.serve.service import EngineService

#: Ops the protocol understands; anything else is ERR_UNSUPPORTED and its
#: latency is bucketed under ``serve.op.unknown`` so client-supplied op
#: strings cannot grow the metrics registry without bound.
KNOWN_OPS = frozenset(
    {"update", "batch_update", "range", "knn", "stats", "checkpoint", "shutdown"}
)


@dataclass
class ServeConfig:
    """Knobs of one daemon instance (see the CLI ``serve`` command)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port from ``address``
    queue_depth: int = 1024
    write_batch: int = 64
    rate: float = 0.0  # per-client admitted ops/s; 0 disables admission
    burst: float = 0.0  # bucket size; 0 = one second's worth
    replicas: int = 1
    refresh_interval: float = 0.25

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.write_batch < 1:
            raise ValueError("write_batch must be >= 1")
        if self.refresh_interval <= 0:
            raise ValueError("refresh_interval must be > 0")


class ServeServer:
    """One daemon instance around an :class:`EngineService`."""

    def __init__(
        self,
        service: EngineService,
        config: Optional[ServeConfig] = None,
        *,
        clock=time.monotonic,
    ) -> None:
        self.service = service
        self.config = config or ServeConfig()
        self._clock = clock
        self.admission = AdmissionController(
            self.config.rate, self.config.burst, clock=clock
        )
        self.replicas = ReplicaSet(
            self.config.replicas, service.domain, clock=clock
        )
        #: Always-on local metrics (latency summaries, counters) served by
        #: the ``stats`` op; mirrored into the global registry when the
        #: process enabled it (``--metrics-out`` style runs).
        self.metrics = MetricsRegistry(enabled=True)
        self.error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._writer_task: Optional[asyncio.Task] = None
        self._replica_task: Optional[asyncio.Task] = None
        self._clients: Set[asyncio.StreamWriter] = set()
        self._client_seq = 0
        self._accepting = False
        self._checkpointing = False
        self._stopping = False
        self._stopped: Optional[asyncio.Future] = None
        self._started_at = 0.0

    # -- metrics helpers -------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        self.metrics.inc(name, value)
        registry = get_registry()
        if registry.enabled:
            registry.inc(name, value)

    def _observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)
        registry = get_registry()
        if registry.enabled:
            registry.observe(name, value)

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._queue = asyncio.Queue(maxsize=self.config.queue_depth)
        self._stopped = loop.create_future()
        self._writer_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-writer"
        )
        self._reader_pool = ThreadPoolExecutor(
            max_workers=max(2, self.config.replicas),
            thread_name_prefix="serve-reader",
        )
        if self.replicas.enabled:
            seq, doc, at = await loop.run_in_executor(
                self._writer_pool, self._fork
            )
            await loop.run_in_executor(
                self._reader_pool, self.replicas.install, doc, seq, at
            )
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self._accepting = True
        self._started_at = self._clock()
        self._writer_task = loop.create_task(
            self._writer_loop(), name="serve-writer-loop"
        )
        if self.replicas.enabled:
            self._replica_task = loop.create_task(
                self._replica_loop(), name="serve-replica-loop"
            )

    @property
    def address(self) -> Tuple[str, int]:
        assert self._server is not None and self._server.sockets
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    def install_signal_handlers(self) -> None:
        """SIGINT/SIGTERM -> graceful drain (daemon mode)."""
        assert self._loop is not None
        for signum in (signal.SIGINT, signal.SIGTERM):
            self._loop.add_signal_handler(signum, self.request_shutdown)

    def request_shutdown(self) -> None:
        """Begin a graceful drain; safe to call from loop callbacks."""
        assert self._loop is not None
        self._loop.create_task(self.shutdown())

    def request_shutdown_threadsafe(self) -> None:
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self.request_shutdown)

    async def wait_stopped(self) -> None:
        assert self._stopped is not None
        await self._stopped

    async def shutdown(self) -> None:
        """Graceful drain: stop intake, drain the queue, checkpoint, stop.

        The final checkpoint runs on the event loop after ``queue.join()``
        with no intervening ``await``: the writer is idle, no handler can
        run, so the checkpoint's covered WAL seq equals the acked seq --
        nothing acked is left outside it.
        """
        if self._stopping:
            return
        self._stopping = True
        self._accepting = False
        assert self._queue is not None
        await self._queue.join()
        if self.error is None:
            try:
                self.service.checkpoint()
            except Exception as exc:  # crash during final checkpoint
                self.error = exc
            try:
                self.service.close_durability()
            except Exception:
                pass
        await self._stop()

    def _fatal(self, exc: BaseException) -> None:
        """Abort like a crash: no drain, no checkpoint, connections cut."""
        if self.error is not None:
            return
        self.error = exc
        self._accepting = False
        self._stopping = True
        self._count("serve.fatal")
        # Mark whatever is still queued as done so anything blocked on
        # queue.join() (a graceful drain racing this crash, a fresh read)
        # unblocks instead of hanging on ops that will never be applied.
        if self._queue is not None:
            while True:
                try:
                    self._queue.get_nowait()
                    self._queue.task_done()
                except asyncio.QueueEmpty:
                    break
        assert self._loop is not None
        self._loop.create_task(self._stop())

    async def _stop(self) -> None:
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:
                pass
        for task in (self._writer_task, self._replica_task):
            if task is not None and not task.done():
                task.cancel()
        for writer in list(self._clients):
            try:
                writer.close()
            except Exception:
                pass
        self._writer_pool.shutdown(wait=True)
        self._reader_pool.shutdown(wait=True)
        if self._stopped is not None and not self._stopped.done():
            self._stopped.set_result(None)

    # -- background tasks ------------------------------------------------

    async def _writer_loop(self) -> None:
        assert self._queue is not None and self._loop is not None
        queue = self._queue
        while True:
            op = await queue.get()
            batch = [op]
            while len(batch) < self.config.write_batch:
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            t0 = perf_counter()
            try:
                # task_done for the claimed batch runs in the finally so a
                # crash-path cancellation mid-apply still releases anyone
                # blocked in queue.join() (graceful drains, fresh reads).
                try:
                    await self._loop.run_in_executor(
                        self._writer_pool, self.service.apply, batch
                    )
                except Exception as exc:
                    self._fatal(exc)
                    return
            finally:
                for _ in batch:
                    queue.task_done()
            self._observe("serve.writer.batch", float(len(batch)))
            self._observe("serve.writer.apply_s", perf_counter() - t0)
            if queue.empty():
                # Quiescent: queue drained and the writer thread idle.  No
                # await between the check and the checkpoint, so no handler
                # can interleave a WAL append the checkpoint would cover
                # without its op being applied.
                try:
                    self.service.maybe_checkpoint()
                except Exception as exc:
                    self._fatal(exc)
                    return

    def _fork(self) -> Tuple[int, Dict, float]:
        seq, doc = self.service.fork_document()
        return seq, doc, self._clock()

    async def _replica_loop(self) -> None:
        assert self._loop is not None
        while True:
            await asyncio.sleep(self.config.refresh_interval)
            if self.replicas.seq >= self.service.applied:
                continue  # nothing new applied since the last fork
            try:
                seq, doc, at = await self._loop.run_in_executor(
                    self._writer_pool, self._fork
                )
                await self._loop.run_in_executor(
                    self._reader_pool, self.replicas.install, doc, seq, at
                )
                self._count("serve.replica.refresh")
                self._observe(
                    "serve.replica.lag_ops",
                    float(max(0, self.service.applied - seq)),
                )
            except Exception as exc:
                self._fatal(exc)
                return

    # -- connection handling ---------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._client_seq += 1
        client_id = f"c{self._client_seq}"
        self._clients.add(writer)
        self._count("serve.conn.open")
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except ProtocolError:
                    # A partial frame (client died mid-send) or garbage:
                    # nothing was acked for it, drop the connection only.
                    self._count("serve.conn.broken")
                    return
                if message is None:
                    return  # clean disconnect
                op = message.get("op")
                rid = message.get("id")
                t0 = perf_counter()
                try:
                    response = await self._dispatch_op(op, message, client_id)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    # The write path (WAL append, ledger, apply) must not
                    # half-fail: treat any escape as a daemon crash so
                    # recovery semantics stay exact.
                    self._fatal(exc)
                    return
                op_name = op if op in KNOWN_OPS else "unknown"
                self._observe(
                    f"serve.op.{op_name}.latency_s", perf_counter() - t0
                )
                try:
                    await write_message(writer, self._with_id(response, rid))
                except (ConnectionError, OSError):
                    self._count("serve.conn.broken")
                    return
                if op == "shutdown":
                    # Response flushed; now begin the drain.
                    self.request_shutdown()
        finally:
            self._clients.discard(writer)
            self.admission.forget(client_id)
            self._count("serve.conn.close")
            try:
                writer.close()
            except Exception:
                pass

    @staticmethod
    def _with_id(response: Dict[str, Any], rid: Any) -> Dict[str, Any]:
        if rid is not None:
            response["id"] = rid
        return response

    # -- op dispatch -----------------------------------------------------

    async def _dispatch_op(
        self, op: Any, message: Dict[str, Any], client_id: str
    ) -> Dict[str, Any]:
        if op == "update":
            return await self._op_update(message, client_id)
        if op == "batch_update":
            return await self._op_batch_update(message, client_id)
        if op == "range":
            return await self._op_range(message)
        if op == "knn":
            return await self._op_knn(message)
        if op == "stats":
            return ok_response(None, stats=self.stats_dict())
        if op == "checkpoint":
            return await self._op_checkpoint()
        if op == "shutdown":
            return ok_response(
                None, acked=self.service.acked, applied=self.service.applied
            )
        self._count("serve.op.unknown")
        return error_response(
            None, ERR_UNSUPPORTED, f"unknown op {op!r}"
        )

    @staticmethod
    def _parse_update(entry: Any) -> Tuple[int, Tuple[float, float], float]:
        oid, x, y, t = entry
        try:
            pos = (float(x), float(y))
            finite = math.isfinite(pos[0]) and math.isfinite(pos[1])
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            # Refused before the ack: the index rejects such a point, and an
            # acked write the writer cannot apply would stop the daemon.
            raise ValueError(f"point {entry[1:3]!r:.80} is not two finite floats")
        return int(oid), pos, float(t)

    @staticmethod
    def _parse_stamp(message: Dict[str, Any]) -> Optional[Tuple[str, int]]:
        """The optional ``(client, rid)`` idempotency stamp, validated.

        Both fields or neither; the client name is the *client-chosen*
        identity (stable across reconnects -- the per-connection admission
        id is not), the rid a positive int.  Raises ``ValueError`` on a
        half-stamped or malformed request.
        """
        client, rid = message.get("client"), message.get("rid")
        if client is None and rid is None:
            return None
        if not isinstance(client, str) or not client or len(client) > 128:
            raise ValueError("idempotency stamp needs a client string (<=128)")
        if not isinstance(rid, int) or isinstance(rid, bool) or rid < 1:
            raise ValueError("idempotency stamp needs a positive integer rid")
        return client, rid

    def _dedup_response(self, hit) -> Dict[str, Any]:
        """Ack a replayed write with its original result, applying nothing."""
        self._count("serve.dedup.hit")
        fields: Dict[str, Any] = {"deduped": True, "accepted": hit.accepted}
        if hit.seq is not None:
            fields["seq"] = hit.seq
        return ok_response(None, **fields)

    def _admit_writes(
        self, client_id: str, cost: int
    ) -> Optional[Dict[str, Any]]:
        """Admission + queue-capacity gates; an error response, or None."""
        if not self._accepting:
            return error_response(
                None, ERR_SHUTTING_DOWN, "daemon is draining"
            )
        if cost > self.config.queue_depth:
            # Could never fit even an empty queue; RETRY_AFTER would be a
            # permanent livelock for a compliant client, so reject outright.
            self._count("serve.rejected.oversize")
            return error_response(
                None,
                ERR_BAD_REQUEST,
                f"batch of {cost} exceeds queue bound "
                f"{self.config.queue_depth}; split it",
            )
        if self._checkpointing:
            # Intake is paused so the checkpoint can reach a stable
            # acked == applied point; transient, so shed with RETRY_AFTER.
            self._count("serve.rejected.checkpoint")
            return error_response(
                None,
                ERR_RETRY_AFTER,
                "checkpoint in progress",
                retry_after=0.05,
            )
        admitted, wait = self.admission.admit(client_id, float(cost))
        if not admitted:
            self._count("serve.rejected.admission")
            return error_response(
                None,
                ERR_RETRY_AFTER,
                "admission rate exceeded",
                retry_after=wait,
            )
        assert self._queue is not None
        if self._queue.qsize() + cost > self.config.queue_depth:
            self._count("serve.rejected.queue_full")
            # Hint: one writer batch's worth of breathing room.
            return error_response(
                None,
                ERR_RETRY_AFTER,
                "writer queue is full",
                retry_after=0.05,
            )
        return None

    async def _op_update(
        self, message: Dict[str, Any], client_id: str
    ) -> Dict[str, Any]:
        try:
            oid, pos, t = self._parse_update(
                (message["oid"], *message["point"], message["t"])
            )
            stamp = self._parse_stamp(message)
        except (KeyError, TypeError, ValueError) as exc:
            return error_response(None, ERR_BAD_REQUEST, f"bad update: {exc}")
        if stamp is not None:
            # Replays dedup *before* every other gate: a retry of an
            # already-applied write must be acked, never shed or charged
            # against admission a second time.
            hit = self.service.dedup.check(*stamp)
            if hit is not None:
                return self._dedup_response(hit)
        rejection = self._admit_writes(client_id, 1)
        if rejection is not None:
            return rejection
        assert self._queue is not None
        # ack_update logs the WAL record; put_nowait cannot raise QueueFull
        # because capacity was checked above and nothing awaited since.
        if stamp is not None:
            op = self.service.ack_update(
                oid, pos, t, client=stamp[0], rid=stamp[1]
            )
            self.service.dedup.record(stamp[0], stamp[1], op[4])
        else:
            op = self.service.ack_update(oid, pos, t)
        self._queue.put_nowait(op)
        self._count("serve.accepted")
        self._observe("serve.queue.depth", float(self._queue.qsize()))
        return ok_response(None, seq=op[4], queued=self._queue.qsize())

    async def _op_batch_update(
        self, message: Dict[str, Any], client_id: str
    ) -> Dict[str, Any]:
        raw = message.get("updates")
        if not isinstance(raw, (list, tuple)) or not raw:
            return error_response(
                None, ERR_BAD_REQUEST, "batch_update needs a non-empty list"
            )
        try:
            updates = [self._parse_update(entry) for entry in raw]
            stamp = self._parse_stamp(message)
        except (TypeError, ValueError) as exc:
            return error_response(None, ERR_BAD_REQUEST, f"bad update: {exc}")
        if stamp is not None:
            # One stamp covers the whole batch (it was acked all-or-
            # nothing); the replay acks the original batch result.
            hit = self.service.dedup.check(*stamp)
            if hit is not None:
                return self._dedup_response(hit)
        rejection = self._admit_writes(client_id, len(updates))
        if rejection is not None:
            return rejection
        assert self._queue is not None
        client, rid = stamp if stamp is not None else (None, None)
        last_seq = 0
        for oid, pos, t in updates:
            op = self.service.ack_update(oid, pos, t, client=client, rid=rid)
            self._queue.put_nowait(op)
            last_seq = op[4]
        if stamp is not None:
            self.service.dedup.record(client, rid, last_seq, len(updates))
        self._count("serve.accepted", len(updates))
        self._observe("serve.queue.depth", float(self._queue.qsize()))
        return ok_response(
            None,
            accepted=len(updates),
            seq=last_seq,
            queued=self._queue.qsize(),
        )

    async def _quiesce(self) -> None:
        """Wait until every currently queued write has been applied."""
        assert self._queue is not None
        await self._queue.join()

    @staticmethod
    def _parse_rect(message: Dict[str, Any]):
        rect = message["rect"]
        (lx, ly), (hx, hy) = rect
        lo = (float(lx), float(ly))
        hi = (float(hx), float(hy))
        if lo[0] > hi[0] or lo[1] > hi[1]:
            raise ValueError("rect lo must not exceed hi")
        return lo, hi

    async def _op_range(self, message: Dict[str, Any]) -> Dict[str, Any]:
        try:
            lo, hi = self._parse_rect(message)
        except (KeyError, TypeError, ValueError) as exc:
            return error_response(None, ERR_BAD_REQUEST, f"bad range: {exc}")
        fresh = bool(message.get("fresh"))
        assert self._loop is not None
        try:
            if fresh or not self.replicas.ready:
                await self._quiesce()
                matches = await self._loop.run_in_executor(
                    self._writer_pool, self.service.query_range, lo, hi
                )
                staleness = None
            else:
                matches, staleness = await self._loop.run_in_executor(
                    self._reader_pool,
                    self.replicas.query_range,
                    lo,
                    hi,
                    self.service.applied,
                )
        except Exception as exc:
            self._count("serve.op.range.error")
            return error_response(None, ERR_INTERNAL, f"range failed: {exc}")
        return ok_response(
            None,
            matches=[[oid, list(pos)] for oid, pos in matches],
            staleness=staleness,
        )

    async def _op_knn(self, message: Dict[str, Any]) -> Dict[str, Any]:
        try:
            x, y = message["point"]
            point = (float(x), float(y))
            k = int(message.get("k", 1))
            if k < 1:
                raise ValueError("k must be >= 1")
        except (KeyError, TypeError, ValueError) as exc:
            return error_response(None, ERR_BAD_REQUEST, f"bad knn: {exc}")
        fresh = bool(message.get("fresh"))
        assert self._loop is not None
        try:
            if fresh or not self.replicas.ready:
                await self._quiesce()
                neighbors = await self._loop.run_in_executor(
                    self._writer_pool, self.service.query_knn, point, k
                )
                staleness = None
            else:
                neighbors, staleness = await self._loop.run_in_executor(
                    self._reader_pool,
                    self.replicas.query_knn,
                    point,
                    k,
                    self.service.applied,
                )
        except Exception as exc:
            self._count("serve.op.knn.error")
            return error_response(None, ERR_INTERNAL, f"knn failed: {exc}")
        return ok_response(
            None,
            neighbors=[
                [dist, oid, list(pos)] for dist, oid, pos in neighbors
            ],
            staleness=staleness,
        )

    async def _op_checkpoint(self) -> Dict[str, Any]:
        if self.service.durability is None:
            return error_response(
                None, ERR_UNSUPPORTED, "daemon runs without --wal-dir"
            )
        # Pause write intake first: queue.join() returning only means the
        # counter hit zero at some point -- other handler coroutines in the
        # ready queue can run ack_update (WAL append + enqueue) before this
        # coroutine is rescheduled, and a checkpoint taken then would cover
        # an acked-but-unapplied record.  With intake paused, re-join until
        # acked == applied holds on the loop with no await before the
        # checkpoint call; that state can no longer change under us.
        self._checkpointing = True
        try:
            await self._quiesce()
            while self.service.acked != self.service.applied:
                if self.error is not None or self._stopping:
                    # A fatal drain releases join() without applying, so
                    # acked == applied may never hold again.
                    return error_response(
                        None, ERR_SHUTTING_DOWN, "daemon is stopping"
                    )
                await self._quiesce()
            ordinal = self.service.checkpoint()
        finally:
            self._checkpointing = False
        self._count("serve.checkpoint")
        return ok_response(
            None, checkpoint=ordinal, covered_acked=self.service.acked
        )

    # -- introspection ---------------------------------------------------

    def stats_dict(self) -> Dict[str, Any]:
        assert self._queue is not None
        return {
            "server": {
                "accepting": self._accepting,
                "uptime_s": max(0.0, self._clock() - self._started_at),
                "clients": len(self._clients),
                "queue_depth": self._queue.qsize(),
                "queue_bound": self.config.queue_depth,
                "write_batch": self.config.write_batch,
            },
            "admission": self.admission.to_dict(),
            "replicas": self.replicas.to_dict(self.service.applied),
            "service": self.service.stats_dict(),
            "metrics": self.metrics.to_dict(),
        }


class ServerThread:
    """Run a :class:`ServeServer` on a background thread's event loop.

    The in-process harness for benches and tests: ``start()`` returns the
    bound address, ``shutdown()`` requests the graceful drain and joins.
    The daemon CLI does *not* use this -- it runs the loop on the main
    thread with real signal handlers.
    """

    def __init__(
        self, service: EngineService, config: Optional[ServeConfig] = None
    ) -> None:
        self._service = service
        self._config = config or ServeConfig()
        self.server: Optional[ServeServer] = None
        self._ready = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._address: Optional[Tuple[str, int]] = None
        self._thread = threading.Thread(
            target=self._run, name="serve-daemon", daemon=True
        )

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        server = ServeServer(self._service, self._config)
        self.server = server
        try:
            await server.start()
        except Exception as exc:
            self._start_error = exc
            self._ready.set()
            return
        self._address = server.address
        self._ready.set()
        await server.wait_stopped()

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("daemon failed to start in time")
        if self._start_error is not None:
            raise RuntimeError("daemon failed to start") from self._start_error
        assert self._address is not None
        return self._address

    @property
    def error(self) -> Optional[BaseException]:
        if self._start_error is not None:
            return self._start_error
        return self.server.error if self.server is not None else None

    def alive(self) -> bool:
        return self._thread.is_alive()

    def shutdown(self, timeout: float = 30.0) -> None:
        if self._thread.is_alive() and self.server is not None:
            try:
                self.server.request_shutdown_threadsafe()
            except RuntimeError:
                pass  # loop already gone
        self.join(timeout)

    def join(self, timeout: float = 30.0) -> None:
        self._thread.join(timeout)
