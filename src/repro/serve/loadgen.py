"""Multi-process client load generator for the serving daemon.

Replays a citysim trace's online window against a running daemon: the
trace's updates and a deterministic :class:`~repro.workload.QueryWorkload`
are merged into one timeline, partitioned across N client processes --
updates by ``oid % N`` so each object's update order is preserved by its
one owning client, queries round-robin -- and each client plays its slice
as fast as the daemon admits it, recording one end-to-end latency sample
per op (retries included: the client-observed latency is the number that
matters under load shedding).

Each client is a :class:`~repro.resilience.ResilientServeClient`: writes
carry ``(client_id, rid)`` idempotency stamps, a ``RETRY_AFTER`` response
is retried after a capped *full-jitter* backoff (the server's hint raises
the jitter ceiling, it never becomes a lockstep sleep -- N clients
sleeping exactly ``retry_after`` re-arrive as the same thundering herd
that was just shed), and connection loss reconnects transparently.  A
logical op that exhausts its retries or its deadline is dropped and said
so; acks are split into first-try and retried so shed-and-recover
behaviour is visible in the report.  p50/p99/max are computed here from
the raw samples by nearest-rank (the obs ``Summary`` keeps only
count/mean/min/max -- see EXPERIMENTS.md for the methodology note).

Process mode is the default (real client concurrency, one process per
client, fork-preferred); ``mode="thread"`` exists for fast in-process
tests and single-CPU smoke runs.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import random
import threading
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.citysim import Trace
from repro.core.geometry import Rect
from repro.resilience import (
    BreakerOpen,
    DeadlineExceeded,
    ResilientServeClient,
    RetryPolicy,
)
from repro.serve.protocol import ServeError
from repro.workload import QueryWorkload

#: Loadgen op tuples (plain data -- they cross process boundaries):
#: ("update", oid, x, y, t) and ("range", lx, ly, hx, hy, fresh).
Op = tuple


def build_ops(
    trace: Trace,
    n_history: int,
    domain: Rect,
    *,
    query_ratio: float = 100.0,
    query_extent: float = 0.001,
    seed: int = 0,
    fresh_queries: bool = False,
) -> List[Op]:
    """One merged update+query timeline from the trace's online window."""
    updates = [
        ("update", rec.oid, rec.point[0], rec.point[1], rec.t)
        for rec in trace.online_updates(n_history)
    ]
    if not updates:
        raise ValueError("trace has no online samples past the history length")
    ops: List[Tuple[float, int, Op]] = [
        (up[4], i, up) for i, up in enumerate(updates)
    ]
    if query_ratio > 0:
        t_start, t_end = trace.online_span(n_history)
        span = max(t_end - t_start, 1e-9)
        rate = len(updates) / span / query_ratio
        queries = QueryWorkload(
            domain, rate, query_extent, seed=seed
        ).between(t_start, t_end)
        for j, query in enumerate(queries):
            ops.append(
                (
                    query.t,
                    len(updates) + j,
                    (
                        "range",
                        query.rect.lo[0],
                        query.rect.lo[1],
                        query.rect.hi[0],
                        query.rect.hi[1],
                        fresh_queries,
                    ),
                )
            )
    ops.sort(key=lambda e: (e[0], e[1]))
    return [op for _t, _i, op in ops]


def split_ops(ops: Sequence[Op], n_clients: int) -> List[List[Op]]:
    """Partition the timeline: updates by ``oid % N``, queries round-robin.

    Per-object update order is preserved inside its owning client's slice,
    so the daemon's final state is the same as the inline run's no matter
    how the clients' requests interleave (last write per object wins, and
    each object has exactly one writer).
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    slices: List[List[Op]] = [[] for _ in range(n_clients)]
    qi = 0
    for op in ops:
        if op[0] == "update":
            slices[op[1] % n_clients].append(op)
        else:
            slices[qi % n_clients].append(op)
            qi += 1
    return slices


def _run_client(
    host: str,
    port: int,
    ops: Sequence[Op],
    max_retries: int,
    backoff_cap: float,
    idx: int = 0,
    seed: int = 0,
) -> Dict[str, object]:
    """One client slice on a :class:`ResilientServeClient`.

    The client handles the whole retry discipline (stamps, jittered
    backoff, reconnect); this loop only classifies terminal outcomes.
    ``idx``/``seed`` make both the client identity and its jitter stream
    deterministic per slice.
    """
    latencies: Dict[str, List[float]] = {"update": [], "range": []}
    dropped = errors = 0
    policy = RetryPolicy(
        max_attempts=max(1, max_retries + 1), backoff_cap=backoff_cap
    )
    t_start = perf_counter()
    with ResilientServeClient(
        host,
        port,
        client_id=f"lg-{idx}",
        policy=policy,
        rng=random.Random((seed << 16) ^ idx),
    ) as client:
        for op in ops:
            kind = op[0]
            t0 = perf_counter()
            try:
                if kind == "update":
                    client.update(op[1], (op[2], op[3]), op[4])
                else:
                    client.range(
                        (op[1], op[2]), (op[3], op[4]), fresh=bool(op[5])
                    )
            except (BreakerOpen, DeadlineExceeded, ServeError):
                # Retries/deadline exhausted on a shedding or draining
                # daemon: the op is dropped (for a stamped write this is
                # *ambiguous*, which is fine here -- loadgen measures
                # throughput; the chaos harness is what resolves
                # ambiguity by re-driving the same stamp).
                dropped += 1
            except (ConnectionError, OSError):
                errors += 1
            latencies[kind].append(perf_counter() - t0)
        counters = dict(client.counters)
    return {
        "ops": len(ops),
        "acked": counters["acked"],
        "acked_first_try": counters["acked_first_try"],
        "acked_retried": counters["acked_retried"],
        "rejected": counters["rejects"],
        "retries": counters["retries"],
        "dropped": dropped,
        "errors": errors + counters["transport_errors"],
        "reconnects": counters["reconnects"],
        "dedup_acks": counters["dedup_acks"],
        "wall_s": perf_counter() - t_start,
        "latencies": latencies,
    }


def _client_proc_main(
    result_queue,
    idx: int,
    host: str,
    port: int,
    ops: Sequence[Op],
    max_retries: int,
    backoff_cap: float,
    seed: int,
) -> None:
    try:
        result = _run_client(
            host, port, ops, max_retries, backoff_cap, idx, seed
        )
    except Exception as exc:  # surface child failures instead of hanging
        result = {"fatal": f"{type(exc).__name__}: {exc}"}
    result_queue.put((idx, result))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted samples (q in [0, 1])."""
    if not sorted_values:
        return float("nan")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def latency_summary(values: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(values)
    if not ordered:
        return {"count": 0}
    return {
        "count": len(ordered),
        "mean_ms": sum(ordered) / len(ordered) * 1e3,
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p99_ms": percentile(ordered, 0.99) * 1e3,
        "max_ms": ordered[-1] * 1e3,
    }


def run_loadgen(
    host: str,
    port: int,
    ops: Sequence[Op],
    *,
    n_clients: int,
    mode: str = "process",
    max_retries: int = 16,
    backoff_cap: float = 0.2,
    seed: int = 0,
) -> Dict[str, object]:
    """Drive ``ops`` through ``n_clients`` concurrent clients -> summary."""
    if mode not in ("process", "thread"):
        raise ValueError(f"unknown loadgen mode {mode!r}")
    slices = [s for s in split_ops(ops, n_clients) if s]
    results: List[Optional[Dict[str, object]]] = [None] * len(slices)
    t0 = perf_counter()
    if mode == "process":
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(method)
        result_queue = ctx.SimpleQueue()
        procs = [
            ctx.Process(
                target=_client_proc_main,
                args=(
                    result_queue,
                    idx,
                    host,
                    port,
                    chunk,
                    max_retries,
                    backoff_cap,
                    seed,
                ),
                name=f"loadgen-client-{idx}",
                daemon=True,
            )
            for idx, chunk in enumerate(slices)
        ]
        for proc in procs:
            proc.start()
        for _ in procs:
            idx, result = result_queue.get()
            results[idx] = result
        for proc in procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - hung child backstop
                proc.terminate()
    else:
        def _worker(idx: int, chunk: Sequence[Op]) -> None:
            try:
                results[idx] = _run_client(
                    host, port, chunk, max_retries, backoff_cap,
                    idx, seed,
                )
            except Exception as exc:
                results[idx] = {"fatal": f"{type(exc).__name__}: {exc}"}

        threads = [
            threading.Thread(target=_worker, args=(idx, chunk), daemon=True)
            for idx, chunk in enumerate(slices)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = perf_counter() - t0
    fatal = [r["fatal"] for r in results if r and "fatal" in r]
    if fatal:
        raise RuntimeError(f"loadgen client failed: {fatal[0]}")
    done: List[Dict[str, object]] = [r for r in results if r is not None]
    merged: Dict[str, List[float]] = {"update": [], "range": []}
    for result in done:
        for kind, values in result["latencies"].items():  # type: ignore[union-attr]
            merged[kind].extend(values)
    all_samples = merged["update"] + merged["range"]
    acked = sum(int(r["acked"]) for r in done)
    rejected = sum(int(r["rejected"]) for r in done)
    attempts = acked + rejected + sum(int(r["errors"]) for r in done)
    return {
        "n_clients": n_clients,
        "ops": sum(int(r["ops"]) for r in done),
        "acked": acked,
        "acked_first_try": sum(int(r.get("acked_first_try", 0)) for r in done),
        "acked_retried": sum(int(r.get("acked_retried", 0)) for r in done),
        "rejected": rejected,
        "retries": sum(int(r["retries"]) for r in done),
        "dropped": sum(int(r["dropped"]) for r in done),
        "errors": sum(int(r["errors"]) for r in done),
        "reconnects": sum(int(r.get("reconnects", 0)) for r in done),
        "dedup_acks": sum(int(r.get("dedup_acks", 0)) for r in done),
        "reject_rate": rejected / attempts if attempts else 0.0,
        "wall_s": wall,
        "ops_per_s": acked / wall if wall > 0 else 0.0,
        "latency": {
            "all": latency_summary(all_samples),
            "update": latency_summary(merged["update"]),
            "range": latency_summary(merged["range"]),
        },
    }
