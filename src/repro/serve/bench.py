"""In-process serve benchmarking: boot daemon, replay trace, check parity.

This is the engine behind ``repro bench-serve`` and the BENCH ``serve``
section: for each client count it boots a fresh daemon (in-process, on a
background event loop), replays the trace's online window through the
multi-process load generator, then runs the acceptance checks that make
the numbers trustworthy:

* **result parity** -- after the drain, a deterministic grid query sweep
  through the daemon (``fresh`` reads) must be *identical* to the same
  sweep over an inline index that applied the same trace in timeline
  order.  Per-object update order is preserved by the loadgen's
  oid-partitioning, so the final states must match exactly no matter how
  the concurrent clients interleaved.
* **verify clean** -- ``verify_index`` over the primary after the graceful
  drain must report zero violations.

Latency percentiles come from the loadgen's raw samples (nearest-rank);
sustained ops/sec is acked ops over loadgen wall time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.citysim import Trace
from repro.core.geometry import Rect
from repro.engine import ShardedIndex
from repro.health import verify_index
from repro.serve.loadgen import Op, build_ops, run_loadgen
from repro.serve.protocol import ServeClient
from repro.serve.server import ServeConfig, ServerThread
from repro.serve.service import EngineService
from repro.storage import Pager
from repro.workload import IndexKind, make_index

#: One sweep cell's canonical result: sorted (oid, (x, y)) tuples.
SweepCell = List[Tuple[int, Tuple[float, float]]]


def build_primary(
    kind: str,
    domain: Rect,
    *,
    histories=None,
    query_rate: float = 50.0,
    shards: int = 1,
):
    """Construct the index + store exactly as the daemon and the inline
    reference both must (identical construction => comparable results)."""
    if shards > 1:
        index = ShardedIndex(
            kind,
            domain,
            shards,
            histories=histories if kind == IndexKind.CT else None,
            query_rate=query_rate,
        )
        return index, index.pager
    pager = Pager()
    index = make_index(
        kind,
        pager,
        domain,
        histories=histories if kind == IndexKind.CT else None,
        query_rate=query_rate,
    )
    return index, pager


def sweep_cells(domain: Rect, n: int = 8) -> List[Tuple[Tuple[float, float], Tuple[float, float]]]:
    """An n x n grid of query rectangles tiling the domain."""
    (dlx, dly), (dhx, dhy) = domain.lo, domain.hi
    wx = (dhx - dlx) / n
    wy = (dhy - dly) / n
    cells = []
    for i in range(n):
        for j in range(n):
            cells.append(
                (
                    (dlx + i * wx, dly + j * wy),
                    (dlx + (i + 1) * wx, dly + (j + 1) * wy),
                )
            )
    return cells


def _canonical(matches) -> SweepCell:
    return sorted(
        (int(oid), (float(pos[0]), float(pos[1]))) for oid, pos in matches
    )


def sweep_index(index, domain: Rect, n: int = 8) -> List[SweepCell]:
    return [
        _canonical(index.range_search(Rect(lo, hi)))
        for lo, hi in sweep_cells(domain, n)
    ]


def sweep_server(host: str, port: int, domain: Rect, n: int = 8) -> List[SweepCell]:
    with ServeClient(host, port) as client:
        return [
            _canonical(
                (m[0], (m[1][0], m[1][1]))
                for m in client.range(lo, hi, fresh=True)["matches"]
            )
            for lo, hi in sweep_cells(domain, n)
        ]


def inline_reference(
    kind: str,
    domain: Rect,
    positions,
    ops: Sequence[Op],
    *,
    histories=None,
    query_rate: float = 50.0,
    load_time: Optional[float] = None,
    shards: int = 1,
):
    """Apply the ops timeline inline (single actor, timeline order)."""
    index, _store = build_primary(
        kind,
        domain,
        histories=histories,
        query_rate=query_rate,
        shards=shards,
    )
    ledger: Dict[int, Tuple[float, float]] = {}
    for oid, point in positions.items():
        pos = (float(point[0]), float(point[1]))
        index.insert(oid, pos, now=load_time)
        ledger[oid] = pos
    for op in ops:
        if op[0] != "update":
            continue
        oid, x, y, t = op[1], op[2], op[3], op[4]
        old = ledger.get(oid)
        if old is None:
            index.insert(oid, (x, y), now=t)
        else:
            index.update(oid, old, (x, y), now=t)
        ledger[oid] = (x, y)
    return index


def run_serve_bench(
    trace: Trace,
    n_history: int,
    domain: Rect,
    *,
    kind: str = IndexKind.LAZY,
    client_counts: Sequence[int] = (1, 8, 32),
    queue_depth: int = 1024,
    write_batch: int = 64,
    rate: float = 0.0,
    replicas: int = 1,
    refresh_interval: float = 0.25,
    shards: int = 1,
    query_ratio: float = 100.0,
    seed: int = 0,
    loadgen_mode: str = "process",
    sweep_n: int = 8,
) -> Dict[str, object]:
    """The BENCH ``serve`` section: one run per client count + parity."""
    histories = trace.histories(n_history) if kind == IndexKind.CT else None
    positions = trace.current_positions(n_history)
    load_time = trace.load_time(n_history)
    ops = build_ops(
        trace, n_history, domain, query_ratio=query_ratio, seed=seed
    )
    reference = inline_reference(
        kind,
        domain,
        positions,
        ops,
        histories=histories,
        load_time=load_time,
        shards=shards,
    )
    expected_sweep = sweep_index(reference, domain, sweep_n)
    runs: List[Dict[str, object]] = []
    parity_all = True
    verify_all = True
    for n_clients in client_counts:
        index, store = build_primary(
            kind, domain, histories=histories, shards=shards
        )
        service = EngineService(index, store, kind, domain)
        service.load(positions, now=load_time)
        daemon = ServerThread(
            service,
            ServeConfig(
                queue_depth=queue_depth,
                write_batch=write_batch,
                rate=rate,
                replicas=replicas,
                refresh_interval=refresh_interval,
            ),
        )
        host, port = daemon.start()
        try:
            result = run_loadgen(
                host, port, ops, n_clients=n_clients, mode=loadgen_mode
            )
            served_sweep = sweep_server(host, port, domain, sweep_n)
        finally:
            daemon.shutdown()
        if daemon.error is not None:
            raise RuntimeError(
                f"daemon failed at {n_clients} clients"
            ) from daemon.error
        identical = served_sweep == expected_sweep
        report = verify_index(service.index)
        parity_all = parity_all and identical
        verify_all = verify_all and report.ok
        result.update(
            {
                "parity": identical,
                "verify_ok": report.ok,
                "acked_seq": service.acked,
                "applied_seq": service.applied,
            }
        )
        runs.append(result)
    n_updates = sum(1 for op in ops if op[0] == "update")
    return {
        "kind": kind,
        "n_updates": n_updates,
        "n_queries": len(ops) - n_updates,
        "queue_depth": queue_depth,
        "write_batch": write_batch,
        "rate": rate,
        "replicas": replicas,
        "refresh_interval": refresh_interval,
        "shards": shards,
        "loadgen_mode": loadgen_mode,
        "client_counts": list(client_counts),
        "sweep_cells": sweep_n * sweep_n,
        "parity": parity_all,
        "verify_ok": verify_all,
        "runs": runs,
    }


def format_serve_table(section: Dict[str, object]) -> str:
    """Human-readable summary of a ``run_serve_bench`` section."""
    lines = [
        f"{'clients':>8} {'ops/s':>10} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'max ms':>8} {'rejects':>8} {'parity':>7}"
    ]
    for run in section["runs"]:  # type: ignore[union-attr]
        lat = run["latency"]["all"]
        lines.append(
            f"{run['n_clients']:>8} {run['ops_per_s']:>10.1f} "
            f"{lat.get('p50_ms', float('nan')):>8.2f} "
            f"{lat.get('p99_ms', float('nan')):>8.2f} "
            f"{lat.get('max_ms', float('nan')):>8.2f} "
            f"{run['rejected']:>8} "
            f"{'ok' if run['parity'] else 'FAIL':>7}"
        )
    return "\n".join(lines)
