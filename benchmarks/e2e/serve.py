"""The two served workloads: a ``repro serve`` child driven over TCP.

The daemon is the real CLI in a child process, booted from a trace file
the benchmark writes; the load comes from this process, two connections on
two threads (the box has two cores).  ``setup_s`` is spawn -> ready-file,
taken over several boots.  After the window the acked ledger is checked
against an 8x8 sweep of fresh reads, the child is SIGKILLed, and
``recover()`` of its WAL directory must return the acked writes.

What "the acked writes" means is set by the sync policy.  Under the CLI's
default ``group:8`` the WAL stages up to seven appended records in the
process's own buffer between group commits and acks them all the same, so a
kill may drop that staged tail; recovery must then equal the acked ledger
*minus at most a seven-record suffix in ack order*.  Anything else missing
is a lost acked write.  A process kill leaves the OS page cache intact, so
nothing here can lose bytes the daemon already handed to the kernel;
torn-tail loss stays the chaos harness's job.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

from repro.citysim import Trace
from repro.core.geometry import Rect
from repro.durability import DurabilityManager, recover
from repro.engine import make_index
from repro.health import verify_index
from repro.resilience.client import ResilientServeClient
from repro.serve import EngineService, ReplicaSet, ServeClient
from repro.serve.bench import sweep_cells, sweep_server
from repro.storage import Pager
from repro.workload.queries import QueryWorkload

from . import SRC, spec
from .inputs import RANGE, Inputs, Op, Size
from .oracle import Oracle, state_mismatches
from .outcome import Outcome, keep_applicable, ratio, untraced_layers
from .pacer import LATE_AFTER_S, run_paced
from .probes import trace_serve_codec
from .spans import SpanRecorder, merge_totals
from .stats import latency_ms

CONNECTIONS = 2
SETUP_REPS = 3
READY_TIMEOUT_S = 60.0
SWEEP_GRID = 8
#: Records per WAL group commit (``--sync-policy group:N``, the CLI default).
SYNC_GROUP = 8
#: Updates the in-process probes replay (WAL append, apply).
PROBE_UPDATES = 4000
PROBE_FORKS = 5
#: Range reads cover 0.1 % of the city, the paper's Table-1 query size.
RANGE_AREA = 0.001


@dataclass(frozen=True)
class ServeWorkload:
    replicas: int
    refresh_s: float
    updates_per_range: int
    #: Aggregate schedule in ops/s; ``None`` = closed loop.
    paced_rate: Optional[float]
    #: Ops per second the generated stream can feed (closed loop only).
    rate_ceiling: float
    #: Read through the writer (``fresh``) or from the replica.
    fresh_reads: bool


CONFIGS: Dict[str, ServeWorkload] = {
    spec.SERVE_WRITE_CLOSED: ServeWorkload(
        replicas=0, refresh_s=0.25, updates_per_range=10, paced_rate=None,
        rate_ceiling=6_500, fresh_reads=True,
    ),
    spec.SERVE_PACED_REPLICA: ServeWorkload(
        replicas=1, refresh_s=0.25, updates_per_range=4, paced_rate=1500.0,
        rate_ceiling=1500.0, fresh_reads=False,
    ),
}


def updates_needed(config: ServeWorkload, seconds: float) -> int:
    """Updates that feed the window at ``rate_ceiling`` ops/s, with 5 % to
    spare because ``oid % CONNECTIONS`` does not split the stream evenly."""
    share = config.updates_per_range / (config.updates_per_range + 1)
    return int(config.rate_ceiling * seconds * share * 1.05) + 1


# -- the daemon child ---------------------------------------------------------


@dataclass
class Daemon:
    proc: subprocess.Popen
    host: str
    port: int
    ready_s: float
    wal_dir: Path


def write_load_trace(inputs: Inputs, path: Path) -> None:
    """The trace file the daemon boots from: every object's load position."""
    trace = Trace()
    for oid, point in inputs.load.items():
        trace.add(oid, point, inputs.load_time)
    trace.save(path)


def split_cpus() -> Tuple[set, set]:
    """-> (CPUs for the load generator, CPUs for the daemon).

    Left to the scheduler, daemon and client threads share a core in some
    runs and not in others, and the median round trip moves by a fifth
    between them.  With two or more CPUs the daemon gets the last one to
    itself; with one (or no affinity support) nothing is pinned.
    """
    if not hasattr(os, "sched_getaffinity"):
        return set(), set()
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(), set()
    return set(cpus[:-1]), {cpus[-1]}


def spawn(
    run_dir: Path, tag: str, trace_csv: Path, config: ServeWorkload, daemon_cpus: set
) -> Daemon:
    """Start ``repro serve`` and wait for its ready file."""
    wal_dir = run_dir / f"wal-{tag}"
    ready = run_dir / f"ready-{tag}.json"
    argv = [
        sys.executable, "-m", "repro", "serve", str(trace_csv),
        "--history", "1", "--kind", "lazy", "--port", "0",
        "--replicas", str(config.replicas), "--refresh", str(config.refresh_s),
        "--wal-dir", str(wal_dir), "--sync-policy", f"group:{SYNC_GROUP}",
        "--ready-file", str(ready),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    log = open(run_dir / f"daemon-{tag}.log", "wb")
    t0 = perf_counter()
    try:
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        if daemon_cpus:
            # Before the child has started a thread: they all inherit it.
            os.sched_setaffinity(proc.pid, daemon_cpus)
    finally:
        log.close()
    while not ready.exists():
        if proc.poll() is not None or perf_counter() - t0 > READY_TIMEOUT_S:
            kill(proc)
            raise RuntimeError(
                f"daemon {tag} never became ready: "
                + (run_dir / f"daemon-{tag}.log").read_text(errors="replace")[-2000:]
            )
        time.sleep(0.002)
    ready_s = perf_counter() - t0
    address = json.loads(ready.read_text())
    return Daemon(proc, address["host"], int(address["port"]), ready_s, wal_dir)


def kill(proc: subprocess.Popen) -> None:
    """SIGKILL and reap: no drain, no final checkpoint -- a crash."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    proc.wait()


def daemon_usage(pid: int) -> Tuple[float, float]:
    """-> (CPU seconds so far, peak resident MB) of the daemon, from /proc.

    ``getrusage(RUSAGE_CHILDREN)`` will not do: a child's peak RSS starts
    at its parent's (the high-water mark survives ``exec``), so it reports
    the benchmark's heap, not the daemon's.  Zeros where /proc is absent.
    """
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0, 0.0
    # Fields after "pid (comm)": utime and stime are the 12th and 13th.
    fields = stat.rsplit(")", 1)[1].split()
    cpu_s = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    peak_kb = next(
        (int(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM:")),
        0,
    )
    return cpu_s, peak_kb / 1024.0


# -- the load -----------------------------------------------------------------


@dataclass
class Connection:
    """One client thread's share of the load and what came back."""

    ops: List[Op]
    client: ResilientServeClient
    recorder: Optional[SpanRecorder]
    update_lat: List[float] = field(default_factory=list)
    range_lat: List[float] = field(default_factory=list)
    #: ``(rect, matches, served by a replica?)`` per answered range read.
    answers: List[Tuple[Rect, list, bool]] = field(default_factory=list)
    #: ``(ack seq, oid, point)`` per acknowledged update.
    acked: List[Tuple[int, int, tuple]] = field(default_factory=list)
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    lateness_s: List[float] = field(default_factory=list)
    finished_at: float = 0.0


def split_ops(
    inputs: Inputs, config: ServeWorkload, seed: int, n_updates: int
) -> List[List[Op]]:
    """Per-connection op lists: object ``oid`` always travels on connection
    ``oid % CONNECTIONS`` (so its updates stay ordered and the final state
    does not depend on how the connections interleave), with one range read
    after every ``updates_per_range`` updates."""
    updates = inputs.updates[:n_updates]
    wanted = len(updates) // config.updates_per_range + CONNECTIONS
    workload = QueryWorkload(inputs.domain, rate=1.0, size_fraction=RANGE_AREA, seed=seed + 2)
    rects = [query.rect for query in workload.take(wanted)]
    per_conn: List[List[Op]] = [[] for _ in range(CONNECTIONS)]
    since_read = [0] * CONNECTIONS
    for update in updates:
        conn = update[1] % CONNECTIONS
        per_conn[conn].append(update)
        since_read[conn] += 1
        if since_read[conn] == config.updates_per_range and rects:
            per_conn[conn].append((update[0], RANGE, rects.pop()))
            since_read[conn] = 0
    return per_conn


def _request(conn: Connection, config: ServeWorkload, op: Op) -> None:
    """One op over the wire; failures are recorded, never raised."""
    t, who, payload = op
    conn.attempted += 1
    recorder = conn.recorder
    kind = "update" if who >= 0 else "range"
    if recorder is not None:
        recorder.begin_op(conn.attempted - 1, kind)
        recorder.push(f"serve.client.rtt.{kind}")
    try:
        if who >= 0:
            reply = conn.client.update(who, payload, t)
            conn.acked.append((reply["seq"], who, payload))
        else:
            reply = conn.client.range(payload.lo, payload.hi, fresh=config.fresh_reads)
            conn.answers.append(
                (payload, reply["matches"], reply["staleness"] is not None)
            )
    except Exception as exc:  # boundary: one failed op must not stop the load
        conn.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
    finally:
        if recorder is not None:
            recorder.pop()


def _closed_loop(conn, config, barrier, seconds, local) -> None:
    local.recorder = conn.recorder
    clock = perf_counter
    barrier.wait()
    deadline = clock() + seconds
    for op in conn.ops:
        t0 = clock()
        _request(conn, config, op)
        t1 = clock()
        (conn.update_lat if op[1] >= 0 else conn.range_lat).append(t1 - t0)
        if t1 >= deadline:
            break
    conn.finished_at = clock()


def _open_loop(conn, config, barrier, seconds, local) -> None:
    local.recorder = conn.recorder
    rate = config.paced_rate / CONNECTIONS
    ops = conn.ops[: int(rate * seconds)]
    barrier.wait()
    run = run_paced(lambda op: _request(conn, config, op), ops, rate, perf_counter())
    for op, latency in zip(ops, run.latencies_s):
        (conn.update_lat if op[1] >= 0 else conn.range_lat).append(latency)
    conn.lateness_s = run.lateness_s
    conn.finished_at = run.finished_at


# -- one pass -----------------------------------------------------------------


@dataclass
class _Pass:
    ready_times: List[float]
    window_s: float
    loadgen_cpu_s: float
    connections: List[Connection]
    stats: dict
    sweep_wrong: int
    recovery_s: float
    recover_records: int
    #: Acked records still staged in the daemon's WAL buffer at the kill.
    unsynced_tail: int
    acked_lost: int
    violations: int
    verify_s: float
    #: The daemon's CPU time inside the window.
    daemon_cpu_s: float
    peak_rss_mb: float
    primary_reads: int
    problems: List[str]


def _serve_pass(
    workload: str,
    inputs: Inputs,
    per_conn: List[List[Op]],
    seed: int,
    seconds: float,
    run_dir: Path,
    traced: bool,
) -> _Pass:
    config = CONFIGS[workload]
    trace_csv = run_dir / "load.csv"
    write_load_trace(inputs, trace_csv)
    tag = "traced" if traced else "plain"
    loadgen_cpus, daemon_cpus = split_cpus()

    # Boots that exist only to be timed: up, ready, killed.
    ready_times: List[float] = []
    for rep in range(SETUP_REPS - 1):
        boot = spawn(run_dir, f"{tag}-boot{rep}", trace_csv, config, daemon_cpus)
        kill(boot.proc)
        ready_times.append(boot.ready_s)

    daemon = spawn(run_dir, tag, trace_csv, config, daemon_cpus)
    ready_times.append(daemon.ready_s)
    problems: List[str] = []
    local = threading.local()
    undo = trace_serve_codec(local) if traced else None
    connections = [
        Connection(
            ops=ops,
            client=ResilientServeClient(
                daemon.host, daemon.port,
                client_id=f"bench-{i}", rng=random.Random(seed * CONNECTIONS + i),
            ),
            recorder=SpanRecorder() if traced else None,
        )
        for i, ops in enumerate(per_conn)
    ]
    everywhere = os.sched_getaffinity(0) if loadgen_cpus else None
    try:
        if loadgen_cpus:
            os.sched_setaffinity(0, loadgen_cpus)
        barrier = threading.Barrier(CONNECTIONS + 1)
        body = _open_loop if config.paced_rate else _closed_loop
        threads = [
            threading.Thread(target=body, args=(conn, config, barrier, seconds, local))
            for conn in connections
        ]
        for conn in connections:
            if conn.recorder is not None:
                conn.recorder.on = True
        for thread in threads:
            thread.start()
        cpu_load0 = process_time()
        daemon_cpu0, _peak = daemon_usage(daemon.proc.pid)
        barrier.wait()
        start = perf_counter()
        for thread in threads:
            thread.join()
        window_s = max(conn.finished_at for conn in connections) - start
        loadgen_cpu_s = process_time() - cpu_load0
        daemon_cpu1, peak_rss_mb = daemon_usage(daemon.proc.pid)
        for conn in connections:
            if conn.recorder is not None:
                conn.recorder.on = False
            conn.client.close()

        # Acked ledger vs. what the daemon serves (fresh reads drain the
        # writer queue first, so the sweep sees every acked write).
        acked = sorted(ack for conn in connections for ack in conn.acked)
        model = dict(inputs.load)
        model.update((oid, point) for _seq, oid, point in acked)
        oracle = Oracle(model)
        cells = sweep_server(daemon.host, daemon.port, inputs.domain, SWEEP_GRID)
        sweep_wrong = sum(
            not oracle.range_ok(Rect(lo, hi), cell)
            for (lo, hi), cell in zip(sweep_cells(inputs.domain, SWEEP_GRID), cells)
        )
        with ServeClient(daemon.host, daemon.port) as client:
            stats = client.stats()
    finally:
        if everywhere is not None:
            os.sched_setaffinity(0, everywhere)
        if undo is not None:
            undo()
        kill(daemon.proc)

    t0 = perf_counter()
    recovered, report = recover(daemon.wal_dir)
    recovery_s = perf_counter() - t0
    unsynced_tail, acked_lost = _recovery_gap(
        inputs.load, acked, list(recovered.range_search(inputs.domain))
    )
    verify = verify_index(recovered)
    if sweep_wrong:
        problems.append(f"{sweep_wrong} sweep cells differ from the acked ledger")
    if acked_lost:
        problems.append(
            f"{acked_lost} acked positions missing after recover() beyond the "
            f"{SYNC_GROUP - 1}-record staged tail"
        )
    if not verify.ok:
        problems.append(f"verify_index after recover(): {verify.summary()}")

    n_ranges = sum(len(conn.answers) for conn in connections)
    return _Pass(
        ready_times=ready_times,
        window_s=window_s,
        loadgen_cpu_s=loadgen_cpu_s,
        connections=connections,
        stats=stats,
        sweep_wrong=sweep_wrong,
        recovery_s=recovery_s,
        recover_records=report.records_replayed,
        unsynced_tail=unsynced_tail,
        acked_lost=acked_lost,
        violations=len(verify.violations),
        verify_s=verify.elapsed_s,
        daemon_cpu_s=daemon_cpu1 - daemon_cpu0,
        peak_rss_mb=peak_rss_mb,
        primary_reads=SWEEP_GRID * SWEEP_GRID + (n_ranges if config.fresh_reads else 0),
        problems=problems,
    )


def _recovery_gap(load, acked, recovered_pairs) -> Tuple[int, int]:
    """-> (staged tail dropped, acked positions lost beyond it).

    Tries every allowed cut: the ledger without its last k acked records,
    k < SYNC_GROUP.  An exact match at some k means nothing was lost that
    the sync policy had promised; otherwise the smallest mismatch counts.
    """
    cut = max(0, len(acked) - (SYNC_GROUP - 1))
    model = dict(load)
    model.update((oid, point) for _seq, oid, point in acked[:cut])
    best = (0, state_mismatches(model, recovered_pairs))
    for k, (_seq, oid, point) in enumerate(acked[cut:], start=1):
        model[oid] = point
        wrong = state_mismatches(model, recovered_pairs)
        if wrong <= best[1]:
            best = (k, wrong)
    applied_of_tail, lost = best
    return len(acked) - cut - applied_of_tail, lost


def _wrong_answers(inputs: Inputs, n_updates: int, done: _Pass) -> int:
    """Range answers that hold a point outside the rectangle or a position
    the object never reported.  (Which of its positions an object shows
    depends on how two connections interleave, and on replica staleness,
    so exact contents are checked by the post-run sweep instead.)"""
    reported: Dict[int, set] = {oid: {tuple(p)} for oid, p in inputs.load.items()}
    for _t, oid, point in inputs.updates[:n_updates]:
        reported[oid].add(point)
    wrong = 0
    for conn in done.connections:
        for rect, matches, _replica in conn.answers:
            wrong += any(
                not rect.contains_point(pos) or tuple(pos) not in reported[oid]
                for oid, pos in matches
            )
    return wrong


def _metric_mean(stats: dict, name: str) -> float:
    return float(stats["metrics"]["values"].get(name, {}).get("mean", 0.0))


def _end_to_end(workload: str, done: _Pass, size: Size, failed: int, attempted: int):
    update_lat = [lat for conn in done.connections for lat in conn.update_lat]
    range_lat = [lat for conn in done.connections for lat in conn.range_lat]
    update = latency_ms(update_lat, (50, 99), size.min_beyond)
    query = latency_ms(range_lat, (50, 99), size.min_beyond)
    service = done.stats["service"]
    io = service["io"]
    metrics = {
        "setup_s": statistics.median(done.ready_times),
        "update_ops_s": len(update_lat) / done.window_s,
        "update_p50_ms": update[50],
        "update_p99_ms": update[99],
        "query_p50_ms": query[50],
        "query_p99_ms": query[99],
        "ios_per_update": ratio(io.get("update", {}).get("total", 0), service["applied"]),
        "ios_per_query": ratio(io.get("query", {}).get("total", 0), done.primary_reads),
        "recovery_s": done.recovery_s,
        "failed_ops_share": failed / attempted,
    }
    samples = {"update": len(update_lat), "query": len(range_lat), "knn": 0}
    return keep_applicable(workload, metrics), samples


def _daemon_layers(config: ServeWorkload, done: _Pass) -> Dict[str, float]:
    """What the daemon's always-on ``stats`` op and the OS say about it."""
    stats = done.stats
    counters = stats["metrics"]["counters"]
    service = stats["service"]
    wal = service["durability"]["wal"]
    acked = service["acked"]
    clients = [conn.client.counters for conn in done.connections]
    lateness = [lag for conn in done.connections for lag in conn.lateness_s]
    ops = sum(conn.attempted for conn in done.connections)
    out = {
        "durability.fsyncs_per_update": ratio(wal["fsyncs"], acked),
        "durability.wal_bytes_per_update": ratio(wal["bytes_written"], acked),
        "durability.checkpoints": float(service["durability"]["checkpoints_taken"]),
        "durability.recover_records": float(done.recover_records),
        "durability.unsynced_tail": float(done.unsynced_tail),
        "durability.acked_lost": float(done.acked_lost),
        "serve.server.handler_s_mean": _metric_mean(stats, "serve.op.update.latency_s"),
        "serve.writer.apply_s_mean": _metric_mean(stats, "serve.writer.apply_s"),
        "serve.writer.batch_mean": _metric_mean(stats, "serve.writer.batch"),
        "serve.queue.depth_mean": _metric_mean(stats, "serve.queue.depth"),
        "serve.rejected": float(
            sum(v for k, v in counters.items() if k.startswith("serve.rejected."))
        ),
        "serve.daemon_cpu_us_per_op": 1e6 * ratio(done.daemon_cpu_s, ops),
        "serve.daemon_peak_rss_mb": done.peak_rss_mb,
        "serve.replica.refreshes": float(counters.get("serve.replica.refresh", 0)),
        "serve.replica.lag_ops_mean": _metric_mean(stats, "serve.replica.lag_ops"),
        # Counted from the replies: the daemon's own tally restarts with
        # every replica generation.
        "serve.replica.reads": float(
            sum(replica for conn in done.connections for _r, _m, replica in conn.answers)
        ),
        "resilience.retries": float(sum(c["retries"] for c in clients)),
        "resilience.reconnects": float(sum(c["reconnects"] for c in clients)),
        "resilience.dedup_acks": float(sum(c["dedup_acks"] for c in clients)),
        "loadgen.cpu_s": done.loadgen_cpu_s,
    }
    if config.paced_rate:
        late = sum(1 for lag in lateness if lag > LATE_AFTER_S)
        out["loadgen.late_share"] = ratio(late, len(lateness))
        out["loadgen.max_lateness_ms"] = 1e3 * max(lateness, default=0.0)
    return out


def _client_layers(done: _Pass, handler_s_mean: float) -> Tuple[Dict[str, float], List[dict]]:
    """Client-side spans of the traced pass, per acked update."""
    merged = merge_totals(conn.recorder for conn in done.connections)
    rtt = merged.mean_s("serve.client.rtt.update")
    n = merged.count("serve.client.rtt.update")
    encode = ratio(merged.total_s("serve.client.encode.update"), n)
    decode = ratio(merged.total_s("serve.client.decode.update"), n)
    return (
        {
            "serve.client.encode_s_mean": encode,
            "serve.client.decode_s_mean": decode,
            "serve.client.rtt_s_mean": rtt,
            # What is left of a round trip once the client's codec and the
            # daemon's handler are taken out: TCP, loop scheduling, the GIL.
            "serve.residual_s_mean": rtt - encode - decode - handler_s_mean,
        },
        merged.kept,
    )


def _inline_probes(inputs: Inputs, run_dir: Path, n_updates: int, batch: int) -> Dict[str, float]:
    """The daemon's inner steps replayed in this process, where they can be
    timed one by one: WAL append (group:8), writer apply, and the snapshot
    fork + replica install behind every refresh."""
    pager = Pager()
    index = make_index("lazy", pager, inputs.domain)
    manager = DurabilityManager(run_dir / "probe-wal", sync="group:8")
    service = EngineService(index, pager, "lazy", inputs.domain, durability=manager)
    try:
        service.load(inputs.load, now=inputs.load_time)
        positions = dict(inputs.load)
        append_s = 0.0
        apply_s = 0.0
        pending: list = []
        updates = inputs.updates[: min(n_updates, PROBE_UPDATES)]
        for seq, (t, oid, point) in enumerate(updates, start=1):
            old = positions[oid]
            t0 = perf_counter()
            manager.log_update(oid, old, point, t, client="probe", rid=seq)
            append_s += perf_counter() - t0
            positions[oid] = point
            pending.append((oid, old, point, t, seq))
            if len(pending) >= batch:
                t0 = perf_counter()
                service.apply(pending)
                apply_s += perf_counter() - t0
                pending = []
        applied = len(updates) - len(pending)
        fork_s, install_s = [], []
        replicas = ReplicaSet(1, inputs.domain)
        for _ in range(PROBE_FORKS):
            t0 = perf_counter()
            seq, document = service.fork_document()
            t1 = perf_counter()
            replicas.install(document, seq)
            fork_s.append(t1 - t0)
            install_s.append(perf_counter() - t1)
    finally:
        service.close_durability()
    return {
        "durability.append_s_mean": ratio(append_s, len(updates)),
        "serve.probe.apply_s_mean": ratio(apply_s, applied),
        "serve.replica.fork_s": statistics.median(fork_s),
        "serve.replica.install_s": statistics.median(install_s),
    }


def run(
    workload: str,
    inputs: Inputs,
    seed: int,
    seconds: float,
    size: Size,
    run_dir: Path,
    traced: bool,
) -> Tuple[Outcome, List[dict]]:
    """One served workload: the untraced pass and its checks, then -- when
    asked -- a traced pass plus the in-process probes.  Returns the outcome
    and the kept client spans."""
    config = CONFIGS[workload]
    n_updates = min(len(inputs.updates), updates_needed(config, seconds))
    per_conn = split_ops(inputs, config, seed, n_updates)
    done = _serve_pass(workload, inputs, per_conn, seed, seconds, run_dir, traced=False)
    attempted = sum(conn.attempted for conn in done.connections)
    errors = [e for conn in done.connections for e in conn.errors]
    failed = len(errors) + _wrong_answers(inputs, n_updates, done)
    failed += done.sweep_wrong + done.acked_lost
    problems = list(done.problems)
    problems.extend(errors[:5])
    notes = []
    if not config.paced_rate and any(
        conn.attempted == len(conn.ops) for conn in done.connections
    ):
        notes.append("the op stream ran out before the window did; raise rate_ceiling")
    end_to_end, samples = _end_to_end(workload, done, size, failed, attempted)
    layers = untraced_layers(inputs, end_to_end, done.verify_s, done.violations)
    kept: List[dict] = []
    if traced:
        second = _serve_pass(workload, inputs, per_conn, seed, seconds, run_dir, traced=True)
        problems.extend(f"traced pass: {p}" for p in second.problems)
        layers.update(_daemon_layers(config, second))
        client_layers, kept = _client_layers(second, layers["serve.server.handler_s_mean"])
        layers.update(client_layers)
        batch = max(1, round(layers["serve.writer.batch_mean"]))
        layers.update(_inline_probes(inputs, run_dir, n_updates, batch))
        layers["bench.traced_window_s"] = second.window_s
        plain_rate = samples["update"] / done.window_s
        traced_rate = sum(len(c.update_lat) for c in second.connections) / second.window_s
        layers["bench.trace_overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1.0)
    outcome = Outcome(workload, end_to_end, layers, samples, attempted, failed, problems, notes)
    return outcome, kept
