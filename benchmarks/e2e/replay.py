"""The four in-process workloads: one thread, closed loop, no wire.

A pass sets the index up (several times; ``setup_s`` is the median), then
replays the op list for ``--seconds``.  The first ``prefix_samples``
reports per object form a *fixed prefix*: page-I/O and space figures are
read off the ledger when the prefix ends, so they repeat exactly for a seed
however fast the machine is, while rates and latencies cover the whole
timed window.  Results are kept as returned and checked against the oracle
only after the clock has stopped.
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.builder import CTRTreeBuilder
from repro.engine import FlushPolicy, UpdateBuffer, make_index
from repro.health import verify_index
from repro.obs import tree_stats
from repro.serve import knn_search
from repro.storage import BufferPool, Pager
from repro.storage.iostats import IOCategory

from . import spec
from .inputs import KNN_K, RANGE, REPORT_INTERVAL_S, Inputs, Op, Size
from .oracle import Oracle, state_mismatches
from .outcome import Outcome, keep_applicable, ratio, untraced_layers
from .probes import (
    BUFFER_METHODS,
    HASH_METHODS,
    INDEX_METHODS,
    LSM_METHODS,
    KnnView,
    TracedStore,
    wrap_methods,
)
from .spans import SpanRecorder
from .stats import latency_ms


@dataclass(frozen=True)
class ReplayConfig:
    kind: str
    #: Span-name prefix of the index's own methods in a traced pass.
    layer: str
    #: Updates per second the generated stream can feed for the whole
    #: window (about 1.25x the rate observed here); a faster program drains
    #: the stream early, and the window ends there with a note.
    rate_ceiling: float
    #: Reports per object in the fixed prefix the I/O figures are read at.
    prefix_samples: int
    updates_per_range: float
    range_area: float
    updates_per_knn: Optional[float] = None
    batch: int = 0
    #: Buffer-pool frames per 1 000 objects (0 = no pool).  20 is about a
    #: quarter of the lazy-R-tree's pages, so the tree never fits.
    pool_per_kobj: int = 0
    setup_reps: int = 5


CONFIGS: Dict[str, ReplayConfig] = {
    spec.REPLAY_CT: ReplayConfig(
        "ct", "core", rate_ceiling=265_000, prefix_samples=100,
        updates_per_range=100, range_area=0.001, setup_reps=3,
    ),
    spec.REPLAY_LSM: ReplayConfig(
        "lsm", "lsm", rate_ceiling=26_000, prefix_samples=20,
        updates_per_range=25, range_area=0.001,
    ),
    spec.REPLAY_LAZY_BATCHED: ReplayConfig(
        "lazy", "rtree", rate_ceiling=138_000, prefix_samples=60,
        updates_per_range=100, range_area=0.001, batch=64,
    ),
    spec.REPLAY_LAZY_READS: ReplayConfig(
        "lazy", "rtree", rate_ceiling=17_000, prefix_samples=10,
        updates_per_range=1, range_area=0.01, updates_per_knn=5, pool_per_kobj=20,
    ),
}


@dataclass
class _Pass:
    """Raw material of one replay pass."""

    setup_times: List[float]
    window_s: float
    update_lat: List[float]
    range_lat: List[float]
    knn_lat: List[float]
    results: List[object]
    #: Latest position per object as the loop left it: the final-state model.
    positions: Dict[int, tuple]
    executed: int
    stream_drained: bool
    #: Ledger snapshot when the fixed prefix ended.
    prefix: Dict[str, float]
    index: object
    store: object
    pager: Pager
    buffer: Optional[UpdateBuffer]
    build_report: object
    read_amp_max: int


def _setup(config: ReplayConfig, inputs: Inputs, recorder: Optional[SpanRecorder]):
    """Inputs in hand -> an index holding every object's load position."""
    pager = Pager()
    store = pager
    if config.pool_per_kobj:
        frames = max(4, config.pool_per_kobj * len(inputs.load) // 1000)
        store = BufferPool(pager, capacity=frames)
    if recorder is not None:
        store = TracedStore(store, recorder)
    report = None
    if config.kind == "ct":
        update_rate = len(inputs.load) / REPORT_INTERVAL_S
        builder = CTRTreeBuilder(query_rate=update_rate / config.updates_per_range)
        index, report = builder.build(store, inputs.domain, inputs.histories, inputs.load)
    else:
        index = make_index(config.kind, store, inputs.domain)
        with store.stats.category(IOCategory.BUILD):
            for oid, point in inputs.load.items():
                index.insert(oid, point, now=inputs.load_time)
    return index, store, pager, report


def _instrument(config: ReplayConfig, index, buffer, recorder: SpanRecorder):
    """Install the traced pass's instance-level wrappers; returns the kNN view."""
    raw_range_search = index.range_search
    if hasattr(index, "hash"):
        wrap_methods(index.hash, "hashindex", HASH_METHODS, recorder)
    methods = LSM_METHODS if config.kind == "lsm" else INDEX_METHODS
    wrap_methods(index, config.layer, methods, recorder)
    if buffer is not None:
        wrap_methods(buffer, "engine.buffer", BUFFER_METHODS, recorder)
    return KnnView(raw_range_search, config.layer, recorder)


def _replay_pass(
    config: ReplayConfig,
    inputs: Inputs,
    ops: List[Op],
    seconds: float,
    recorder: Optional[SpanRecorder],
) -> _Pass:
    setup_times: List[float] = []
    for _ in range(config.setup_reps):
        t0 = perf_counter()
        index, store, pager, report = _setup(config, inputs, recorder)
        setup_times.append(perf_counter() - t0)

    buffer = UpdateBuffer(FlushPolicy(batch_size=config.batch)) if config.batch else None
    knn_target = index
    if recorder is not None:
        knn_target = _instrument(config, index, buffer, recorder)
    stats = store.stats
    domain = inputs.domain

    if buffer is not None:
        batch = config.batch

        def do_update(oid, old, new, t):
            buffer.put(oid, old, new, t)
            if len(buffer) >= batch:
                buffer.flush(index, "size")

        def do_range(rect):
            # The driver's read-your-writes rule: drain before serving.
            if len(buffer):
                buffer.flush(index, "query")
            with stats.category(IOCategory.QUERY):
                return index.range_search(rect)
    else:
        do_update = index.update

        def do_range(rect):
            with stats.category(IOCategory.QUERY):
                return index.range_search(rect)

    def do_knn(point):
        with stats.category(IOCategory.QUERY):
            return knn_search(knn_target, point, KNN_K, domain)

    if recorder is not None:
        do_knn = recorder.wrap(f"{config.layer}.knn", do_knn)

    positions = dict(inputs.load)
    prefix_updates = config.prefix_samples * len(inputs.load)
    update_live = stats.live(IOCategory.UPDATE)
    query_live = stats.live(IOCategory.QUERY)
    update_lat: List[float] = []
    range_lat: List[float] = []
    knn_lat: List[float] = []
    results: List[object] = []
    prefix: Dict[str, float] = {}
    lsm_probes = index if config.kind == "lsm" and recorder is not None else None
    read_amp_max = 0
    executed = 0
    n_updates = 0
    clock = perf_counter

    # The inputs are millions of long-lived tuples; parked in the permanent
    # generation they stop inflating every full collection inside the window.
    gc.collect()
    gc.freeze()
    try:
        if recorder is not None:
            recorder.on = True
        with stats.category(IOCategory.UPDATE):
            start = clock()
            deadline = start + seconds
            for t, who, payload in ops:
                if recorder is not None:
                    recorder.begin_op(executed)
                if who >= 0:
                    old = positions[who]
                    t0 = clock()
                    do_update(who, old, payload, t)
                    t1 = clock()
                    positions[who] = payload
                    update_lat.append(t1 - t0)
                    n_updates += 1
                    if n_updates == prefix_updates:
                        prefix = {
                            "updates": n_updates,
                            "ranges": len(range_lat),
                            "knns": len(knn_lat),
                            "update_ios": update_live.total,
                            "query_ios": query_live.total,
                            "pages": pager.page_count,
                        }
                elif who == RANGE:
                    if lsm_probes is not None:
                        probes0 = lsm_probes.query_run_probes
                    t0 = clock()
                    found = do_range(payload)
                    t1 = clock()
                    range_lat.append(t1 - t0)
                    results.append(found)
                    if lsm_probes is not None:
                        # Runs probed, plus the memtable when it held anything.
                        amp = lsm_probes.query_run_probes - probes0
                        amp += 1 if len(lsm_probes.memtable) else 0
                        if amp > read_amp_max:
                            read_amp_max = amp
                else:
                    t0 = clock()
                    found = do_knn(payload)
                    t1 = clock()
                    knn_lat.append(t1 - t0)
                    results.append(found)
                executed += 1
                if t1 >= deadline and prefix:
                    break
            if buffer is not None and len(buffer):
                buffer.flush(index, "final")
            window_s = clock() - start
    finally:
        if recorder is not None:
            recorder.on = False
        gc.unfreeze()

    return _Pass(
        setup_times=setup_times,
        window_s=window_s,
        update_lat=update_lat,
        range_lat=range_lat,
        knn_lat=knn_lat,
        results=results,
        positions=positions,
        executed=executed,
        stream_drained=executed == len(ops),
        prefix=prefix,
        index=index,
        store=store,
        pager=pager,
        buffer=buffer,
        build_report=report,
        read_amp_max=read_amp_max,
    )


def _check_results(inputs: Inputs, ops: List[Op], done: _Pass) -> int:
    """Replay the executed ops against the oracle; returns wrong results."""
    oracle = Oracle(inputs.load)
    wrong = 0
    results = iter(done.results)
    for _t, who, payload in ops[: done.executed]:
        if who >= 0:
            oracle.move(who, payload)
        elif who == RANGE:
            wrong += not oracle.range_ok(payload, next(results))
        else:
            wrong += not oracle.knn_ok(payload, KNN_K, next(results))
    return wrong


def _check_state(inputs: Inputs, done: _Pass) -> Tuple[int, float, List[str]]:
    """Final contents and structure -> (violations, verify seconds, problems)."""
    problems: List[str] = []
    stale = state_mismatches(done.positions, done.index.range_search(inputs.domain))
    if stale:
        problems.append(f"final state: {stale} objects differ from the model")
    report = verify_index(done.index)
    if not report.ok:
        problems.append(f"verify_index: {report.summary()}")
    return len(report.violations), report.elapsed_s, problems


def _end_to_end(
    workload: str, done: _Pass, size: Size, failed: int, attempted: int
) -> Tuple[Dict[str, float], Dict[str, int]]:
    beyond = size.min_beyond
    update = latency_ms(done.update_lat, (50, 99, 99.9), beyond)
    query = latency_ms(done.range_lat, (50, 99), beyond)
    prefix = done.prefix
    metrics = {
        "setup_s": statistics.median(done.setup_times),
        "update_ops_s": len(done.update_lat) / done.window_s,
        "update_p50_ms": update[50],
        "update_p99_ms": update[99],
        "update_p999_ms": update[99.9],
        "query_p50_ms": query[50],
        "query_p99_ms": query[99],
        "ios_per_update": prefix["update_ios"] / prefix["updates"],
        "ios_per_query": prefix["query_ios"] / max(1, prefix["ranges"] + prefix["knns"]),
        "pages_per_kobj": prefix["pages"] / (size.objects / 1000.0),
        "failed_ops_share": failed / attempted,
    }
    samples = {
        "update": len(done.update_lat),
        "query": len(done.range_lat),
        "knn": len(done.knn_lat),
    }
    if done.knn_lat:
        knn = latency_ms(done.knn_lat, (50, 99), beyond)
        metrics["knn_p50_ms"] = knn[50]
        metrics["knn_p99_ms"] = knn[99]
    return keep_applicable(workload, metrics), samples


def _structure_layers(config: ReplayConfig, done: _Pass, n_updates: int) -> Dict[str, float]:
    """Counters and shapes the program keeps itself (no spans needed)."""
    index, layer = done.index, config.layer
    shape = tree_stats(index)
    out: Dict[str, float] = {}
    if config.kind in ("ct", "lazy"):
        hits, moves = index.lazy_hits, index.relocations
        out[f"{layer}.lazy_hit_rate"] = ratio(hits, hits + moves)
        out[f"{layer}.height"] = float(shape["height"])
    if config.kind == "lazy":
        out["rtree.relocations_per_update"] = ratio(index.relocations, n_updates)
        out["rtree.avg_fill"] = float(shape["avg_fill"])
        out["rtree.dead_space_ratio"] = float(shape["mbr_dead_space_ratio"])
    if config.kind == "ct":
        report = done.build_report
        timings = report.phase_timings
        out.update(
            {
                "core.build.phase1_s": timings["phase1_qs_mining"],
                "core.build.phase2_s": timings["phase2_graph"],
                "core.build.phase3_s": timings["phase3_traffic_merge"],
                "core.build.phase4_s": timings["phase4_tree_load"],
                "core.build.ios": float(report.build_ios),
                "core.qs_regions": float(shape["qs_region_count"]),
            }
        )
    if config.kind == "lsm":
        out.update(
            {
                "lsm.flushes": float(index.flushes),
                "lsm.compactions": float(index.compaction.compactions),
                "lsm.pages_rewritten_per_update": ratio(
                    index.compaction.pages_rewritten, n_updates
                ),
                "lsm.run_count": float(index.run_count),
                "lsm.read_amp_mean": index.read_amplification,
                "lsm.read_amp_max": float(done.read_amp_max),
            }
        )
    if done.buffer is not None:
        flushed = done.buffer.stats
        out.update(
            {
                "engine.buffer.flushes": float(flushed.flushes),
                "engine.buffer.mean_batch": ratio(flushed.applied, flushed.flushes),
                "engine.buffer.coalesced_share": ratio(flushed.coalesced, flushed.buffered),
            }
        )
    return out


def _traced_layers(
    config: ReplayConfig, done: _Pass, recorder: SpanRecorder, size: Size
) -> Dict[str, float]:
    """The budget of the traced pass: self time per layer, I/O per op."""
    layer = config.layer
    n_updates = len(done.update_lat)
    n_reads = len(done.range_lat) + len(done.knn_lat)
    ledger = done.store.stats
    update_io = ledger.counter(IOCategory.UPDATE)
    query_io = ledger.counter(IOCategory.QUERY)
    layer_self = recorder.all_self_s()
    # Loop time is measured on its own -- the window minus the op latencies
    # the loop timed -- so the gap below is real: time inside an op that no
    # span claimed (the outermost wrappers' own entry and exit).
    loop_self = done.window_s - (
        sum(done.update_lat) + sum(done.range_lat) + sum(done.knn_lat)
    )
    out = _structure_layers(config, done, n_updates)
    # The first block partitions the window: every span's self time lands
    # in exactly one of these figures, and loop time is the rest.  An LSM
    # update that triggers a flush or a merge is still an update.
    update_spans = [f"{layer}.update", f"{layer}.insert"]
    if config.kind == "lsm":
        update_spans += ["lsm.flush", "lsm.compact_step"]
    out.update(
        {
            f"{layer}.update_self_s": recorder.self_s(*update_spans),
            f"{layer}.query_self_s": recorder.self_s(f"{layer}.range_search"),
            "hashindex.self_s": recorder.self_s("hashindex."),
            "storage.read_s": recorder.self_s("storage.read"),
            "storage.write_s": recorder.self_s(
                "storage.write", "storage.allocate", "storage.free"
            ),
            "bench.loop_self_s": loop_self,
            "bench.traced_window_s": done.window_s,
            "bench.budget_gap_pct": 100.0
            * abs(done.window_s - loop_self - layer_self)
            / done.window_s,
            "hashindex.calls_per_update": ratio(
                sum(recorder.count(f"hashindex.{m}") for m in HASH_METHODS), n_updates
            ),
            "storage.reads_per_update": ratio(update_io.reads, n_updates),
            "storage.writes_per_update": ratio(update_io.writes, n_updates),
            "storage.reads_per_query": ratio(query_io.reads, n_reads),
            "storage.page_count": float(done.pager.page_count),
            "storage.freed_pages": float(done.pager.freed_count),
        }
    )
    if config.updates_per_knn is not None:
        out[f"{layer}.knn_self_s"] = recorder.self_s(f"{layer}.knn")
    if config.pool_per_kobj:
        pool = done.store.inner  # the BufferPool behind the traced proxy
        out["storage.pool_hit_rate"] = pool.hit_rate
        out["storage.pool_evictions"] = float(pool.evictions)
    if config.kind == "lsm":
        # Inclusive views (they overlap the partition above): how long the
        # memtable drains and the merges behind them took, children and all.
        compact_s = recorder.total_s("lsm.compact_step")
        out["lsm.compact_s"] = compact_s
        out["lsm.flush_s"] = recorder.total_s("lsm.flush") - compact_s
    if done.buffer is not None:
        flushes = recorder.totals.get("engine.buffer.flush")
        out["engine.buffer.put_s"] = recorder.self_s("engine.buffer.put")
        out["engine.buffer.flush_s"] = recorder.self_s("engine.buffer.flush")
        if flushes is not None and flushes.durations:
            out["engine.buffer.flush_p99_ms"] = latency_ms(
                flushes.durations, (99,), size.min_beyond
            )[99]
    return out


def run(
    workload: str,
    inputs: Inputs,
    ops: List[Op],
    seconds: float,
    size: Size,
    recorder: Optional[SpanRecorder],
) -> Outcome:
    """One workload: the untraced pass, its checks, and -- when a recorder
    is given -- a second, traced pass that yields the per-layer budget."""
    config = CONFIGS[workload]
    done = _replay_pass(config, inputs, ops, seconds, None)
    failed = _check_results(inputs, ops, done)
    violations, verify_s, problems = _check_state(inputs, done)
    attempted = done.executed
    end_to_end, samples = _end_to_end(workload, done, size, failed, attempted)
    layers = untraced_layers(inputs, end_to_end, verify_s, violations)
    if recorder is not None:
        traced = _replay_pass(config, inputs, ops, seconds, recorder)
        layers.update(_traced_layers(config, traced, recorder, size))
        untraced_rate = len(done.update_lat) / done.window_s
        traced_rate = len(traced.update_lat) / traced.window_s
        layers["bench.trace_overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
        if layers["bench.budget_gap_pct"] > 10.0:
            problems.append("traced self times do not add up to the window")
        # Results are judged on the untraced pass; the traced one only has
        # to leave the same kind of index behind.
        problems.extend(f"traced pass: {p}" for p in _check_state(inputs, traced)[2])
    notes = []
    if done.stream_drained:
        notes.append(
            f"the op stream ran out after {done.window_s:.2f} s of the "
            f"{seconds:g} s window; raise rate_ceiling"
        )
    return Outcome(workload, end_to_end, layers, samples, attempted, failed, problems, notes)
