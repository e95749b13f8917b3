#!/usr/bin/env python
"""Fixed-seed regression benchmark: the repo's perf trajectory seed.

Runs one small deterministic workload through all four index kinds and
writes ``BENCH_driver.json`` in a stable schema:

* per index kind: ``ios_per_update`` / ``ios_per_query`` / ``wall_clock_s``
  under the paper's cache-less accounting (the headline numbers every
  figure uses), plus a second run over an LRU buffer pool reported under
  ``pooled`` (``cache_hit_rate``, evictions, write-backs, pooled I/O);
* ``metrics_overhead``: the same workload replayed with the metrics registry
  disabled vs. enabled, plus a direct micro-measurement of the disabled
  (no-op) hook cost -- demonstrating that default-off observability leaves
  the hot path untouched (<5% of a driver run);
* ``engine``: the execution-engine levers -- the lazy and CT runs replayed
  through a coalescing update buffer (batched per-op update I/O must stay at
  or below unbatched), and a sharded run whose merged ledger and per-shard
  breakdown pin the space-partitioned router's accounting;
* ``durability``: the lazy run replayed with a group-commit write-ahead log
  (WAL-on per-op page I/O must stay within 25% of WAL-off -- the log is a
  file append, not pager traffic), the WAL's own counters (appends, fsyncs,
  bytes, group-commit batch sizes), and a crash recovery replaying the
  stream the run logged;
* ``health``: the lazy run replayed behind the self-healing wrapper on the
  same (drift-free) workload -- the drift monitor stays out of the way, no
  rebuild fires, and the wrapper's steady-state per-op update I/O must stay
  within 10% of the bare run -- plus a full ``verify_index`` pass over the
  wrapped index at the end of the stream;
* ``build``: one CT build -- seconds, the four phase timings, the three
  region counts and the Phase-2b work counts (``density_tests`` repeats
  exactly for a trace; the timings are wall clock);
* ``parallel``: the sharded lazy workload at
  1 (inline) / 2 / 4 process workers with batched dispatch -- update/query
  throughput, the 4-worker speedup, and the per-op I/O delta against the
  inline router (must stay within 5%; worker pools change *where* work
  runs, never what gets charged).  ``below_break_even`` flags runs where
  parallelism cannot pay off -- smoke scale (per-shard work too small to
  amortize fork + pipe round-trips) or a machine without enough usable
  CPUs to run the workers concurrently; CI enforces the speedup gates
  only above it;
* ``rebalance``: the adaptive shard management levers on a deterministic
  *skewed* workload (a flash crowd dwelling in one narrow slab plus a
  minority of fast movers) -- the grid / density / speed partitioners
  each run inline and on a process pool with identical static partitions
  (per-op I/O parity is exact and enforced unconditionally; the
  parallel-vs-inline update speedup per partitioner is gated at >=1.3x
  for density or speed only above break-even, where the grid's hot
  shard serialises the pool), plus an online-rebalance run (hot-shard
  detection fires, the cutover verifies clean) and a snapshot
  byte-identity check across a rebalance cutover (save -> load -> apply
  the same plan to both -> canonical JSON must match);
* ``serve``: the concurrent serving layer (PR 8) -- a real daemon per
  client count (ephemeral port, bounded writer queue, snapshot read
  replicas) driven by the multi-process load generator replaying the
  trace's online window: p50/p99/max end-to-end latency (nearest-rank
  over raw client samples, retries included), sustained acked ops/sec,
  reject rate, and the acceptance rails CI enforces unconditionally --
  exact result parity between a post-drain query sweep through the
  daemon and an inline timeline-order run, and a clean ``verify_index``
  after the graceful drain;
* ``resilience``: the exactly-once serving rails (PR 9) -- one seeded
  chaos run (kill profile) at smoke scale: a supervised daemon is
  SIGKILLed mid-workload under concurrent idempotent writers, restarts
  through WAL recovery, and the harness audits the wreckage before
  returning -- zero lost acked writes, zero double-applied stamps, clean
  ``verify_index`` (all enforced unconditionally); the section reports
  retry / dedup / reject accounting, restart count, and recovery MTTR
  (wall-clock figures are trend-watching, like every other timing here);
* ``lsm``: the LSM-R-tree's reason to exist (PR 10) -- per-update I/O for
  lsm / rtree / ct over the same deterministic update-heavy window at
  increasing seed sizes (steady-state: an unmeasured warm-up window
  absorbs the post-seed compaction transient first).  CI gates the flat
  curve (largest-scale LSM per-update I/O <= 1.15x the smallest), the
  head-to-head (LSM beats the CT-R-tree per update at the largest
  scale), and read amplification (mean runs probed per query <=
  ``max_runs`` + 1);
* ``geometry``: the Rect hot-path micro-kernels
  (``benchmarks/bench_geometry.py``) -- method vs. flat-tuple kernel
  ns/op for intersects / contains_point / union / enlargement;
* ``soa``: the struct-of-arrays node layout -- whole-node
  intersect-all / choose-subtree scans, packed columns vs a per-entry
  loop, at fanout and vectorized node sizes (CI gates >=1x at the large
  size); and per-ping worker dispatch RTT for process-pipe /
  process-shared-memory transports (CI gates shm < pipe).

I/O counts and tree shapes are deterministic given ``--seed``; wall clocks
are hardware-dependent and exist for trend-watching, not for diffing.

Usage::

    PYTHONPATH=src python benchmarks/bench_regression.py [--scale smoke]
        [--seed 0] [--buffer-pool 64] [--out BENCH_driver.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine import FlushPolicy, ShardedIndex, UpdateBuffer  # noqa: E402
from repro.experiments.harness import build_workload  # noqa: E402
from repro.obs import MetricsRegistry, set_enabled, tree_stats  # noqa: E402
from repro.storage import BufferPool, Pager  # noqa: E402
from repro.workload import (  # noqa: E402
    IndexKind,
    QueryWorkload,
    SimulationDriver,
    make_index,
)

SCHEMA_VERSION = 11

ENGINE_BATCH = 64
ENGINE_SHARDS = 4
DURABILITY_SYNC = "group:8"
PARALLEL_WORKER_COUNTS = (2, 4)
PARALLEL_BATCH = 256
REBALANCE_SHARDS = 4
REBALANCE_OBJECTS = 120
REBALANCE_ROUNDS = 6
SERVE_CLIENT_COUNTS = (1, 8, 32)
LSM_SCALES = (200, 800, 2000)
LSM_MEMTABLE = 32
LSM_SIZE_RATIO = 4
LSM_MAX_RUNS = 12
# One full tier-1 compaction cycle: memtable * ratio^2 updates cover 16
# flushes, 4 tier-0 merges, and 1 tier-1 merge -- the same merge schedule
# at every scale, so the windows are comparable (see _measure_update_window).
LSM_WINDOW = LSM_MEMTABLE * LSM_SIZE_RATIO * LSM_SIZE_RATIO
LSM_QUERIES = 32


def run_kind(
    bundle, kind, *, pool_frames, metrics=None, batch=0, shards=1,
    durability=None, healing=False,
):
    """Build ``kind`` fresh, replay the bundle's workload; returns the pieces."""
    histories = bundle.histories() if kind == IndexKind.CT else None
    if shards > 1:
        index = ShardedIndex(
            kind,
            bundle.domain,
            shards,
            histories=histories,
            query_rate=bundle.scale.base_update_rate / 100.0,
            pool_frames=pool_frames,
        )
        store = index.pager
        pool = None
    else:
        pager = Pager()
        pool = BufferPool(pager, capacity=pool_frames) if pool_frames else None
        store = pool if pool is not None else pager
        index = make_index(
            kind,
            store,
            bundle.domain,
            histories=histories,
            query_rate=bundle.scale.base_update_rate / 100.0,
        )
    if healing:
        from repro.engine import IndexOptions
        from repro.health import DriftMonitor, SelfHealingIndex

        index = SelfHealingIndex(
            index,
            kind,
            bundle.domain,
            monitor=DriftMonitor(window=200),
            options=IndexOptions(
                histories=histories,
                query_rate=bundle.scale.base_update_rate / 100.0,
            ),
        )
    buffer = UpdateBuffer(FlushPolicy(batch_size=batch)) if batch else None
    driver = SimulationDriver(index, store, kind, metrics=metrics,
                              update_buffer=buffer, durability=durability)
    driver.load(bundle.current(), now=bundle.trace.load_time(bundle.scale.n_history))
    t_start, t_end = bundle.trace.online_span(bundle.scale.n_history)
    queries = QueryWorkload(
        bundle.domain, bundle.scale.base_update_rate / 100.0, 0.001, seed=99
    ).between(t_start, t_end)
    result = driver.run(bundle.update_stream(), queries)
    return result, index, pool


def kind_entry(result, index, pooled_result, pool):
    return {
        # Paper accounting: every page touch is one I/O.
        "ios_per_update": result.ios_per_update,
        "ios_per_query": result.ios_per_query,
        "n_updates": result.n_updates,
        "n_queries": result.n_queries,
        "update_io": result.update_io.to_dict(),
        "query_io": result.query_io.to_dict(),
        "wall_clock_s": result.wall_clock_s,
        "cache_hit_rate": pool.hit_rate,
        "tree_stats": tree_stats(index),
        # The same workload over an LRU pool (ablation substrate).
        "pooled": {
            "ios_per_update": pooled_result.ios_per_update,
            "ios_per_query": pooled_result.ios_per_query,
            "wall_clock_s": pooled_result.wall_clock_s,
            "buffer_pool": pool.metrics_dict(),
        },
    }


def measure_noop_hook_cost(n_events: int) -> float:
    """Seconds the disabled-registry branches add across ``n_events`` events.

    The driver's per-event instrumentation is two ``if enabled`` checks when
    metrics are off; this times exactly that.
    """
    registry = MetricsRegistry(enabled=False)
    t0 = perf_counter()
    for _ in range(n_events):
        if registry.enabled:
            pass
        if registry.enabled:
            pass
    return perf_counter() - t0


def time_ct_build(bundle):
    """One full CT build; returns (seconds, report)."""
    from repro.core.builder import CTRTreeBuilder

    builder = CTRTreeBuilder(query_rate=bundle.scale.base_update_rate / 100.0)
    t0 = perf_counter()
    _tree, report = builder.build(
        Pager(), bundle.domain, bundle.histories(), bundle.current()
    )
    return perf_counter() - t0, report


def run_parallel_sharded(bundle, workers):
    """The lazy workload over the worker-pool router at ``workers`` workers
    (== shards), updates batched so dispatch amortizes the IPC round-trip."""
    index = ShardedIndex(
        IndexKind.LAZY,
        bundle.domain,
        workers,
        mode="process",
        query_rate=bundle.scale.base_update_rate / 100.0,
    )
    try:
        buffer = UpdateBuffer(FlushPolicy(batch_size=PARALLEL_BATCH))
        driver = SimulationDriver(
            index, index.pager, IndexKind.LAZY, update_buffer=buffer
        )
        driver.load(
            bundle.current(), now=bundle.trace.load_time(bundle.scale.n_history)
        )
        t_start, t_end = bundle.trace.online_span(bundle.scale.n_history)
        queries = QueryWorkload(
            bundle.domain, bundle.scale.base_update_rate / 100.0, 0.001, seed=99
        ).between(t_start, t_end)
        result = driver.run(bundle.update_stream(), queries)
        engine = index.engine_dict()
    finally:
        index.close()
    return result, engine


def skewed_workload(n_objects=REBALANCE_OBJECTS, rounds=REBALANCE_ROUNDS,
                    seed=17):
    """A deterministic flash-crowd script: ~85% of objects dwell in one
    narrow x slab (all their updates and most queries hammer one grid
    shard), ~15% are fast movers hopping across the whole domain (every
    hop crosses grid slab boundaries).  Returns (domain, histories,
    initial positions, op list)."""
    import random

    from repro.core.geometry import Rect

    rng = random.Random(seed)
    domain = Rect((0.0, 0.0), (100.0, 100.0))
    n_fast = max(1, n_objects * 15 // 100)

    def dwell_point():
        return (rng.uniform(5.0, 15.0), rng.uniform(0.0, 100.0))

    def roam_point():
        return (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))

    histories = {}
    start = {}
    for oid in range(n_objects):
        fast = oid < n_fast
        trail = [
            ((roam_point() if fast else dwell_point()), 900.0 + i)
            for i in range(5)
        ]
        histories[oid] = trail
        start[oid] = trail[-1][0]

    ops = []
    pos = dict(start)
    t = 1000.0
    for oid in range(n_objects):
        ops.append(("insert", oid, pos[oid], t))
        t += 1.0
    hot_query = Rect((5.0, 0.0), (15.0, 100.0))
    wide_query = Rect((0.0, 0.0), (100.0, 100.0))
    for _ in range(rounds):
        for oid in range(n_objects):
            if oid < n_fast:
                p = roam_point()
            else:
                p = (
                    min(15.0, max(5.0, pos[oid][0] + rng.uniform(-1.0, 1.0))),
                    min(100.0, max(0.0, pos[oid][1] + rng.uniform(-3.0, 3.0))),
                )
            ops.append(("update", oid, pos[oid], p, t))
            pos[oid] = p
            t += 1.0
        ops.append(("query", hot_query))
        ops.append(("query", wide_query))
    return domain, histories, start, ops


def replay_skewed(index, ops):
    """Drive a sharded engine through the skewed script under driver-style
    category scopes; returns throughput + per-category I/O."""
    from repro.storage.iostats import IOCategory

    stats = index.pager.stats
    n_updates = n_queries = 0
    t0 = perf_counter()
    for op in ops:
        if op[0] == "insert":
            with stats.category(IOCategory.UPDATE):
                index.insert(op[1], op[2], now=op[3])
            n_updates += 1
        elif op[0] == "update":
            with stats.category(IOCategory.UPDATE):
                index.update(op[1], op[2], op[3], now=op[4])
            n_updates += 1
        else:
            with stats.category(IOCategory.QUERY):
                index.range_search(op[1])
            n_queries += 1
    wall = perf_counter() - t0
    update_ios = stats.total(IOCategory.UPDATE)
    query_ios = stats.total(IOCategory.QUERY)
    return {
        "n_updates": n_updates,
        "n_queries": n_queries,
        "wall_clock_s": wall,
        "updates_per_s": n_updates / wall if wall else 0.0,
        "update_ios": update_ios,
        "query_ios": query_ios,
        "ios_per_update": update_ios / n_updates if n_updates else 0.0,
    }


def update_io_skew(engine):
    """Hottest shard's share of cumulative update I/O vs the fair share."""
    results = engine.shard_results()
    totals = [float(r.update_io.total) for r in results]
    total = sum(totals)
    if total <= 0 or not totals:
        return 0.0
    return max(totals) / (total / len(totals))


def run_rebalance_bench():
    """The ``rebalance`` document section (see module docstring)."""
    from repro.engine import (
        PARTITIONER_KINDS,
        RebalancePolicy,
        ShardRebalancer,
        make_partition,
        partition_from_dict,
    )
    from repro.health import verify_index
    domain, histories, start, ops = skewed_workload()
    partitioners = {}
    for name in PARTITIONER_KINDS:
        inline = ShardedIndex(
            IndexKind.LAZY,
            domain,
            partition=make_partition(
                name, domain, REBALANCE_SHARDS,
                positions=start, histories=histories,
            ),
        )
        inline_run = replay_skewed(inline, ops)
        par = ShardedIndex(
            IndexKind.LAZY,
            domain,
            mode="process",
            partition=make_partition(
                name, domain, REBALANCE_SHARDS,
                positions=start, histories=histories,
            ),
        )
        try:
            par_run = replay_skewed(par, ops)
            par_engine = par.engine_dict()
        finally:
            par.close()
        partitioners[name] = {
            "inline": inline_run,
            "parallel": par_run,
            "parallel_update_speedup": (
                par_run["updates_per_s"] / inline_run["updates_per_s"]
                if inline_run["updates_per_s"] else 0.0
            ),
            # Worker pools change *where* work runs, never what gets
            # charged: with identical static partitions the per-category
            # ledgers must match exactly (CI gates this at == 0).
            "io_delta_pct": (
                abs(par_run["update_ios"] - inline_run["update_ios"])
                / inline_run["update_ios"] * 100.0
                if inline_run["update_ios"] else 0.0
            ),
            "update_io_skew": update_io_skew(inline),
            "cross_shard_moves": inline.cross_shard_moves,
            "parallel_fell_back": par_engine["parallel"]["fell_back"],
        }
        print(
            f"  rebalance {name:<8} "
            f"{inline_run['ios_per_update']:8.2f} I/O/upd  "
            f"skew {partitioners[name]['update_io_skew']:.2f}  "
            f"moves {inline.cross_shard_moves:>4}  "
            f"io delta {partitioners[name]['io_delta_pct']:.3f}%"
        )

    # Online rebalance: born on the skewed grid, the detector must fire
    # and the cutover must leave the engine verifier-clean.
    rebalancer = ShardRebalancer(RebalancePolicy(
        check_every=64, min_window_ios=32, hot_factor=1.8
    ))
    live = ShardedIndex(
        IndexKind.LAZY, domain, REBALANCE_SHARDS, rebalancer=rebalancer
    )
    live_run = replay_skewed(live, ops)
    live_verdict = verify_index(live)

    # Snapshot byte-identity across a cutover: a loaded clone replaying
    # the same plan must land on the same bytes as the live engine.
    import tempfile

    from repro.engine import BoundaryPartition
    from repro.storage.snapshot import build_document, load_index, save_index

    frozen = ShardedIndex(IndexKind.LAZY, domain, REBALANCE_SHARDS)
    replay_skewed(frozen, ops)
    with tempfile.TemporaryDirectory(prefix="bench-rebalance-") as tmp:
        clone = load_index(save_index(frozen, Path(tmp) / "pre.json"))
    plan = BoundaryPartition.from_points(
        domain, REBALANCE_SHARDS, frozen.position_map().values()
    )
    frozen.apply_partition(plan)
    clone.apply_partition(partition_from_dict(plan.to_dict()))
    identical = json.dumps(
        build_document(frozen), sort_keys=True
    ) == json.dumps(build_document(clone), sort_keys=True)

    print(
        f"  rebalance online:  {rebalancer.rebalances} cutovers "
        f"(verify {'OK' if live_verdict.ok else 'FAILED'}, snapshot "
        f"{'identical' if identical else 'DIVERGED'})"
    )
    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        usable_cpus = os.cpu_count() or 1
    return {
        "shards": REBALANCE_SHARDS,
        # The density/speed >=1.3x parallel speedup gate needs the workers
        # actually running concurrently; CI skips it (with this reason
        # recorded) when the runner cannot provide that.
        "usable_cpus": usable_cpus,
        "below_break_even": usable_cpus < REBALANCE_SHARDS,
        "workload": {
            "n_objects": REBALANCE_OBJECTS,
            "rounds": REBALANCE_ROUNDS,
            "fast_share": 0.15,
            "note": (
                "deterministic flash crowd: ~85% of objects dwell in the "
                "x in [5, 15) slab, ~15% hop across the whole domain each "
                "round"
            ),
        },
        "partitioners": partitioners,
        "online": {
            "strategy": rebalancer.policy.strategy,
            "rebalances": rebalancer.rebalances,
            "skipped": rebalancer.skipped,
            "events": rebalancer.events,
            "run": live_run,
            "verify_ok": live_verdict.ok,
            "verify_violations": len(live_verdict.violations),
            "engine": live.engine_dict(),
        },
        "snapshot_byte_identical": identical,
    }


def run_resilience_bench(seed):
    """The ``resilience`` section: one seeded chaos run, kill profile.

    A supervised ``repro serve`` daemon (WAL sync=always) is SIGKILLed
    mid-workload while idempotent writers keep retrying through it; the
    harness then recovers the WAL offline and audits exactly-once.  The
    invariants are gated here, not just recorded: a lost acked write, a
    double-applied stamp, or a dirty verify fails the whole bench run.
    Retry/MTTR figures are timing-dependent and exist for trend-watching.
    """
    import shutil
    import tempfile

    from repro.chaos import ChaosConfig, run_chaos

    run_dir = Path(tempfile.mkdtemp(prefix="bench-resilience-"))
    try:
        report = run_chaos(
            ChaosConfig(
                run_dir=run_dir,
                seed=seed,
                profile="kill",
                writers=2,
                objects=16,
                min_ops=30,
            )
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    assert report["ok"], json.dumps(report["invariants"], indent=2)
    work = report["workload"]
    acked = int(work["ops_acked"])
    rejects = int(work["rejects"])
    return {
        "seed": report["seed"],
        "profile": report["profile"],
        "seed_line": report["seed_line"],
        "ok": bool(report["ok"]),
        "acked": acked,
        "acked_first_try": work["acked_first_try"],
        "acked_retried": work["acked_retried"],
        "dedup_acks": work["dedup_acks"],
        "rejects": rejects,
        "reject_rate": rejects / (acked + rejects) if acked + rejects else 0.0,
        "transport_errors": work["transport_errors"],
        "reconnects": work["reconnects"],
        "ambiguous": work["ambiguous"],
        "kills": report["faults"]["kills"],
        "restarts": report["supervisor"]["restarts"],
        "mttr_mean_s": report["mttr"]["mean_s"],
        "mttr_max_s": report["mttr"]["max_s"],
        "wall_s": report["wall_s"],
        "invariants": report["invariants"],
    }


def _lsm_scale_workload(n_objects, seed=7):
    """Deterministic update-heavy script at ``n_objects`` scale.

    Returns (histories, start positions, warm-up ops, measured ops,
    query rects).  The same script drives every index kind so the
    per-update I/O numbers are directly comparable; histories exist only
    because the CT-R-tree needs a profile to build from.
    """
    import random

    from repro.core.geometry import Rect

    rng = random.Random(seed)
    histories = {}
    start = {}
    for oid in range(n_objects):
        trail = [
            ((rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)), 900.0 + i)
            for i in range(5)
        ]
        histories[oid] = trail
        start[oid] = trail[-1][0]

    def window():
        return [
            (rng.randrange(n_objects),
             (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)))
            for _ in range(LSM_WINDOW)
        ]

    warmup = window()
    measured = window()
    rects = []
    for _ in range(LSM_QUERIES):
        x, y = rng.uniform(0.0, 90.0), rng.uniform(0.0, 90.0)
        rects.append(Rect((x, y), (x + 10.0, y + 10.0)))
    return histories, start, warmup, measured, rects


def _measure_update_window(kind, n_objects):
    """Per-update I/O for ``kind`` over the measured window at one scale.

    Methodology (refines tests/test_lsm.py::TestFlatUpdateCost): seed the
    index, run an unmeasured warm-up window under BUILD to absorb the
    post-seed transient (leftover sub-memtable runs merging with the
    window's churn), then for the LSM kind drain to a phase boundary --
    flush the memtable remainder and compact to quiescence, still under
    BUILD -- so every scale starts the measured window at the same point
    of the compaction cycle.  The window itself is one full tier-1 cycle
    (``memtable * ratio^2`` updates): it contains the identical flush and
    merge schedule at every scale, which is what makes the per-update
    numbers comparable; a window that cuts the cycle mid-phase catches a
    big merge at one scale and not another and reads as slope where there
    is none.  The measured updates (flushes and compactions included) are
    charged under UPDATE; everything before is BUILD.
    """
    from repro.core.geometry import Rect as _Rect
    from repro.storage.iostats import IOCategory

    domain = _Rect((0.0, 0.0), (100.0, 100.0))
    histories, start, warmup, measured, rects = _lsm_scale_workload(n_objects)
    pager = Pager()
    kwargs = {"query_rate": 0.5}
    if kind == IndexKind.CT:
        kwargs["histories"] = histories
    elif kind == IndexKind.LSM:
        kwargs.update(
            lsm_memtable=LSM_MEMTABLE,
            lsm_size_ratio=LSM_SIZE_RATIO,
            lsm_max_runs=LSM_MAX_RUNS,
        )
    index = make_index(kind, pager, domain, **kwargs)
    pos = dict(start)
    with pager.stats.category(IOCategory.BUILD):
        for oid in range(n_objects):
            index.insert(oid, pos[oid], now=1000.0 + oid)
        t = 1000.0 + n_objects
        for oid, point in warmup:
            index.update(oid, pos[oid], point, now=t)
            pos[oid] = point
            t += 1.0
        if kind == IndexKind.LSM:  # phase boundary: empty memtable,
            index.flush("bench")   # quiescent run set
            index.maybe_compact()
    before = pager.stats.total(IOCategory.UPDATE)
    t0 = perf_counter()
    with pager.stats.category(IOCategory.UPDATE):
        for oid, point in measured:
            index.update(oid, pos[oid], point, now=t)
            pos[oid] = point
            t += 1.0
    wall = perf_counter() - t0
    update_ios = pager.stats.total(IOCategory.UPDATE) - before
    q_before = pager.stats.total(IOCategory.QUERY)
    with pager.stats.category(IOCategory.QUERY):
        for rect in rects:
            index.range_search(rect)
    entry = {
        "ios_per_update": update_ios / len(measured),
        "update_ios": update_ios,
        "wall_clock_s": wall,
        "ios_per_query": (
            (pager.stats.total(IOCategory.QUERY) - q_before) / len(rects)
        ),
    }
    if kind == IndexKind.LSM:
        entry["n_runs"] = index.run_count
        entry["read_amplification"] = index.read_amplification
        entry["memtable_pending"] = len(index.memtable)
    return entry


def run_lsm_bench(indexes):
    """The ``lsm`` document section: flat per-update cost head-to-head.

    The paper's pitch for an LSM organisation is that per-update cost is a
    function of the memtable, not the index: classic R-tree (and CT)
    updates walk a tree whose height grows with the object count, while an
    LSM update is a WAL append plus an in-memory coalesce, with flushes
    amortised across the memtable.  This section measures per-update I/O
    for lsm / rtree / ct over the *same* deterministic update window at
    increasing seed sizes and records the gates CI enforces:

    * ``flat_ratio`` -- LSM per-update I/O at the largest scale over the
      smallest; must stay <= ``flat_gate`` (the curve is flat);
    * ``beats_ct_at_scale`` -- LSM per-update I/O below the CT-R-tree's
      at the largest scale (the head-to-head the ISSUE names);
    * ``read_amp_within_bound`` -- mean runs probed per query never
      exceeds ``max_runs`` + 1 (every run plus the memtable).
    """
    scales = {}
    for n in LSM_SCALES:
        row = {"n_objects": n, "kinds": {}}
        for kind in (IndexKind.LSM, IndexKind.RTREE, IndexKind.CT):
            row["kinds"][kind] = _measure_update_window(kind, n)
        scales[str(n)] = row
        lsm_row = row["kinds"][IndexKind.LSM]
        print(
            f"  lsm scale {n:>5}: "
            f"lsm {lsm_row['ios_per_update']:6.2f} I/O/upd  "
            f"rtree {row['kinds'][IndexKind.RTREE]['ios_per_update']:6.2f}  "
            f"ct {row['kinds'][IndexKind.CT]['ios_per_update']:6.2f}  "
            f"({lsm_row['n_runs']} runs, "
            f"read amp {lsm_row['read_amplification']:.2f})"
        )
    lo, hi = str(min(LSM_SCALES)), str(max(LSM_SCALES))
    lsm_lo = scales[lo]["kinds"][IndexKind.LSM]["ios_per_update"]
    lsm_hi = scales[hi]["kinds"][IndexKind.LSM]["ios_per_update"]
    ct_hi = scales[hi]["kinds"][IndexKind.CT]["ios_per_update"]
    max_read_amp = max(
        row["kinds"][IndexKind.LSM]["read_amplification"]
        for row in scales.values()
    )
    return {
        "window": LSM_WINDOW,
        "queries_per_scale": LSM_QUERIES,
        "config": {
            "memtable_size": LSM_MEMTABLE,
            "size_ratio": LSM_SIZE_RATIO,
            "max_runs": LSM_MAX_RUNS,
        },
        "scales": scales,
        "flat_gate": 1.15,
        "flat_ratio": lsm_hi / lsm_lo if lsm_lo else 0.0,
        "lsm_vs_ct_at_scale": lsm_hi / ct_hi if ct_hi else 0.0,
        "beats_ct_at_scale": lsm_hi < ct_hi,
        "read_amp_bound": LSM_MAX_RUNS + 1,
        "max_read_amplification": max_read_amp,
        "read_amp_within_bound": max_read_amp <= LSM_MAX_RUNS + 1,
        # The driver workload's numbers (same trace as ``indexes``), for
        # the committed-baseline trend: query-heavier, so LSM pays its
        # read amplification there.
        "driver_workload": {
            "lsm_ios_per_update": indexes[IndexKind.LSM]["ios_per_update"],
            "ct_ios_per_update": indexes[IndexKind.CT]["ios_per_update"],
            "rtree_ios_per_update": indexes[IndexKind.RTREE]["ios_per_update"],
        },
    }


def throughput_entry(result, engine=None):
    wall = result.wall_clock_s
    entry = {
        "n_updates": result.n_updates,
        "n_queries": result.n_queries,
        "wall_clock_s": wall,
        "updates_per_s": result.n_updates / wall if wall else 0.0,
        "queries_per_s": result.n_queries / wall if wall else 0.0,
        "ios_per_update": result.ios_per_update,
        "ios_per_query": result.ios_per_query,
    }
    if engine is not None:
        entry["engine"] = engine
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="smoke",
                        choices=("smoke", "small", "medium"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--buffer-pool", type=int, default=64, metavar="FRAMES")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_driver.json"))
    args = parser.parse_args(argv)

    # Metrics default off; the overhead probe below flips them deliberately.
    set_enabled(False)
    print(f"simulating workload (scale={args.scale}, seed={args.seed}) ...")
    bundle = build_workload(args.scale, args.seed, fresh=True)

    indexes = {}
    for kind in IndexKind.ALL:
        t0 = perf_counter()
        result, index, _ = run_kind(bundle, kind, pool_frames=0)
        pooled_result, _, pool = run_kind(
            bundle, kind, pool_frames=args.buffer_pool
        )
        indexes[kind] = kind_entry(result, index, pooled_result, pool)
        print(
            f"  {IndexKind.LABELS[kind]:<12} "
            f"{result.ios_per_update:8.2f} I/O/upd  "
            f"{result.ios_per_query:8.2f} I/O/qry  "
            f"{result.wall_clock_s:6.3f}s run  "
            f"hit rate {pool.hit_rate:6.1%}  "
            f"({perf_counter() - t0:.2f}s incl. build)"
        )

    # Overhead probe: one kind replayed with metrics hard-off vs. hard-on.
    disabled_result, _, _ = run_kind(
        bundle,
        IndexKind.LAZY,
        pool_frames=0,
        metrics=MetricsRegistry(enabled=False),
    )
    enabled_result, _, _ = run_kind(
        bundle,
        IndexKind.LAZY,
        pool_frames=0,
        metrics=MetricsRegistry(enabled=True),
    )
    disabled_s = disabled_result.wall_clock_s
    enabled_s = enabled_result.wall_clock_s
    n_events = disabled_result.n_updates + disabled_result.n_queries
    noop_s = measure_noop_hook_cost(n_events)
    overhead = {
        "kind": IndexKind.LAZY,
        "n_events": n_events,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "enabled_overhead_pct": (
            (enabled_s - disabled_s) / disabled_s * 100.0 if disabled_s else 0.0
        ),
        # What the default-off hooks cost: the per-event branch checks, timed
        # directly and expressed against the disabled run.
        "noop_hook_s": noop_s,
        "disabled_overhead_pct": (
            noop_s / disabled_s * 100.0 if disabled_s else 0.0
        ),
    }
    print(
        f"  metrics overhead: disabled hooks {overhead['disabled_overhead_pct']:.3f}% "
        f"of run, enabled {overhead['enabled_overhead_pct']:+.1f}%"
    )

    # Engine levers: batched updates (lazy + CT) and a sharded run.
    engine = {"batch_size": ENGINE_BATCH, "shards": ENGINE_SHARDS, "batched": {}}
    for kind in (IndexKind.LAZY, IndexKind.CT):
        batched_result, _, _ = run_kind(
            bundle, kind, pool_frames=0, batch=ENGINE_BATCH
        )
        unbatched = indexes[kind]["ios_per_update"]
        engine["batched"][kind] = {
            "ios_per_update": batched_result.ios_per_update,
            "ios_per_query": batched_result.ios_per_query,
            "unbatched_ios_per_update": unbatched,
            "n_coalesced": batched_result.n_coalesced,
            "n_flushes": batched_result.n_flushes,
            "n_applied": batched_result.n_applied,
        }
        print(
            f"  batched {IndexKind.LABELS[kind]:<12} "
            f"{batched_result.ios_per_update:8.2f} I/O/upd "
            f"(unbatched {unbatched:.2f}, "
            f"coalesced {batched_result.n_coalesced})"
        )
    sharded_result, sharded_index, _ = run_kind(
        bundle, IndexKind.LAZY, pool_frames=0, shards=ENGINE_SHARDS
    )
    engine["sharded"] = {
        "kind": IndexKind.LAZY,
        "ios_per_update": sharded_result.ios_per_update,
        "ios_per_query": sharded_result.ios_per_query,
        "unsharded_ios_per_update": indexes[IndexKind.LAZY]["ios_per_update"],
        "cross_shard_moves": sharded_index.cross_shard_moves,
        "merged": sharded_index.merged_result().to_dict(),
        "engine": sharded_index.engine_dict(),
    }
    print(
        f"  sharded {IndexKind.LABELS[IndexKind.LAZY]:<12} "
        f"{sharded_result.ios_per_update:8.2f} I/O/upd over "
        f"{ENGINE_SHARDS} shards "
        f"({sharded_index.cross_shard_moves} cross-shard moves)"
    )

    # Durability: the lazy run again, every update logged through a
    # group-commit WAL, then crash-recovered from the log it left behind
    # (no closing checkpoint, so recovery replays the whole online stream).
    import shutil
    import tempfile

    from repro.durability import DurabilityManager, recover

    wal_dir = tempfile.mkdtemp(prefix="bench-wal-")
    try:
        manager = DurabilityManager(wal_dir, sync=DURABILITY_SYNC)
        wal_result, wal_index, _ = run_kind(
            bundle, IndexKind.LAZY, pool_frames=0, durability=manager
        )
        manager.close()
        wal_stats = manager.stats
        recovered, report = recover(wal_dir)
        recovered_ok = len(recovered) == len(wal_index)
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
    wal_off = indexes[IndexKind.LAZY]["ios_per_update"]
    durability = {
        "kind": IndexKind.LAZY,
        "sync_policy": DURABILITY_SYNC,
        "ios_per_update": wal_result.ios_per_update,
        "wal_off_ios_per_update": wal_off,
        # The gate CI enforces: logging is file appends, not pager traffic,
        # so per-op page I/O must track the WAL-off run closely.
        "overhead_pct": (
            (wal_result.ios_per_update - wal_off) / wal_off * 100.0
            if wal_off else 0.0
        ),
        "wall_clock_s": wal_result.wall_clock_s,
        "wal": wal_stats.to_dict(),
        "recovery": {
            "records_replayed": report.records_replayed,
            "records_skipped": report.records_skipped,
            "replay_s": report.replay_s,
            "checkpoint_ordinal": report.checkpoint_ordinal,
            "recovered_object_count_matches": recovered_ok,
        },
    }
    print(
        f"  durability {IndexKind.LABELS[IndexKind.LAZY]:<9} "
        f"{wal_result.ios_per_update:8.2f} I/O/upd with WAL "
        f"(off {wal_off:.2f}, {wal_stats.fsyncs} fsyncs, "
        f"replayed {report.records_replayed} in {report.replay_s:.3f}s)"
    )

    # Health: the lazy run once more behind the self-healing wrapper.  The
    # workload has no mid-run behaviour shift, so the drift monitor should
    # never push past HEALTHY and no rebuild fires: what is left is the
    # steady-state cost of the wrapper itself (I/O deltas per update, a
    # window roll every N ops) -- the gate CI enforces is <=10% per-op
    # update I/O over the bare run.  The verifier then sweeps the whole
    # wrapped index as the `repro verify` smoke's in-process twin.
    from repro.health import verify_index

    heal_result, heal_index, _ = run_kind(
        bundle, IndexKind.LAZY, pool_frames=0, healing=True
    )
    verdict = verify_index(heal_index)
    heal_off = indexes[IndexKind.LAZY]["ios_per_update"]
    health = {
        "kind": IndexKind.LAZY,
        "ios_per_update": heal_result.ios_per_update,
        "heal_off_ios_per_update": heal_off,
        "overhead_pct": (
            (heal_result.ios_per_update - heal_off) / heal_off * 100.0
            if heal_off else 0.0
        ),
        "wall_clock_s": heal_result.wall_clock_s,
        "verify_ok": verdict.ok,
        "verify_violations": len(verdict.violations),
        "verify_checked_objects": verdict.checked_objects,
        "health": heal_index.health_dict(),
    }
    print(
        f"  self-heal {IndexKind.LABELS[IndexKind.LAZY]:<10} "
        f"{heal_result.ios_per_update:8.2f} I/O/upd wrapped "
        f"(off {heal_off:.2f}, state {heal_index.health_state}, "
        f"{heal_index.cutovers} cutovers, "
        f"verify {'OK' if verdict.ok else 'FAILED'})"
    )

    # The CT build on its own: wall clock per phase beside the counts that
    # repeat exactly (regions per phase, Phase-2b density tests).
    build_s, build_report = time_ct_build(bundle)
    build = {"seconds": build_s, **build_report.to_dict()}
    print(
        f"  ct build: {build_s:.3f}s, regions "
        f"{build_report.phase1_regions} -> {build_report.phase2_regions} -> "
        f"{build_report.phase3_regions}, "
        f"{build_report.density_tests} density tests"
    )

    # Parallel: the worker-pool execution mode -- the sharded lazy workload
    # at 1 (inline router), 2, and 4 process workers, updates batched so
    # each dispatch ships a sub-batch.
    # Smoke scale sits below the parallelism break-even (per-op work is a few
    # microseconds of pure Python; fork + queue round-trips cost more than
    # they save), so CI enforces the speedup gate only when
    # ``below_break_even`` is false -- the I/O-parity gate holds at every
    # scale.
    top_workers = max(PARALLEL_WORKER_COUNTS)
    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        usable_cpus = os.cpu_count() or 1
    below_break_even = args.scale == "smoke" or usable_cpus < top_workers
    parallel = {
        "below_break_even": below_break_even,
        "usable_cpus": usable_cpus,
        "note": (
            "below_break_even is true when the machine cannot actually run "
            f"{top_workers} workers concurrently (usable_cpus < "
            f"{top_workers}: processes time-slice one core and "
            "pay dispatch cost for nothing) or at smoke scale, where per-op "
            "work is a few microseconds of pure Python against a measured "
            "~75-110us pipe round-trip per dispatch.  CI enforces the "
            "speedup gate only when this flag is false; I/O parity is "
            "enforced at every scale."
        ),
        "batch_size": PARALLEL_BATCH,
    }
    inline_result, inline_index, _ = run_kind(
        bundle, IndexKind.LAZY, pool_frames=0, batch=PARALLEL_BATCH,
        shards=ENGINE_SHARDS,
    )
    runs = {"1": throughput_entry(inline_result, inline_index.engine_dict())}
    for workers in PARALLEL_WORKER_COUNTS:
        par_result, par_engine = run_parallel_sharded(bundle, workers)
        runs[str(workers)] = throughput_entry(par_result, par_engine)
        print(
            f"  parallel sharded x{workers}: "
            f"{runs[str(workers)]['updates_per_s']:10.0f} upd/s "
            f"(inline {runs['1']['updates_per_s']:.0f}, "
            f"{runs[str(workers)]['ios_per_update']:.2f} I/O/upd)"
        )
    top = str(top_workers)
    parallel["sharded"] = {
        "kind": IndexKind.LAZY,
        "mode": "process",
        "shards_at_1": ENGINE_SHARDS,
        "runs": runs,
        "update_speedup_at_4": (
            runs[top]["updates_per_s"] / runs["1"]["updates_per_s"]
            if runs["1"]["updates_per_s"] else 0.0
        ),
        "query_speedup_at_4": (
            runs[top]["queries_per_s"] / runs["1"]["queries_per_s"]
            if runs["1"]["queries_per_s"] else 0.0
        ),
        # Worker-pool execution must not change what gets charged: per-op
        # update I/O at 4 workers vs the inline 4-shard router (same
        # partition, same batch schedule).  CI gates this at 5%.
        "io_delta_pct": (
            abs(runs[top]["ios_per_update"] - runs["1"]["ios_per_update"])
            / runs["1"]["ios_per_update"] * 100.0
            if runs["1"]["ios_per_update"] else 0.0
        ),
    }

    # Adaptive shard management on the skewed flash-crowd workload.
    rebalance = run_rebalance_bench()

    # Geometry micro-kernels (the Rect hot path the perf work rewrote).
    try:
        from benchmarks.bench_geometry import run_geometry_bench
    except ImportError:
        from bench_geometry import run_geometry_bench
    geometry = run_geometry_bench(n_pairs=2048, repeat=3)
    ns = geometry["ops"]["intersects"]
    print(
        f"  geometry: intersects method {ns['method_ns_per_op']:.0f} ns, "
        f"kernel {ns['kernel_ns_per_op']:.0f} ns"
    )

    # Struct-of-arrays layout: node scans and dispatch RTT.
    try:
        from benchmarks.bench_geometry import (
            run_dispatch_bench,
            run_node_scan_bench,
        )
    except ImportError:
        from bench_geometry import run_dispatch_bench, run_node_scan_bench
    node_scan = run_node_scan_bench(repeat=5)
    dispatch = run_dispatch_bench(n_pings=150)
    soa = {"node_scan": node_scan, "dispatch": dispatch}
    big = node_scan["sizes"][str(max(int(k) for k in node_scan["sizes"]))]
    shm_row = dispatch["modes"].get("process_shm")
    pipe_row = dispatch["modes"]["process_pipe"]
    print(
        f"  soa node scans: intersect {big['intersect_all']['speedup']:.2f}x, "
        f"choose {big['choose_subtree']['speedup']:.2f}x  "
        f"rtt pipe {pipe_row['median_us']:.1f}us"
        + (
            f" shm {shm_row['median_us']:.1f}us"
            if shm_row
            else " (shm unavailable)"
        )
    )

    # LSM-R-tree (PR 10): flat per-update cost head-to-head at increasing
    # scales; the flat-curve / beats-CT / read-amp gates live in CI.
    lsm = run_lsm_bench(indexes)
    print(
        f"  lsm flat ratio {lsm['flat_ratio']:.3f} (gate {lsm['flat_gate']}), "
        f"vs ct at scale {lsm['lsm_vs_ct_at_scale']:.3f}, "
        f"read amp {lsm['max_read_amplification']:.2f} "
        f"(bound {lsm['read_amp_bound']})"
    )

    # Serving layer (PR 8): one daemon per client count, driven by the
    # multi-process loadgen; parity + verify are enforced inside.
    from repro.serve.bench import run_serve_bench

    serve = run_serve_bench(
        bundle.trace,
        bundle.scale.n_history,
        bundle.domain,
        kind=IndexKind.LAZY,
        client_counts=SERVE_CLIENT_COUNTS,
        refresh_interval=0.1,
        seed=args.seed,
    )
    for run in serve["runs"]:
        lat = run["latency"]["all"]
        print(
            f"  serve x{run['n_clients']:<3} {run['ops_per_s']:9.0f} ops/s  "
            f"p50 {lat.get('p50_ms', float('nan')):6.2f}ms  "
            f"p99 {lat.get('p99_ms', float('nan')):6.2f}ms  "
            f"rejects {run['rejected']:>4}  "
            f"parity {'OK' if run['parity'] else 'FAIL'}"
        )

    # Resilience (PR 9): SIGKILL a supervised daemon mid-workload; the
    # harness gates the exactly-once invariants before returning.
    resilience = run_resilience_bench(args.seed)
    mttr = resilience["mttr_mean_s"]
    print(
        f"  resilience: {resilience['acked']} acked "
        f"({resilience['acked_retried']} retried, "
        f"{resilience['dedup_acks']} deduped), "
        f"{resilience['restarts']} restarts, mttr "
        + (f"{mttr:.2f}s" if mttr is not None else "n/a")
        + f", lost {resilience['invariants']['acked_writes_lost']}"
    )

    payload = {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "benchmarks/bench_regression.py",
        "scale": args.scale,
        "seed": args.seed,
        "buffer_pool_frames": args.buffer_pool,
        "workload": {
            "n_objects": bundle.scale.n_objects,
            "n_history": bundle.scale.n_history,
            "n_updates_per_object": bundle.scale.n_updates,
        },
        "indexes": indexes,
        "metrics_overhead": overhead,
        "engine": engine,
        "durability": durability,
        "health": health,
        "build": build,
        "parallel": parallel,
        "rebalance": rebalance,
        "lsm": lsm,
        "serve": serve,
        "resilience": resilience,
        "geometry": geometry,
        "soa": soa,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
