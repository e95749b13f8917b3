"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate``   -- generate a city and record a movement trace to CSV;
* ``build``      -- mine qs-regions from a trace and report the CT-R-tree;
* ``experiment`` -- run one of the paper's tables/figures at a chosen scale;
* ``compare``    -- race the four index structures on a trace;
* ``recover``    -- rebuild an index from a ``--wal-dir`` directory after a
  crash (newest valid checkpoint + WAL tail replay);
* ``verify``     -- structurally verify (fsck) a snapshot file or a
  durability directory, optionally repairing recoverable violations;
* ``serve``      -- run the concurrent serving daemon (asyncio TCP, bounded
  writer queue, admission control, snapshot read replicas) on a trace's
  current positions until SIGINT/SIGTERM drains it; with ``--wal-dir`` a
  restart boots through crash recovery instead of the trace, and
  ``--supervise`` keeps a crashed daemon restarting within a budget;
* ``bench-serve``-- drive a daemon with the multi-process load generator at
  several client counts and print/dump p50/p99 latency, sustained ops/sec,
  reject rate, and result parity against an inline run;
* ``chaos``      -- replay a seeded fault schedule (SIGKILLs, connection
  resets, stalled reads, torn WAL tails) against a supervised live daemon
  and audit the exactly-once invariants;
* ``params``     -- print Table 1.

Every command is deterministic given ``--seed``.

``build`` and ``compare`` accept ``--metrics-out out.json``: it enables the
process-global :class:`~repro.obs.MetricsRegistry` for the run and dumps the
registry plus structural probes (tree shape, buffer-pool telemetry) as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.citysim import City, CitySimulator, Trace
from repro.core.builder import CTRTreeBuilder
from repro.core.params import CTParams, SimulationParams, format_table1
from repro.engine import FlushPolicy, ShardedIndex, UpdateBuffer
from repro.obs import get_registry, set_enabled, tree_stats
from repro.storage import BufferPool, Pager
from repro.workload import (
    IndexKind,
    QueryWorkload,
    SimulationDriver,
    UpdateStream,
    make_index,
)

EXPERIMENTS = (
    "table1",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "ablations",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Change Tolerant Indexing for Constantly Evolving Data (ICDE 2005) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="generate a city movement trace")
    simulate.add_argument("output", help="trace CSV path")
    simulate.add_argument("--objects", type=int, default=1000)
    simulate.add_argument("--history", type=int, default=110)
    simulate.add_argument("--updates", type=int, default=20)
    simulate.add_argument("--buildings", type=int, default=71)
    simulate.add_argument("--seed", type=int, default=0)

    build = sub.add_parser("build", help="build a CT-R-tree from a trace")
    build.add_argument("trace", help="trace CSV path (from `repro simulate`)")
    build.add_argument("--history", type=int, default=110)
    build.add_argument("--query-rate", type=float, default=None,
                       help="anticipated query rate for Eq. 6 (default: update rate / 100)")
    build.add_argument("--city-size", type=float, default=1000.0)
    build.add_argument("--save", metavar="SNAPSHOT",
                       help="write the built index to a JSON snapshot file")
    build.add_argument("--metrics-out", metavar="JSON",
                       help="enable metrics and dump the registry, build phase "
                            "timings, and tree-shape stats to this JSON file")

    experiment = sub.add_parser("experiment", help="run a paper table/figure")
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.add_argument("--scale", default="small",
                            choices=("smoke", "small", "medium", "paper"))
    experiment.add_argument("--seed", type=int, default=0)

    compare = sub.add_parser("compare", help="race the four indexes on a trace")
    compare.add_argument("trace", help="trace CSV path")
    compare.add_argument("--index", action="append", default=None,
                         choices=IndexKind.ALL, metavar="KIND", dest="index",
                         help="race only this index kind (repeatable; "
                              f"choices: {', '.join(IndexKind.ALL)}; "
                              "default: all of them)")
    compare.add_argument("--history", type=int, default=110)
    compare.add_argument("--ratio", type=float, default=100.0,
                         help="update/query ratio (default: the Table-1 baseline)")
    compare.add_argument("--city-size", type=float, default=1000.0)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--buffer-pool", type=int, default=0, metavar="FRAMES",
                         help="run every index over an LRU buffer pool of this "
                              "many frames (0 = paper accounting, no cache)")
    compare.add_argument("--shards", type=int, default=1, metavar="N",
                         help="space-partition the domain into N shards, one "
                              "pager + index per shard (1 = unsharded)")
    compare.add_argument("--batch", type=int, default=0, metavar="SIZE",
                         help="buffer updates in a coalescing memtable and "
                              "group-apply every SIZE distinct objects "
                              "(flushed before each query; 0 = unbatched)")
    compare.add_argument("--metrics-out", metavar="JSON",
                         help="enable metrics and dump the registry, per-index "
                              "tree stats, run ledgers, and buffer-pool "
                              "telemetry to this JSON file")
    compare.add_argument("--wal-dir", metavar="DIR", default=None,
                         help="write-ahead-log every update before applying it; "
                              "each index gets DIR/<kind>/ with its own WAL "
                              "segments and checkpoints, sharded or not")
    compare.add_argument("--sync-policy", default="group:8",
                         metavar="always|group:N|onflush",
                         help="WAL sync policy: fsync every append, group-"
                              "commit every N appends, or only at buffer "
                              "flushes (default: group:8)")
    compare.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                         help="take an automatic checkpoint every N applied "
                              "updates (0 = only the post-load baseline and "
                              "the final checkpoint)")
    compare.add_argument("--self-heal", action="store_true",
                         help="wrap every index in the health layer's self-"
                              "healing wrapper: drift is monitored online and "
                              "a DEGRADED index is rebuilt in the background "
                              "and atomically cut over (not with --shards)")
    compare.add_argument("--drift-window", type=int, default=200, metavar="N",
                         help="updates per drift-monitor window when "
                              "--self-heal is on (default: 200)")
    compare.add_argument("--parallel", action="store_true",
                         help="run the --shards N engine (N >= 2) on a pool "
                              "of worker processes, one per shard; same I/O "
                              "and results as inline (not with --wal-dir or "
                              "--self-heal)")
    compare.add_argument("--partitioner", default="grid",
                         choices=("grid", "density", "speed"),
                         help="shard partitioning strategy: equal-width grid "
                              "slabs, density-balanced boundaries at object-"
                              "count quantiles, or speed-based (fast movers "
                              "routed to a dedicated churn shard); needs "
                              "--shards (default: grid)")
    compare.add_argument("--rebalance", action="store_true",
                         help="enable online shard rebalancing: hot shards "
                              "are detected from per-shard I/O ledgers and "
                              "the partition is re-cut with an atomic "
                              "cutover (needs --shards)")
    compare.add_argument("--lsm-memtable", type=int, default=None, metavar="N",
                         help="LSM-R-tree: flush the memtable every N distinct "
                              "objects (default: 256)")
    compare.add_argument("--lsm-size-ratio", type=int, default=None, metavar="T",
                         help="LSM-R-tree: size-tiered compaction ratio "
                              "(default: 4)")
    compare.add_argument("--lsm-max-runs", type=int, default=None, metavar="N",
                         help="LSM-R-tree: compact whenever more than N runs "
                              "exist (default: 8)")

    recover = sub.add_parser(
        "recover", help="recover an index from a WAL directory after a crash"
    )
    recover.add_argument("dir", help="durability directory (as given to --wal-dir, "
                                     "plus the index kind subdirectory)")
    recover.add_argument("--save", metavar="SNAPSHOT",
                         help="write the recovered index to a JSON snapshot file")
    recover.add_argument("--no-repair", action="store_true",
                         help="do not trim torn tails or delete covered "
                              "segments/stale tmp files after replay")

    verify = sub.add_parser(
        "verify", help="structurally verify (fsck) an index snapshot or WAL dir"
    )
    verify.add_argument("target", help="JSON snapshot file, or a durability "
                                       "directory (recovered first, then "
                                       "verified)")
    verify.add_argument("--repair", action="store_true",
                        help="repair recoverable violations (stale hash "
                             "entries, escaped MBRs, stale fill counters) "
                             "and verify again")
    verify.add_argument("--json", metavar="OUT", default=None,
                        help="write the verify/repair reports to this JSON file")

    report = sub.add_parser("report", help="run every experiment, write one markdown report")
    report.add_argument("-o", "--output", default="report.md")
    report.add_argument("--scale", default="smoke",
                        choices=("smoke", "small", "medium", "paper"))
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--sections", nargs="*", default=None,
                        help="subset of sections (default: all)")

    serve = sub.add_parser(
        "serve", help="run the concurrent serving daemon on a trace"
    )
    serve.add_argument("trace", help="trace CSV path (current positions are "
                                     "bulk-loaded, then the daemon serves)")
    serve.add_argument("--history", type=int, default=110)
    serve.add_argument("--kind", default=IndexKind.LAZY, choices=IndexKind.ALL)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0 = ephemeral; see --ready-file)")
    serve.add_argument("--ready-file", metavar="JSON", default=None,
                       help="atomically write {host, port, pid} here once the "
                            "daemon is accepting (for scripts using --port 0)")
    serve.add_argument("--queue-depth", type=int, default=1024,
                       help="bound on unapplied acked writes; a full queue "
                            "rejects with RETRY_AFTER (default: 1024)")
    serve.add_argument("--write-batch", type=int, default=64,
                       help="max ops the writer applies per batch (default: 64)")
    serve.add_argument("--rate", type=float, default=0.0,
                       help="per-client admitted ops/s token-bucket rate "
                            "(default: 0 = admission off)")
    serve.add_argument("--burst", type=float, default=0.0,
                       help="token-bucket burst size (default: one second's "
                            "worth of --rate)")
    serve.add_argument("--replicas", type=int, default=1,
                       help="snapshot read replicas (0 = every read is a "
                            "fresh read on the writer; default: 1)")
    serve.add_argument("--refresh", type=float, default=0.25,
                       help="replica refresh interval in seconds; bounds "
                            "reported staleness (default: 0.25)")
    serve.add_argument("--shards", type=int, default=1,
                       help="space-partition the primary into N shards "
                            "(default: 1)")
    serve.add_argument("--wal-dir", metavar="DIR", default=None,
                       help="WAL-log every write before acking it; crash "
                            "recovery replays exactly the acked prefix")
    serve.add_argument("--sync-policy", default="group:8",
                       metavar="always|group:N|onflush")
    serve.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                       help="checkpoint every N applied updates at quiescent "
                            "points (0 = baseline + final only)")
    serve.add_argument("--city-size", type=float, default=1000.0)
    serve.add_argument("--supervise", action="store_true",
                       help="run the daemon as a supervised child: crashes "
                            "restart it through WAL recovery within a budget "
                            "(requires --wal-dir and --ready-file)")
    serve.add_argument("--max-restarts", type=int, default=5,
                       help="supervisor restart budget (default: 5)")
    serve.add_argument("--restart-backoff", type=float, default=0.2,
                       help="supervisor backoff base in seconds, doubled per "
                            "consecutive restart (default: 0.2)")
    serve.add_argument("--ready-timeout", type=float, default=30.0,
                       help="seconds the supervisor waits for readiness "
                            "after each (re)spawn (default: 30)")
    serve.add_argument("--fault-schedule", metavar="JSON", default=None,
                       help="arm the WAL with a durability FaultSchedule "
                            "(inline JSON or a file path; a file is consumed "
                            "one-shot so a supervised restart comes up "
                            "unarmed)")

    bench_serve = sub.add_parser(
        "bench-serve", help="load-generate against the daemon, report p50/p99"
    )
    bench_serve.add_argument("trace", help="trace CSV path")
    bench_serve.add_argument("--history", type=int, default=110)
    bench_serve.add_argument("--kind", default=IndexKind.LAZY,
                             choices=IndexKind.ALL)
    bench_serve.add_argument("--clients", default="1,8,32",
                             help="comma-separated client counts; one daemon "
                                  "run each (default: 1,8,32)")
    bench_serve.add_argument("--mode", default="process",
                             choices=("process", "thread"),
                             help="loadgen client isolation (default: process)")
    bench_serve.add_argument("--queue-depth", type=int, default=1024)
    bench_serve.add_argument("--write-batch", type=int, default=64)
    bench_serve.add_argument("--rate", type=float, default=0.0)
    bench_serve.add_argument("--replicas", type=int, default=1)
    bench_serve.add_argument("--refresh", type=float, default=0.25)
    bench_serve.add_argument("--shards", type=int, default=1)
    bench_serve.add_argument("--ratio", type=float, default=100.0,
                             help="update/query ratio in the replayed "
                                  "workload (default: 100)")
    bench_serve.add_argument("--seed", type=int, default=0)
    bench_serve.add_argument("--city-size", type=float, default=1000.0)
    bench_serve.add_argument("--out", metavar="JSON", default=None,
                             help="dump the BENCH serve section to this file")

    chaos = sub.add_parser(
        "chaos", help="seeded fault schedule vs a live supervised daemon"
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="derives the fault schedule, workload, and retry "
                            "jitter (default: 0)")
    chaos.add_argument("--profile", default="mixed",
                       choices=("kill", "network", "storage", "mixed"),
                       help="fault mix: daemon SIGKILLs, connection resets + "
                            "stalls, crash + WAL-tail debris, or one of "
                            "everything (default: mixed)")
    chaos.add_argument("--writers", type=int, default=3,
                       help="concurrent writer clients (default: 3)")
    chaos.add_argument("--objects", type=int, default=48,
                       help="moving objects in the workload (default: 48)")
    chaos.add_argument("--min-ops", type=int, default=150,
                       help="acked writes per writer before the run may end "
                            "(default: 150)")
    chaos.add_argument("--kind", default=IndexKind.LAZY,
                       choices=IndexKind.ALL)
    chaos.add_argument("--staleness-bound", type=float, default=5.0,
                       help="max tolerated replica staleness age in seconds "
                            "(default: 5)")
    chaos.add_argument("--run-dir", metavar="DIR", default=None,
                       help="working directory (default: a fresh temp dir, "
                            "removed when the run passes)")
    chaos.add_argument("--out", metavar="JSON", default=None,
                       help="write the full chaos report here")
    chaos.add_argument("--keep", action="store_true",
                       help="keep the run directory even on success")

    sub.add_parser("params", help="print Table 1")
    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.serve import ShutdownRequested, handle_signals

    city = City.generate(seed=args.seed, n_buildings=args.buildings)
    params = SimulationParams(
        n_objects=args.objects,
        update_rate=args.objects / 20.0,
        n_history=args.history,
        n_updates=args.updates,
        n_warmup_max=60,
    )
    simulator = CitySimulator(city, params, seed=args.seed + 1)
    try:
        with handle_signals():
            trace = simulator.run()
            trace.save(args.output)  # atomic: no torn CSV on interrupt
    except ShutdownRequested as exc:
        print(f"interrupted ({exc}): no trace written", file=sys.stderr)
        return 130
    print(f"{city}")
    print(f"recorded {trace} -> {args.output}")
    return 0


def _domain(size: float):
    from repro.core.geometry import Rect

    return Rect((0.0, 0.0), (size, size))


def cmd_build(args: argparse.Namespace) -> int:
    if args.metrics_out:
        set_enabled(True).reset()
    trace = Trace.load(args.trace)
    histories = trace.histories(args.history)
    current = trace.current_positions(args.history)
    stream = UpdateStream(trace, args.history)
    query_rate = (
        args.query_rate if args.query_rate is not None else max(stream.rate, 1.0) / 100.0
    )
    pager = Pager()
    builder = CTRTreeBuilder(CTParams(), query_rate=query_rate)
    tree, report = builder.build(pager, _domain(args.city_size), histories, current)
    print(f"objects:        {report.object_count}")
    print(f"phase 1 regions:{report.phase1_regions:>8}")
    print(f"phase 2 regions:{report.phase2_regions:>8}")
    print(f"phase 3 regions:{report.phase3_regions:>8}")
    print(f"build I/Os:     {report.build_ios:>8}")
    print(f"index:          {tree}")
    if args.save:
        from repro.storage.snapshot import save_index

        path = save_index(tree, args.save)
        print(f"snapshot:       {path}")
    if args.metrics_out:
        if not _write_metrics(
            args.metrics_out,
            {
                "command": "build",
                "build": report.to_dict(),
                "tree_stats": tree_stats(tree),
                "pager": pager.metrics_dict(),
            },
        ):
            return 1
    return 0


def _write_metrics(path: str, payload: dict) -> bool:
    """Dump ``payload`` plus the global registry to ``path`` as JSON, then
    switch the registry back off so library state doesn't leak past the
    command (matters for in-process callers such as the tests)."""
    payload["registry"] = get_registry().to_dict()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        set_enabled(False)
        print(f"cannot write --metrics-out file: {exc}", file=sys.stderr)
        return False
    set_enabled(False)
    print(f"metrics:        {path}")
    return True


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.name == "table1":
        from repro.experiments import table1

        print(table1.run("paper"))
        return 0
    if args.name == "ablations":
        from repro.experiments import ablations

        for result in ablations.run(args.scale, args.seed).values():
            print(result)
            print()
        return 0
    if args.name == "figure12":
        from repro.experiments import figure12

        for result in figure12.run(args.scale, args.seed).values():
            print(result)
            print()
        return 0
    import importlib

    module = importlib.import_module(f"repro.experiments.{args.name}")
    print(module.run(args.scale, args.seed))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.serve import (
        ShutdownRequested,
        describe_teardown,
        handle_signals,
        teardown_run,
    )

    if args.metrics_out:
        set_enabled(True).reset()
    trace = Trace.load(args.trace)
    domain = _domain(args.city_size)
    histories = trace.histories(args.history)
    current = trace.current_positions(args.history)
    load_time = trace.load_time(args.history)
    stream = UpdateStream(trace, args.history)
    if len(stream) == 0:
        print("trace has no online samples past the history length", file=sys.stderr)
        return 1
    query_rate = stream.rate / args.ratio
    t_start, t_end = trace.online_span(args.history)
    queries = QueryWorkload(domain, query_rate, 0.001, seed=args.seed).between(
        t_start, t_end
    )
    pooled = args.buffer_pool > 0
    sharded = args.shards > 1
    batched = args.batch > 0
    walled = args.wal_dir is not None
    healing = getattr(args, "self_heal", False)
    parallel = getattr(args, "parallel", False)
    parallel_mode = "process" if parallel else "off"
    if healing and sharded:
        print("--self-heal does not compose with --shards (the wrapper "
              "rebuilds one structure; shard routers manage their own)",
              file=sys.stderr)
        return 1
    partitioner = getattr(args, "partitioner", "grid")
    rebalance = getattr(args, "rebalance", False)
    if (partitioner != "grid" or rebalance) and not sharded:
        print("--partitioner/--rebalance need --shards N "
              "(they configure the shard router)", file=sys.stderr)
        return 1
    if parallel:
        if walled:
            print("--parallel does not compose with --wal-dir (WAL append "
                  "order assumes a single applying actor; workers apply "
                  "concurrently)", file=sys.stderr)
            return 1
        if healing:
            print("--parallel does not compose with --self-heal (the "
                  "wrapper rebuilds one structure; the worker pool degrades "
                  "to inline on its own)", file=sys.stderr)
            return 1
        if not sharded:
            print("--parallel needs --shards N with N >= 2", file=sys.stderr)
            return 1
    kinds = tuple(dict.fromkeys(args.index)) if args.index else IndexKind.ALL
    print(f"{len(stream)} updates, {len(queries)} queries (ratio {args.ratio:g})")
    if pooled:
        print(f"buffer pool: {args.buffer_pool} frames (LRU, write-back)")
    if sharded or batched:
        parts = []
        if sharded:
            parts.append(f"{args.shards} shards ({partitioner} partition)")
        if parallel:
            parts.append("parallel process (one worker per shard)")
        if rebalance:
            parts.append("online rebalance (hot-shard detection)")
        if batched:
            parts.append(f"batch {args.batch} (coalescing update buffer)")
        print(f"engine: {', '.join(parts)}")
    if walled:
        line = f"durability: WAL under {args.wal_dir} (sync {args.sync_policy}"
        if args.checkpoint_every:
            line += f", checkpoint every {args.checkpoint_every} updates"
        print(line + ")")
    if healing:
        print(f"health: self-healing on (drift window {args.drift_window})")
    print()
    header = f"{'index':<12} {'update I/O':>12} {'query I/O':>10} {'total':>10}"
    if pooled:
        header += f" {'hit rate':>9}"
    if batched:
        header += f" {'coalesced':>10}"
    if healing:
        header += f" {'health':>14}"
    print(header)
    print("-" * len(header))
    partition = None
    if sharded and partitioner != "grid":
        from repro.engine import make_partition

        partition = make_partition(
            partitioner,
            domain,
            args.shards,
            positions=current,
            histories=histories,
        )
    per_index: dict = {}
    index = buffer = durability = closer = None
    try:
        with handle_signals():
            for kind in kinds:
                closer = buffer = durability = None
                rebalancer = None
                if rebalance:
                    from repro.engine import RebalancePolicy, ShardRebalancer

                    rebalancer = ShardRebalancer(RebalancePolicy(
                        strategy="speed" if partitioner == "speed" else "density"
                    ))
                if sharded:
                    index = ShardedIndex(
                        kind,
                        domain,
                        args.shards,
                        mode="process" if parallel else "inline",
                        histories=histories if kind == IndexKind.CT else None,
                        query_rate=query_rate,
                        pool_frames=args.buffer_pool,
                        partition=partition,
                        rebalancer=rebalancer,
                    )
                    closer = index
                    store = index.pager
                    store_metrics = store.metrics_dict
                else:
                    pager = Pager()
                    store = (
                        BufferPool(pager, capacity=args.buffer_pool)
                        if pooled
                        else pager
                    )
                    index = make_index(
                        kind, store, domain,
                        histories=histories, query_rate=query_rate,
                        lsm_memtable=args.lsm_memtable,
                        lsm_size_ratio=args.lsm_size_ratio,
                        lsm_max_runs=args.lsm_max_runs,
                    )
                    store_metrics = pager.metrics_dict
                buffer = (
                    UpdateBuffer(FlushPolicy(batch_size=args.batch))
                    if batched
                    else None
                )
                if walled:
                    from repro.durability import DurabilityManager

                    durability = DurabilityManager(
                        f"{args.wal_dir}/{kind}",
                        sync=args.sync_policy,
                        checkpoint_every=args.checkpoint_every,
                    )
                wrapper = None
                if healing:
                    from repro.engine import IndexOptions
                    from repro.health import DriftMonitor, SelfHealingIndex

                    wrapper = SelfHealingIndex(
                        index,
                        kind,
                        domain,
                        monitor=DriftMonitor(window=args.drift_window),
                        options=IndexOptions(
                            histories=histories if kind == IndexKind.CT else None,
                            query_rate=query_rate,
                        ),
                        durability=durability,
                    )
                    index = wrapper
                driver = SimulationDriver(
                    index, store, kind, update_buffer=buffer, durability=durability
                )
                driver.load(current, now=load_time)
                result = driver.run(stream, queries)
                # Same drain the daemon's graceful shutdown performs: flush
                # any coalescing buffer, take the final checkpoint (the WAL
                # tail past it is empty, not torn), close the WAL segments.
                teardown_run(index=index, buffer=buffer, durability=durability)
                line = (
                    f"{IndexKind.LABELS[kind]:<12} {result.update_ios:>12,} "
                    f"{result.query_ios:>10,} {result.total_ios:>10,}"
                )
                if pooled:
                    line += f" {store.hit_rate:>8.1%}"
                if batched:
                    line += f" {result.n_coalesced:>10,}"
                if wrapper is not None:
                    line += (
                        f" {wrapper.health_state:>9}"
                        f" x{wrapper.cutovers:<3}"
                    )
                print(line)
                if args.metrics_out:
                    per_index[kind] = {
                        "run": result.to_dict(),
                        "tree_stats": tree_stats(index),
                        "pager": store_metrics(),
                        "buffer_pool": (
                            store.metrics_dict()
                            if pooled and not sharded
                            else None
                        ),
                        "engine": {
                            "shards": args.shards,
                            "batch": args.batch,
                            "parallel": parallel_mode,
                            "sharded": index.engine_dict() if sharded else None,
                            "buffer": (
                                buffer.stats.to_dict()
                                if buffer is not None
                                else None
                            ),
                        },
                        "durability": (
                            durability.metrics_dict()
                            if durability is not None
                            else None
                        ),
                        "health": (
                            wrapper.health_dict() if wrapper is not None else None
                        ),
                    }
                if closer is not None:
                    closer.close()
                    closer = None
                buffer = durability = None
    except ShutdownRequested as exc:
        # The daemon's drain, on the batch path: flush the buffer, final
        # checkpoint, close the WAL, tear down workers and their /dev/shm
        # mailboxes -- an interrupted run leaks nothing.
        actions = teardown_run(
            index=index, buffer=buffer, durability=durability, closer=closer
        )
        print(describe_teardown(actions, str(exc)), file=sys.stderr)
        set_enabled(False)
        return 130
    except BaseException:
        # Crash path: still release workers/shm and WAL file handles, but
        # take no checkpoint -- recovery semantics stay those of a crash.
        teardown_run(
            index=index, buffer=buffer, durability=durability,
            closer=closer, checkpoint=False,
        )
        raise
    if args.metrics_out:
        if not _write_metrics(
            args.metrics_out,
            {
                "command": "compare",
                "buffer_pool_frames": args.buffer_pool,
                "shards": args.shards,
                "partitioner": partitioner,
                "rebalance": rebalance,
                "parallel": parallel_mode,
                "batch": args.batch,
                "self_heal": healing,
                "drift_window": args.drift_window if healing else None,
                "wal_dir": args.wal_dir,
                "sync_policy": args.sync_policy if walled else None,
                "checkpoint_every": args.checkpoint_every if walled else None,
                "n_updates": len(stream),
                "n_queries": len(queries),
                "indexes": per_index,
            },
        ):
            return 1
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    from repro.durability import RecoveryError, recover

    try:
        index, report = recover(args.dir, repair=not args.no_repair)
    except RecoveryError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    print(f"checkpoint:     #{report.checkpoint_ordinal} "
          f"(kind {report.kind or '?'}, covers seq {report.checkpoint_seq})")
    print(f"replayed:       {report.records_replayed} records")
    print(f"skipped:        {report.records_skipped} records")
    print(f"truncated:      {report.segments_truncated} segments"
          + (f", {report.tmp_files_removed} tmp files"
             if report.tmp_files_removed else ""))
    if report.torn_tail:
        print("torn tail:      yes (trimmed)" if not args.no_repair
              else "torn tail:      yes")
    if report.corrupt_segments:
        print(f"corrupt:        {report.corrupt_segments} segments")
    if report.missing_segments:
        print(f"missing:        segments {report.missing_segments}")
    if report.gap_at_seq:
        print(f"ledger ends:    seq {report.gap_at_seq - 1}")
    if report.verify_ok is not None:
        print(f"verify:         {'ok' if report.verify_ok else 'FAILED'}"
              + (f" ({len(report.verify_violations)} violations)"
                 if not report.verify_ok else ""))
    print(f"replay time:    {report.replay_s:.3f}s")
    print(f"objects:        {len(index)}")
    print(f"index:          {index!r}")
    if args.save:
        from repro.storage.snapshot import save_index

        path = save_index(index, args.save)
        print(f"snapshot:       {path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    import os

    from repro.health import repair_index, verify_index

    if os.path.isdir(args.target):
        from repro.durability import RecoveryError, recover

        try:
            # The verifier runs below; recovery need not run it too.
            index, _report = recover(args.target, verify=False)
        except RecoveryError as exc:
            print(f"recovery failed: {exc}", file=sys.stderr)
            return 1
        print(f"recovered:      {index!r}")
    else:
        from repro.storage.snapshot import SnapshotError, load_index

        try:
            index = load_index(args.target)
        except (OSError, SnapshotError) as exc:
            print(f"cannot load snapshot: {exc}", file=sys.stderr)
            return 1
        print(f"loaded:         {index!r}")

    report = verify_index(index)
    print(f"verify:         {report.summary()}")
    for violation in report.violations:
        print(f"  {violation}")
    payload: dict = {"command": "verify", "target": args.target,
                     "verify": report.to_dict(), "repair": None,
                     "reverify": None}
    if args.repair and not report.ok:
        repair = repair_index(index)
        print(f"repair:         {repair.total} fixes "
              f"({json.dumps(repair.to_dict())})")
        report = verify_index(index)
        print(f"re-verify:      {report.summary()}")
        for violation in report.violations:
            print(f"  {violation}")
        payload["repair"] = repair.to_dict()
        payload["reverify"] = report.to_dict()
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"cannot write --json file: {exc}", file=sys.stderr)
            return 1
        print(f"report:         {args.json}")
    return 0 if report.ok else 1


def _load_fault_injector(spec: str):
    """``--fault-schedule``: inline JSON or a file path (consumed one-shot).

    The file form exists for the supervised daemon: the supervisor's
    restarted child re-reads its argv, and deleting the file after arming
    makes the injected crash a one-time event instead of a crash loop.
    """
    import os

    from repro.durability import FaultSchedule

    text = spec
    if os.path.isfile(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            os.unlink(spec)
        except OSError:
            pass
    schedule = FaultSchedule.from_json(text)
    print(f"armed: {schedule.seed_line()}", flush=True)
    return schedule.injector()


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from repro.serve import EngineService, ServeConfig, ServeServer
    from repro.serve.bench import build_primary

    if args.supervise:
        return _cmd_serve_supervised(args)

    domain = _domain(args.city_size)
    fault = (
        _load_fault_injector(args.fault_schedule)
        if args.fault_schedule
        else None
    )
    durability = None
    if args.wal_dir:
        from repro.durability import DurabilityManager, list_checkpoints

        has_checkpoint = bool(list_checkpoints(args.wal_dir))
    else:
        has_checkpoint = False

    recovery_report = None
    if has_checkpoint:
        # A restart: the WAL directory -- not the trace -- is the truth.
        # Re-loading the trace here would take a fresh baseline checkpoint
        # covering records never applied, silently dropping acked writes.
        from repro.durability import RecoveryError, recover

        try:
            index, recovery_report = recover(args.wal_dir)
        except RecoveryError as exc:
            print(f"recovery failed: {exc}", file=sys.stderr)
            return 1
        kind = recovery_report.kind or args.kind
        if kind != args.kind:
            print(
                f"recovered kind {kind!r} overrides --kind {args.kind!r}",
                file=sys.stderr,
            )
        store = getattr(index, "pager", None) or Pager()
        n_loaded = len(index)
    else:
        trace = Trace.load(args.trace)
        kind = args.kind
        histories = (
            trace.histories(args.history) if kind == IndexKind.CT else None
        )
        positions = trace.current_positions(args.history)
        if not positions:
            print("trace has no objects at the history cut", file=sys.stderr)
            return 1
        index, store = build_primary(
            kind, domain, histories=histories, shards=args.shards
        )
        n_loaded = len(positions)
    if args.wal_dir:
        durability = DurabilityManager(
            args.wal_dir,
            sync=args.sync_policy,
            checkpoint_every=args.checkpoint_every,
            fault=fault,
        )
    service = EngineService(index, store, kind, domain, durability=durability)
    if recovery_report is not None:
        service.adopt_recovered(recovery_report)
        if durability is not None:
            # Fold the replayed WAL tail into a fresh checkpoint now, so
            # the next crash recovers from here instead of re-replaying.
            service.checkpoint()
        print(
            f"recovered: {recovery_report.records_replayed} records past "
            f"checkpoint #{recovery_report.checkpoint_ordinal}, "
            f"{len(service.positions)} objects",
            flush=True,
        )
    else:
        service.load(positions, now=trace.load_time(args.history))
    server = ServeServer(
        service,
        ServeConfig(
            host=args.host,
            port=args.port,
            queue_depth=args.queue_depth,
            write_batch=args.write_batch,
            rate=args.rate,
            burst=args.burst,
            replicas=args.replicas,
            refresh_interval=args.refresh,
        ),
    )

    async def _run_daemon() -> None:
        await server.start()
        server.install_signal_handlers()
        host, port = server.address
        print(
            f"serving {kind} ({n_loaded} objects) on "
            f"{host}:{port} (pid {os.getpid()})",
            flush=True,
        )
        if args.ready_file:
            tmp = args.ready_file + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({"host": host, "port": port, "pid": os.getpid()}, fh)
                fh.write("\n")
            os.replace(tmp, args.ready_file)
        await server.wait_stopped()

    try:
        asyncio.run(_run_daemon())
    finally:
        service.close_index()
        if args.ready_file:
            try:
                os.unlink(args.ready_file)
            except OSError:
                pass
    if server.error is not None:
        print(f"daemon died: {server.error!r}", file=sys.stderr)
        return 1
    print(f"drained: acked {service.acked}, applied {service.applied}")
    return 0


def _serve_child_argv(args: argparse.Namespace) -> List[str]:
    """Reconstruct the plain (unsupervised) ``serve`` argv for the child."""
    argv = [
        sys.executable, "-m", "repro", "serve", args.trace,
        "--history", str(args.history),
        "--kind", str(args.kind),
        "--host", args.host,
        "--port", str(args.port),
        "--ready-file", args.ready_file,
        "--wal-dir", args.wal_dir,
        "--sync-policy", args.sync_policy,
        "--checkpoint-every", str(args.checkpoint_every),
        "--queue-depth", str(args.queue_depth),
        "--write-batch", str(args.write_batch),
        "--rate", str(args.rate),
        "--burst", str(args.burst),
        "--replicas", str(args.replicas),
        "--refresh", str(args.refresh),
        "--shards", str(args.shards),
        "--city-size", str(args.city_size),
    ]
    if args.fault_schedule:
        argv += ["--fault-schedule", args.fault_schedule]
    return argv


def _cmd_serve_supervised(args: argparse.Namespace) -> int:
    import signal
    import subprocess

    from repro.resilience import (
        Supervisor,
        SupervisorError,
        SupervisorPolicy,
        file_ready_check,
    )

    if not args.wal_dir or not args.ready_file:
        print("--supervise requires --wal-dir and --ready-file",
              file=sys.stderr)
        return 2
    argv = _serve_child_argv(args)
    supervisor = Supervisor(
        lambda: subprocess.Popen(argv),
        ready_check=file_ready_check(args.ready_file),
        policy=SupervisorPolicy(
            max_restarts=args.max_restarts,
            backoff_base=args.restart_backoff,
            ready_timeout=args.ready_timeout,
        ),
    )
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda _s, _f: supervisor.stop())
    try:
        supervisor.start()
    except SupervisorError as exc:
        print(f"supervised daemon never became ready: {exc}",
              file=sys.stderr)
        return 1
    print(
        f"supervising pid {supervisor.child_pid} "
        f"(budget: {args.max_restarts} restarts)",
        flush=True,
    )
    code = supervisor.run()
    for event in supervisor.events:
        mttr = f"{event.mttr_s:.2f}s" if event.mttr_s is not None else "?"
        print(
            f"restart #{event.restart}: exit {event.exit_code}, "
            f"backoff {event.backoff_s:.2f}s, "
            f"{'ready' if event.ready else 'NOT READY'}, mttr {mttr}"
        )
    summary = supervisor.to_dict()
    mean = summary["mttr_mean_s"]
    print(
        f"supervisor: {summary['restarts']}/{summary['budget']} restarts"
        + (f", mttr mean {mean:.2f}s" if mean is not None else "")
    )
    if supervisor.exhausted:
        print("restart budget exhausted; giving up", file=sys.stderr)
        return code or 1
    return 0 if code == 0 else code


def cmd_chaos(args: argparse.Namespace) -> int:
    import shutil
    import tempfile
    from pathlib import Path

    from repro.chaos import ChaosConfig, format_chaos_report, run_chaos

    if args.run_dir:
        run_dir = Path(args.run_dir)
        ephemeral = False
    else:
        run_dir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
        ephemeral = True
    cfg = ChaosConfig(
        run_dir=run_dir,
        seed=args.seed,
        profile=args.profile,
        writers=args.writers,
        objects=args.objects,
        min_ops=args.min_ops,
        kind=args.kind,
        staleness_bound_s=args.staleness_bound,
    )
    report = run_chaos(cfg)
    print(format_chaos_report(report))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True, default=str)
                fh.write("\n")
        except OSError as exc:
            print(f"cannot write --out file: {exc}", file=sys.stderr)
            return 1
        print(f"report: {args.out}")
    if ephemeral and report["ok"] and not args.keep:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        print(f"run dir: {run_dir}")
    return 0 if report["ok"] else 1


def cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.serve.bench import format_serve_table, run_serve_bench

    trace = Trace.load(args.trace)
    domain = _domain(args.city_size)
    try:
        client_counts = tuple(
            int(c) for c in args.clients.split(",") if c.strip()
        )
    except ValueError:
        print(f"bad --clients list: {args.clients!r}", file=sys.stderr)
        return 1
    if not client_counts or min(client_counts) < 1:
        print("--clients needs positive counts, e.g. 1,8,32", file=sys.stderr)
        return 1
    section = run_serve_bench(
        trace,
        args.history,
        domain,
        kind=args.kind,
        client_counts=client_counts,
        queue_depth=args.queue_depth,
        write_batch=args.write_batch,
        rate=args.rate,
        replicas=args.replicas,
        refresh_interval=args.refresh,
        shards=args.shards,
        query_ratio=args.ratio,
        seed=args.seed,
        loadgen_mode=args.mode,
    )
    print(
        f"{section['n_updates']} updates + {section['n_queries']} queries "
        f"per run, {section['sweep_cells']}-cell parity sweep"
    )
    print(format_serve_table(section))
    print(f"parity: {'ok' if section['parity'] else 'FAIL'}   "
          f"verify: {'ok' if section['verify_ok'] else 'FAIL'}")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"serve": section}, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"cannot write --out file: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}")
    return 0 if section["parity"] and section["verify_ok"] else 1


def cmd_params(_args: argparse.Namespace) -> int:
    print(format_table1(SimulationParams(), CTParams()))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import ALL_SECTIONS, write_report

    sections = args.sections if args.sections else list(ALL_SECTIONS)
    path = write_report(args.output, args.scale, args.seed, sections)
    print(f"wrote {path}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "build": cmd_build,
    "experiment": cmd_experiment,
    "compare": cmd_compare,
    "recover": cmd_recover,
    "verify": cmd_verify,
    "serve": cmd_serve,
    "bench-serve": cmd_bench_serve,
    "chaos": cmd_chaos,
    "params": cmd_params,
    "report": cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
