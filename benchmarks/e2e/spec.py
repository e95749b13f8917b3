"""What the benchmark declares: workloads, metrics, bounds, the layer map.

``BENCHMARK.json`` at the repository root is the driver-facing copy of the
names, units, directions and bounds below (``manifest()`` renders it and a
self-test keeps the two equal).  This module adds what that file's fixed
shape cannot hold: each workload's sizes and loop kind, which end-to-end
metric each layer metric is expected to move and where, and the metrics
that exist on some workloads only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Measured window per run, seconds (``run_seconds`` in the manifest).
RUN_SECONDS = 8

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: why the workload exists (the manifest's ``why``).
    why: str
    #: ``closed`` issues the next op when the previous returns; ``open``
    #: sends on a fixed schedule whatever the replies do.
    loop: str
    #: Human-readable sizes for the README and the report header.
    shape: str
    #: Listed in ``BENCHMARK.json``, i.e. run and gated by the driver.  The
    #: served workloads are not: everything the manifest lists must repeat
    #: within a bound of at most 0.25 over ten seeds, and a daemon child
    #: plus a load generator on this two-vCPU host do so only some of the
    #: time -- quiet, the closed loop holds 4.4 k updates/s within 3-6 %;
    #: in the host's busy stretches the same code ranged 1.7-3.3 k with the
    #: median round trip spread 59 %, while the in-process workloads stayed
    #: within 12 %.  A gate that wide would fail innocent changes.  Both
    #: run under the command line, ``--aa`` and the self-tests like the
    #: other four.
    in_manifest: bool = True


REPLAY_CT = "replay_ct"
REPLAY_LSM = "replay_lsm"
REPLAY_LAZY_BATCHED = "replay_lazy_batched"
REPLAY_LAZY_READS = "replay_lazy_reads"
SERVE_WRITE_CLOSED = "serve_write_closed"
SERVE_PACED_REPLICA = "serve_paced_replica"

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        REPLAY_CT,
        "the paper's structure on the paper's 100:1 update:range mix; core, "
        "hashindex and storage do all the work, serve/durability/lsm none; "
        "setup_s is the qs-region mining",
        "closed",
        "in-process, 1 thread; CTRTreeBuilder over 109-sample histories, then "
        "unbatched updates with one 0.1 %-area range query per 100",
    ),
    Workload(
        REPLAY_LSM,
        "the out-of-place write path: fewest I/Os per update, slowest wall "
        "clock, compaction only in the tail; an in-place R-tree change "
        "predicts no movement here",
        "closed",
        "in-process, 1 thread; kind lsm with the default LSMConfig, one "
        "0.1 %-area range query per 25 updates",
    ),
    Workload(
        REPLAY_LAZY_BATCHED,
        "engine.buffer and group apply without wire or fsync; where a "
        "batch-native apply must show, or deleting --batch must show nothing",
        "closed",
        "in-process, 1 thread; kind lazy behind UpdateBuffer(batch_size=64), "
        "flush before each query, one 0.1 %-area range query per 100 updates",
    ),
    Workload(
        REPLAY_LAZY_READS,
        "the same index read beside writes over a pool smaller than the tree; "
        "an update gain bought with looser MBRs or more read amplification "
        "shows as a loss here",
        "closed",
        "in-process, 1 thread; kind lazy over BufferPool(capacity=40 of ~170 "
        "pages), 1 update : 1 range query of 1 % area : 0.2 kNN (k=10)",
    ),
    Workload(
        SERVE_WRITE_CLOSED,
        "capacity of one acked update end to end through repro serve; wire, "
        "event loop, WAL append/fsync and writer queue dominate, the index "
        "is a few percent",
        "closed",
        "child `repro serve --kind lazy --replicas 0 --sync-policy group:8`, "
        "2 ResilientServeClient connections on 2 threads, 10 update frames : "
        "1 range read, JSON codec; then SIGKILL and recover()",
        in_manifest=False,
    ),
    Workload(
        SERVE_PACED_REPLICA,
        "independent vehicles do not wait for each other: a fixed schedule at "
        "a fraction of capacity exposes the replica-refresh stall a closed "
        "loop hides",
        "open",
        "child `repro serve --kind lazy --replicas 1 --refresh 0.25` (the CLI "
        "defaults), 2 connections each on a fixed schedule, 1500 ops/s in "
        "all, 4 updates : 1 replica range read, latency from the due time",
        in_manifest=False,
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
REPLAY = (REPLAY_CT, REPLAY_LSM, REPLAY_LAZY_BATCHED, REPLAY_LAZY_READS)
SERVE = (SERVE_WRITE_CLOSED, SERVE_PACED_REPLICA)


@dataclass(frozen=True)
class EndToEnd:
    """A metric a user of the system would see.

    ``bound`` is the share of the earlier median by which a later run may
    be worse before it counts as a regression.  ``workloads`` is where the
    metric exists; ``None`` means every workload.
    """

    name: str
    unit: str
    better: str
    bound: float
    workloads: Optional[Tuple[str, ...]] = None


# The manifest allows one bound per metric, at most 0.25, over all of its
# workloads, so the noisiest workload sets it.  On a quiet host ten seeds of
# the same code stay within 1-5 % on every in-process timing below
# (inter-quartile distance over the median); this host also has busy
# stretches, minutes long, in which they spread 6-12 %.  Three times that
# is past the cap, so timings carry the largest bound the manifest permits;
# the page counts are exact or nearly so and carry a tight one.
#
# The tails -- p99, p99.9 -- are measured in the same untraced pass and
# held to their bounds by ``--aa``, but an in-process p99 spreads 4-9 %
# quiet and 20 % busy, a served one 10-16 % and 25-60 %: too close to, or
# beyond, any bound the manifest could state.  They and the metrics that
# exist on some workloads only reach the driver under the ``bench.`` layer
# of the traced run instead.
#: The manifest's ``end_to_end`` list: on every workload, never zero.
COMMON_END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("update_ops_s", "ops/s", "higher", 0.25),
    EndToEnd("update_p50_ms", "ms", "lower", 0.25),
    EndToEnd("query_p50_ms", "ms", "lower", 0.25),
    EndToEnd("ios_per_update", "pages", "lower", 0.03),
    EndToEnd("ios_per_query", "pages", "lower", 0.10),
)
#: Everything else, carried by the ``bench`` layer.
SPECIFIC_END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("update_p99_ms", "ms", "lower", 0.25),
    EndToEnd("query_p99_ms", "ms", "lower", 0.25),
    EndToEnd("update_p999_ms", "ms", "lower", 0.25, REPLAY),
    EndToEnd("knn_p50_ms", "ms", "lower", 0.25, (REPLAY_LAZY_READS,)),
    EndToEnd("knn_p99_ms", "ms", "lower", 0.25, (REPLAY_LAZY_READS,)),
    EndToEnd("pages_per_kobj", "pages", "lower", 0.03, REPLAY),
    EndToEnd("recovery_s", "s", "lower", 0.25, SERVE),
    # Any rise fails: the baseline is zero, so the bound is absolute.
    EndToEnd("failed_ops_share", "ratio", "lower", 0.0),
)
END_TO_END = COMMON_END_TO_END + SPECIFIC_END_TO_END


def applies(metric: EndToEnd, workload: str) -> bool:
    return metric.workloads is None or workload in metric.workloads


@dataclass(frozen=True)
class Layer:
    """One module's metrics and the end-to-end figure they should move."""

    name: str
    moves: str
    #: ``(suffix, unit, better)``; the metric is ``<layer>.<suffix>``.
    metrics: Tuple[Tuple[str, str, str], ...]


LAYERS: Tuple[Layer, ...] = (
    Layer(
        "citysim",
        "none: the benchmark's own input cost, reported so it is never "
        "mistaken for setup_s",
        (("generate_s", "s", "lower"), ("records", "count", "lower")),
    ),
    Layer(
        "core.build",
        "setup_s @ replay_ct",
        (
            ("phase1_s", "s", "lower"),
            ("phase2_s", "s", "lower"),
            ("phase3_s", "s", "lower"),
            ("phase4_s", "s", "lower"),
            ("ios", "count", "lower"),
        ),
    ),
    Layer(
        "core",
        "ios_per_update, update_ops_s, query_p50_ms @ replay_ct",
        (
            ("qs_regions", "count", "higher"),
            ("lazy_hit_rate", "ratio", "higher"),
            ("update_self_s", "s", "lower"),
            ("query_self_s", "s", "lower"),
            ("height", "count", "lower"),
        ),
    ),
    Layer(
        "rtree",
        "update_ops_s, ios_per_update @ replay_lazy_batched; query_p50_ms, "
        "knn_p50_ms, ios_per_query @ replay_lazy_reads",
        (
            ("lazy_hit_rate", "ratio", "higher"),
            ("relocations_per_update", "ratio", "lower"),
            ("update_self_s", "s", "lower"),
            ("query_self_s", "s", "lower"),
            ("knn_self_s", "s", "lower"),
            ("height", "count", "lower"),
            ("avg_fill", "ratio", "higher"),
            ("dead_space_ratio", "ratio", "lower"),
        ),
    ),
    Layer(
        "hashindex",
        "update_ops_s @ replay_ct, replay_lazy_batched; none @ replay_lsm",
        (("calls_per_update", "ratio", "lower"), ("self_s", "s", "lower")),
    ),
    Layer(
        "storage",
        "ios_per_update, ios_per_query, pages_per_kobj @ replay_*; the pool "
        "figures move ios_per_query, query_p50_ms @ replay_lazy_reads only",
        (
            ("reads_per_update", "pages", "lower"),
            ("writes_per_update", "pages", "lower"),
            ("reads_per_query", "pages", "lower"),
            ("read_s", "s", "lower"),
            ("write_s", "s", "lower"),
            ("page_count", "count", "lower"),
            ("freed_pages", "count", "lower"),
            ("pool_hit_rate", "ratio", "higher"),
            ("pool_evictions", "count", "lower"),
        ),
    ),
    Layer(
        "engine.buffer",
        "update_ops_s, update_p99_ms, ios_per_update @ replay_lazy_batched",
        (
            ("put_s", "s", "lower"),
            ("flush_s", "s", "lower"),
            ("flushes", "count", "lower"),
            ("mean_batch", "count", "higher"),
            ("coalesced_share", "ratio", "higher"),
            ("flush_p99_ms", "ms", "lower"),
        ),
    ),
    Layer(
        "lsm",
        "update_p999_ms, update_ops_s (compaction) and query_p50_ms, "
        "ios_per_query (read amplification) @ replay_lsm",
        (
            ("flushes", "count", "lower"),
            ("flush_s", "s", "lower"),
            ("compactions", "count", "lower"),
            ("compact_s", "s", "lower"),
            ("pages_rewritten_per_update", "pages", "lower"),
            ("run_count", "count", "lower"),
            ("read_amp_mean", "count", "lower"),
            ("read_amp_max", "count", "lower"),
            ("update_self_s", "s", "lower"),
            ("query_self_s", "s", "lower"),
        ),
    ),
    Layer(
        "durability",
        "update_ops_s, update_p50_ms @ serve_write_closed; recovery_s; "
        "failed_ops_share",
        (
            ("append_s_mean", "s", "lower"),
            ("fsyncs_per_update", "ratio", "lower"),
            ("wal_bytes_per_update", "B", "lower"),
            ("checkpoints", "count", "lower"),
            ("recover_records", "count", "lower"),
            ("unsynced_tail", "count", "lower"),
            ("acked_lost", "count", "lower"),
        ),
    ),
    Layer(
        "serve",
        "update_ops_s, update_p50_ms @ serve_write_closed",
        (
            ("client.encode_s_mean", "s", "lower"),
            ("client.decode_s_mean", "s", "lower"),
            ("client.rtt_s_mean", "s", "lower"),
            ("server.handler_s_mean", "s", "lower"),
            ("residual_s_mean", "s", "lower"),
            ("writer.apply_s_mean", "s", "lower"),
            ("writer.batch_mean", "count", "higher"),
            ("queue.depth_mean", "count", "lower"),
            ("rejected", "count", "lower"),
            ("probe.apply_s_mean", "s", "lower"),
            ("daemon_cpu_us_per_op", "us", "lower"),
            ("daemon_peak_rss_mb", "MB", "lower"),
        ),
    ),
    Layer(
        "serve.replica",
        "update_p99_ms, query_p50_ms @ serve_paced_replica; zero @ "
        "serve_write_closed",
        (
            ("refreshes", "count", "lower"),
            ("lag_ops_mean", "count", "lower"),
            ("reads", "count", "higher"),
            ("fork_s", "s", "lower"),
            ("install_s", "s", "lower"),
        ),
    ),
    Layer(
        "resilience",
        "failed_ops_share @ serve_* (all expected 0)",
        (
            ("retries", "count", "lower"),
            ("reconnects", "count", "lower"),
            ("dedup_acks", "count", "lower"),
        ),
    ),
    Layer(
        "loadgen",
        "validity of serve_paced_replica: a generator that runs late is "
        "reported, not hidden",
        (
            ("late_share", "ratio", "lower"),
            ("max_lateness_ms", "ms", "lower"),
            ("cpu_s", "s", "lower"),
        ),
    ),
    Layer(
        "health",
        "failed_ops_share (post-run verify_index, outside the window)",
        (("verify_s", "s", "lower"), ("violations", "count", "lower")),
    ),
    Layer(
        "bench",
        "the harness itself: loop time outside every layer, the cost of "
        "tracing, and the end-to-end metrics the manifest cannot list (tails, "
        "workload-specific ones) from the untraced pass",
        (
            ("loop_self_s", "s", "lower"),
            ("traced_window_s", "s", "lower"),
            ("budget_gap_pct", "%", "lower"),
            ("trace_overhead_pct", "%", "lower"),
        )
        + tuple((m.name, m.unit, m.better) for m in SPECIFIC_END_TO_END),
    ),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (f"{layer.name}.{suffix}", unit, better)
    for layer in LAYERS
    for suffix, unit, better in layer.metrics
)


def manifest() -> Dict[str, object]:
    """The exact content of ``BENCHMARK.json``."""
    end_to_end: List[Dict[str, object]] = [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in COMMON_END_TO_END
    ]
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS if w.in_manifest
        ],
        "end_to_end": end_to_end,
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
