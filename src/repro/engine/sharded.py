"""The sharded engine: a space-partitioned router over per-shard indexes.

MOIST-style scaling lever: moving objects are partitioned by a **static
space partition** (equal-width slabs along the domain's widest axis), with
one pager and one index per shard.  Updates route to the shard owning the
object's position; an object crossing a slab boundary is deleted from its
old shard and inserted into the new one; range queries fan out to every
shard whose slab intersects the query rectangle and merge the results.

Execution: the router never touches a shard index itself.  Every piece of
shard work is a command of the :class:`ShardServer` protocol, handed to a
*shard executor* as one ``{sid: command}`` round that returns the responses
and the sids whose worker died.  ``mode`` picks the executor:

* ``"inline"`` -- :class:`InlineExecutor`, the default: parent-resident
  shards, commands run in-process and synchronously, one op per round;
* ``"process"`` -- the worker pool of :mod:`repro.parallel` (imported only
  when a pool is requested): one worker process owns one shard, per-shard
  sub-batches dispatch concurrently.

Probes (``stats``, ``verify``) are shard commands too, so each runs
wherever its shard lives.

Accounting: the router owns one ledger per shard, and every shard ledger
mirrors its charges into a **shared** one (so the driver's per-run
`RunResult` is exactly comparable to an unsharded run) under the shared
category stack.  Inline shard pagers charge their ledger directly; pool
workers charge a private one and the executor reconciles the deltas.

The router itself satisfies the :class:`~repro.engine.protocol.SpatialIndex`
protocol, so the simulation driver, the update buffer, and the snapshot
layer treat a 4-shard engine exactly like a single tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from repro.core.geometry import Point, Rect
from repro.core.params import CTParams
from repro.engine.protocol import PageStore, SpatialIndex, position_of
from repro.engine.registry import IndexOptions, get_spec
from repro.engine.results import RunResult, merge_results
from repro.obs.metrics import get_registry
from repro.obs.treestats import aggregate_shard_stats, tree_stats
from repro.storage.buffer_pool import BufferPool
from repro.storage.iostats import IOCategory, IOCounter, IOStats
from repro.storage.page import Page, PageId
from repro.storage.pager import Pager

if TYPE_CHECKING:  # pragma: no cover - typing only (rebalance imports us)
    from repro.engine.buffer import PendingUpdate
    from repro.engine.rebalance import Partitioner, ShardRebalancer

#: Shard executor modes, ``ShardedIndex(..., mode=...)``.
MODES = ("inline", "process")


class SpacePartition:
    """Equal-width slabs along the domain's widest axis.

    Static by design (the paper's premise is that object *behaviour* is
    stable; MOIST likewise fixes the grid): routing is a constant-time
    arithmetic map, and a point outside the domain clamps into the nearest
    edge slab rather than erroring.
    """

    def __init__(self, domain: Rect, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.domain = domain
        extents = tuple(h - l for l, h in zip(domain.lo, domain.hi))
        self.axis = max(range(len(extents)), key=lambda d: extents[d])
        if extents[self.axis] <= 0.0:
            # A zero-extent domain has no interior to slice: degenerate to
            # a single slab covering the (point) domain, instead of
            # inventing a width that pushes region() past domain.hi.
            n_shards = 1
        self.n_shards = n_shards
        self._lo = domain.lo[self.axis]
        self._width = extents[self.axis] or 1.0

    def slab_of(self, value: float) -> int:
        """The slab owning axis coordinate ``value`` (half-open slabs;
        out-of-domain values clamp into the nearest edge slab)."""
        frac = (value - self._lo) / self._width
        return min(self.n_shards - 1, max(0, int(frac * self.n_shards)))

    def shard_of(self, point: Sequence[float]) -> int:
        return self.slab_of(point[self.axis])

    def shard_for(self, obj_id: int, point: Sequence[float]) -> int:
        """Identity-aware routing hook; spatial-only for the grid (the
        speed partitioner overrides the decision per object)."""
        return self.slab_of(point[self.axis])

    def region(self, sid: int) -> Rect:
        if not 0 <= sid < self.n_shards:
            raise ValueError(f"shard id {sid} out of range")
        lo = list(self.domain.lo)
        hi = list(self.domain.hi)
        step = self._width / self.n_shards
        if sid > 0:
            lo[self.axis] = self._lo + sid * step
        if sid < self.n_shards - 1:
            hi[self.axis] = self._lo + (sid + 1) * step
        return Rect(tuple(lo), tuple(hi))

    def intersecting(self, rect: Rect) -> List[int]:
        """Shard ids whose slab intersects ``rect`` (always non-empty).

        Both edges go through the same ``slab_of`` map that routes points:
        the edge shards are exactly where points on the rectangle's edges
        route.  (The old closed-``floor`` math used a different arithmetic
        -- ``floor(x / step)`` vs ``int(frac * n)`` -- which could both
        probe a shard no contained point routes to and, in the last ulp,
        *miss* the shard an edge point routes to.)
        """
        return list(
            range(
                self.slab_of(rect.lo[self.axis]),
                self.slab_of(rect.hi[self.axis]) + 1,
            )
        )

    def boundaries(self) -> List[float]:
        """Interior slab cut coordinates (``n_shards - 1`` of them)."""
        step = self._width / self.n_shards
        return [self._lo + sid * step for sid in range(1, self.n_shards)]

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 2,
            "partitioner": "grid",
            "n_shards": self.n_shards,
            "axis": self.axis,
            "domain": [list(self.domain.lo), list(self.domain.hi)],
            "boundaries": self.boundaries(),
        }


class ShardIOStats(IOStats):
    """A per-shard ledger that mirrors every charge into the shared ledger.

    The category *stack* is shared with the engine-wide ledger, so an
    ``IOStats.category`` scope entered on either object attributes both
    ledgers identically -- per-shard and merged figures always agree on
    update/query/build attribution.

    A ledger re-resolves its cached counter only when *its own* scopes open
    or close, and either ledger may push onto the one stack.  So the shard
    ledger caches no category: its resolved counter is a :class:`_Mirror`
    that reads the stack top at each charge and charges that category in
    both ledgers.  In turn, a scope opened, closed or reset here
    re-resolves the engine ledger's cached counter, keeping its own charges
    on the active category.
    """

    def __init__(self, shared: IOStats) -> None:
        self._shared = shared
        super().__init__()
        self._stack = shared._stack  # shared category scope (by reference)
        self._active = _Mirror(self, shared)

    def _resolve(self) -> None:
        self._shared._resolve()

    def charge(self, name: str, reads: int, writes: int) -> None:
        super().charge(name, reads, writes)
        self._shared.charge(name, reads, writes)


class _Mirror:
    """:class:`ShardIOStats`' resolved counter.

    Like ``iostats._Unlisted`` it reads as zero, so ``+= n`` hands its
    setter exactly ``n``; the setter charges ``n`` to the category on top of
    the shared stack in the shard ledger and in the engine ledger.
    """

    __slots__ = ("_shard", "_shared")

    def __init__(self, shard: IOStats, shared: IOStats) -> None:
        self._shard = shard
        self._shared = shared

    def _add_reads(self, count: int) -> None:
        name = self._shard._stack[-1]
        self._shard._counter(name).reads += count
        self._shared._counter(name).reads += count

    def _add_writes(self, count: int) -> None:
        name = self._shard._stack[-1]
        self._shard._counter(name).writes += count
        self._shared._counter(name).writes += count

    reads = property(lambda self: 0, _add_reads)
    writes = property(lambda self: 0, _add_writes)


class WorkerFailure(RuntimeError):
    """A shard worker process died mid-command."""


def route_histories(
    partition: "Partitioner",
    histories: Optional[Mapping[int, Sequence[Tuple[Point, float]]]],
) -> List[Dict[int, Sequence[Tuple[Point, float]]]]:
    """Split a history profile by the shard owning each trail's last sample.

    Identity-aware (``shard_for``): a speed partition sends a fast mover's
    trail to its churn shard, the shard that will actually load the object.
    """
    routed: List[Dict[int, Sequence[Tuple[Point, float]]]] = [
        {} for _ in range(partition.n_shards)
    ]
    if histories:
        for oid, trail in histories.items():
            if not trail:
                continue
            sid = partition.shard_for(oid, trail[-1][0])
            routed[sid][oid] = trail
    return routed


def replay_order(
    positions: Mapping[int, Tuple[Point, Optional[float]]],
) -> List[Tuple[int, Point, Optional[float]]]:
    """Deterministic replay sequence for a positions ledger.

    Timestamp order with untimed inserts first and object id as the
    tiebreaker -- the order every rebuild (rebalance cutover, worker
    fallback) replays: any two rebuilds of the same ledger feed a
    time-driven index the same monotone clock and charge identical I/O.
    """
    return sorted(
        ((oid, pos, t) for oid, (pos, t) in positions.items()),
        key=lambda item: (
            item[2] is not None,
            item[2] if item[2] is not None else 0.0,
            item[0],
        ),
    )


@dataclass
class Shard:
    """One slab's structure: its private storage and index."""

    sid: int
    region: Rect
    pager: Pager
    store: PageStore
    index: SpatialIndex


def build_shard(
    kind: str,
    sid: int,
    region: Rect,
    options: IndexOptions,
    *,
    stats: Optional[IOStats] = None,
    pool_frames: int = 0,
) -> Shard:
    """Construct one shard (pager, optional pool, index) for ``region``.

    Inline shards charge the router's mirrored :class:`ShardIOStats`
    ledger; pool workers pass a private ledger whose deltas they report.
    """
    spec = get_spec(kind)
    pager = Pager(stats=stats if stats is not None else IOStats())
    store: PageStore = (
        BufferPool(pager, capacity=pool_frames) if pool_frames else pager
    )
    index = spec.factory(store, region, options)
    return Shard(sid=sid, region=region, pager=pager, store=store, index=index)


def io_deltas(
    before: Dict[str, IOCounter], after: Dict[str, IOCounter]
) -> List[Tuple[str, int, int]]:
    """Per-category (reads, writes) growth between two ledger snapshots."""
    out: List[Tuple[str, int, int]] = []
    for cat, counter in after.items():
        base = before.get(cat)
        dr = counter.reads - (base.reads if base else 0)
        dw = counter.writes - (base.writes if base else 0)
        if dr or dw:
            out.append((cat, dr, dw))
    return out


class ShardServer:
    """Executes the shard command protocol against the one shard it owns.

    Commands are plain (picklable) tuples:

    * ``("apply", category, ops)`` -- ops are ``("insert", oid, point, t)``,
      ``("update", oid, old_point, point, t)`` or ``("delete", oid,
      old_point, t)``, applied in order under ``category``; an op that
      raises stops the run and is reported, never raised;
    * ``("query", category, lo, hi)`` -- range search over ``Rect(lo, hi)``;
    * ``("stats",)`` -- structural probe (``tree_stats``, tallies included);
    * ``("verify",)`` -- ``verify_index`` of the shard's index plus its
      ``(oid, position)`` residents, for the router-level checks;
    * ``("ping", token)`` -- transport echo (dispatch-RTT measurement).

    ``reports_io`` is the ledger hop.  A pool worker's shard charges a
    private ledger, so each apply/query response carries the per-category
    deltas it incurred plus the shard's page count, for the router to
    reconcile.  In-process (``reports_io=False``) the shard pager
    already charges the router's mirrored ledger under the shared category
    stack: nothing is snapshotted, and a failed op hands back the exception
    itself (``exc``) so the router re-raises it unchanged.
    """

    def __init__(self, kind: str, shard: Shard, *, reports_io: bool = True) -> None:
        self.kind = kind
        self.shard = shard
        self.reports_io = reports_io
        self._delete = get_spec(kind).delete

    def execute(self, cmd: tuple) -> dict:
        tag = cmd[0]
        if tag == "apply" or tag == "query":
            if not self.reports_io:
                return self._run(cmd)
            shard = self.shard
            stats = shard.pager.stats
            before = stats.snapshot()
            with stats.category(cmd[1]):
                resp = self._run(cmd)
            resp["io"] = io_deltas(before, stats.snapshot())
            resp["page_count"] = shard.pager.page_count
            return resp
        if tag == "stats":
            return {"ok": True, "tree": tree_stats(self.shard.index)}
        if tag == "verify":
            # The health layer sits above the engine: import on use.
            from repro.health.verify import verify_index

            index = self.shard.index
            return {
                "ok": True,
                "report": verify_index(index),
                "objects": list(index.iter_objects()),
            }
        if tag == "ping":
            # Transport echo: no shard work, no I/O -- the unit of measure
            # for the dispatch-RTT microbench.
            return {"ok": True, "pong": cmd[1] if len(cmd) > 1 else None}
        raise ValueError(f"unknown worker command {tag!r}")

    def _run(self, cmd: tuple) -> dict:
        index = self.shard.index
        t0 = perf_counter()
        if cmd[0] == "query":
            matches = index.range_search(Rect(cmd[2], cmd[3]))
            return {"ok": True, "matches": matches, "wall_s": perf_counter() - t0}
        applied = 0
        pid: Optional[PageId] = None
        removed = False
        error: Optional[Exception] = None
        try:
            for op in cmd[2]:
                tag = op[0]
                if tag == "insert":
                    pid = index.insert(op[1], op[2], now=op[3])
                elif tag == "update":
                    pid = index.update(op[1], op[2], op[3], now=op[4])
                elif tag == "delete":
                    removed = bool(self._delete(index, op[1], op[2], op[3]))
                else:
                    raise ValueError(f"unknown apply op {tag!r}")
                applied += 1
        except Exception as exc:  # op-level failure: report, stay alive
            error = exc
        resp = {
            "ok": error is None,
            "applied": applied,
            "pid": pid,
            "removed": removed,
            "wall_s": perf_counter() - t0,
        }
        if error is not None:
            resp["error"] = str(error)
            resp["exc_type"] = type(error).__name__
            if not self.reports_io:
                resp["exc"] = error
        return resp


class ShardExecutor(Protocol):
    """The seam the router runs every piece of shard work through."""

    #: ``"inline"`` or ``"process"``.
    mode: str
    #: Whether ``apply_batch`` flushes a shard's queue after every op
    #: (inline) or only at cross-shard moves and batch end (a pool).
    flushes_every_op: bool
    #: The shard structures when parent-resident, else None.
    shards: Optional[List[Shard]]

    def dispatch(
        self, targets: Mapping[int, tuple]
    ) -> Tuple[Dict[int, dict], List[int]]:
        """Run one command per target shard -> (responses by sid, sids
        whose worker died)."""
        ...

    def page_counts(self) -> List[int]: ...

    def close(self) -> None: ...


def _op_error(sid: int, resp: dict) -> Exception:
    """The exception a failed shard response stands for."""
    exc = resp.get("exc")
    if exc is not None:
        return exc
    return RuntimeError(f"shard {sid} command failed: {resp.get('error')}")


class InlineExecutor:
    """Shard commands run in-process, synchronously, on parent-resident
    shards whose pagers charge the router's ledgers directly."""

    mode = "inline"
    #: One op per round: ``apply_batch`` keeps the per-op application --
    #: and the rebalancer's per-op cadence -- of a router fed op by op.
    flushes_every_op = True

    def __init__(self, kind: str, shards: List[Shard]) -> None:
        self.shards: Optional[List[Shard]] = shards
        self._servers = [
            ShardServer(kind, shard, reports_io=False) for shard in shards
        ]

    def dispatch(
        self, targets: Mapping[int, tuple]
    ) -> Tuple[Dict[int, dict], List[int]]:
        servers = self._servers
        out: Dict[int, dict] = {}
        for sid, cmd in targets.items():
            out[sid] = servers[sid].execute(cmd)
        return out, []

    def page_counts(self) -> List[int]:
        return [server.shard.pager.page_count for server in self._servers]

    def close(self) -> None:
        pass


@dataclass
class ShardAccount:
    """The router's books for one shard: its ledger and stream counters."""

    sid: int
    stats: ShardIOStats
    n_updates: int = 0
    n_queries: int = 0
    result_count: int = 0
    #: Cumulative seconds spent inside this shard's index operations
    #: (the shard-local apply/search time, excluding routing overhead).
    wall_clock_s: float = 0.0

    def run_result(self, kind: str) -> RunResult:
        """This shard's ledger as a :class:`RunResult` (UPDATE/QUERY scopes)."""
        return RunResult(
            kind=f"{kind}/shard{self.sid}",
            n_updates=self.n_updates,
            n_queries=self.n_queries,
            result_count=self.result_count,
            update_io=self.stats.counter(IOCategory.UPDATE),
            query_io=self.stats.counter(IOCategory.QUERY),
            wall_clock_s=self.wall_clock_s,
        )


class ShardedStore:
    """Pager facade over the engine's shards: one stats ledger, merged
    telemetry.  Satisfies what the driver and the CLI need from a "pager"
    (``stats``, ``page_count``, ``metrics_dict``).

    Reads the engine's **live** executor, so every property reflects the
    current shard generation after a rebalance or a worker fallback.
    """

    def __init__(self, engine: "ShardedIndex") -> None:
        self._engine = engine

    @property
    def stats(self) -> IOStats:
        return self._engine._stats

    @property
    def page_count(self) -> int:
        return sum(self._engine._executor.page_counts())

    @property
    def hit_rate(self) -> float:
        """Aggregate LRU hit rate across pooled resident shards (0.0
        unpooled or when the shards live in worker processes)."""
        hits = misses = 0
        for shard in self._engine._executor.shards or ():
            if isinstance(shard.store, BufferPool):
                hits += shard.store.hits
                misses += shard.store.misses
        total = hits + misses
        return hits / total if total else 0.0

    def iter_pids(self) -> Iterator[Tuple[int, PageId]]:
        for shard in self._engine.shards:
            for pid in shard.pager.iter_pids():
                yield shard.sid, pid

    def inspect(self, sid: int, pid: PageId) -> Page:
        return self._engine.shards[sid].pager.inspect(pid)

    def metrics_dict(self) -> Dict[str, object]:
        engine = self._engine
        executor = engine._executor
        page_counts = executor.page_counts()
        shards: List[Dict[str, object]] = [
            {
                "sid": account.sid,
                "io": account.stats.to_dict(),
                "page_count": pages,
            }
            for account, pages in zip(engine._accounts, page_counts)
        ]
        for entry, shard in zip(shards, executor.shards or ()):
            entry["pager"] = shard.pager.metrics_dict()
            entry["buffer_pool"] = (
                shard.store.metrics_dict()
                if isinstance(shard.store, BufferPool)
                else None
            )
        out: Dict[str, object] = {
            "n_shards": len(shards),
            "page_count": sum(page_counts),
            "io": engine._stats.to_dict(),
            "shards": shards,
        }
        if engine.mode != "inline":
            out["parallel"] = engine._parallel_dict()
        return out


class ShardedIndex:
    """A :class:`SpatialIndex` router over a space partition.

    Args:
        kind: registered index kind to build per shard.
        domain: the full data domain (partitioned into slabs).
        n_shards: number of slabs.
        mode: the shard executor -- ``"inline"`` (parent-resident shards,
            in-process) or ``"process"`` (a worker pool, one worker process
            per shard).  Every mode charges the same page I/O and
            returns the same results; only wall clock differs.
        histories: CT-only history profile; trails are routed to the shard
            owning their most recent sample, so each shard mines qs-regions
            from the objects it will load.
        pool_frames: wrap each shard's pager in an LRU buffer pool of this
            many frames (0 = paper accounting).
        partition: a :class:`~repro.engine.rebalance.Partitioner` to route
            with instead of the default equal-width grid (``n_shards`` may
            then be omitted; if given, it must agree).
        rebalancer: a :class:`~repro.engine.rebalance.ShardRebalancer`
            notified after every routed operation; when its hot-shard
            detector fires it calls :meth:`apply_partition` back.
        shards: restored shard structures (the snapshot loader's path,
            inline only); built fresh when omitted.

    Failure model: a pool worker's death surfaces as :class:`WorkerFailure`
    from a dispatch round.  The router then closes the pool and swaps in an
    inline executor whose shards are rebuilt from the positions ledger --
    which advances only on acknowledged ops -- under ``BUILD``, and re-runs
    whatever the dead round did not acknowledge.  No acknowledged state is
    lost and no op applies twice.
    """

    def __init__(
        self,
        kind: str,
        domain: Rect,
        n_shards: Optional[int] = None,
        *,
        mode: str = "inline",
        max_entries: int = 20,
        ct_params: Optional[CTParams] = None,
        histories: Optional[Mapping[int, Sequence[Tuple[Point, float]]]] = None,
        query_rate: float = 50.0,
        adaptive: bool = True,
        pool_frames: int = 0,
        partition: Optional["Partitioner"] = None,
        rebalancer: Optional["ShardRebalancer"] = None,
        shards: Optional[Sequence[Shard]] = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown shard executor mode {mode!r}")
        if shards is not None and mode != "inline":
            raise ValueError("restored shards are parent-resident: mode='inline'")
        self.kind = kind
        self.domain = domain
        self.mode = mode
        self._spec = get_spec(kind)
        if partition is None:
            if n_shards is None:
                raise ValueError("pass n_shards or an explicit partition")
            partition = SpacePartition(domain, n_shards)
        elif n_shards is not None and n_shards != partition.n_shards:
            raise ValueError(
                f"n_shards={n_shards} disagrees with the supplied "
                f"partition ({partition.n_shards} shards)"
            )
        self.partition: "Partitioner" = partition
        self._stats = IOStats()
        #: Object id -> owning shard id (the router's own secondary index;
        #: uncharged, like the structures' parent-pointer metadata).
        self._owner: Dict[int, int] = {}
        #: Acknowledged state: oid -> (position, last timestamp).  Every
        #: rebuild (rebalance cutover, worker fallback) replays this ledger.
        self._positions: Dict[int, Tuple[Point, Optional[float]]] = {}
        #: Per-object cross-shard move counts (the speed strategy's
        #: churn signal; uncharged router metadata).
        self._move_counts: Dict[int, int] = {}
        self.cross_shard_moves = 0
        self.cross_shard_move_failures = 0
        self.rebalances = 0
        self.worker_failures = 0
        self.fallbacks = 0
        #: Run ledgers of shard generations retired by rebalance cutovers
        #: (so merged_result() stays cumulative across cutovers).
        self._retired_results: List[RunResult] = []
        self._rebalancer = rebalancer
        #: Shard-construction inputs, kept so a rebuild can re-create
        #: shards (and re-route the CT history profile) under a partition.
        self._histories = histories
        self._max_entries = max_entries
        self._ct_params = ct_params
        self._query_rate = query_rate
        self._adaptive = adaptive
        self._pool_frames = pool_frames

        self._accounts = self._open_accounts(partition)
        self._store = ShardedStore(self)
        self._executor: ShardExecutor
        if shards is None:
            self._executor = self._start(mode, partition, self._accounts)
        else:
            for shard, account in zip(shards, self._accounts):
                shard.pager.stats = account.stats
            self._executor = InlineExecutor(kind, list(shards))

    # -- executors -----------------------------------------------------------

    def _open_accounts(self, partition: "Partitioner") -> List[ShardAccount]:
        return [
            ShardAccount(sid, ShardIOStats(self._stats))
            for sid in range(partition.n_shards)
        ]

    def _start(
        self,
        mode: str,
        partition: "Partitioner",
        accounts: List[ShardAccount],
    ) -> ShardExecutor:
        """A fresh executor with one empty shard per partition region,
        charging construction I/O to ``accounts`` under the active scope."""
        routed = route_histories(partition, self._histories)
        specs = [
            (
                sid,
                partition.region(sid),
                IndexOptions(
                    max_entries=self._max_entries,
                    ct_params=self._ct_params,
                    histories=routed[sid] if self._spec.needs_histories else None,
                    query_rate=self._query_rate,
                    adaptive=self._adaptive,
                ),
            )
            for sid in range(partition.n_shards)
        ]
        ledgers = [account.stats for account in accounts]
        if mode == "inline":
            return InlineExecutor(
                self.kind,
                [
                    build_shard(
                        self.kind, sid, region, options,
                        stats=ledgers[sid], pool_frames=self._pool_frames,
                    )
                    for sid, region, options in specs
                ],
            )
        from repro.parallel.workers import PoolExecutor

        return PoolExecutor(
            self.kind,
            specs,
            ledgers,
            pool_frames=self._pool_frames,
            category=self._stats.active_category,
        )

    def _populate(
        self,
        mode: str,
        partition: "Partitioner",
        accounts: List[ShardAccount],
    ) -> Tuple[ShardExecutor, Dict[int, int]]:
        """-> (executor, owner map): new shards under ``partition`` holding
        the positions ledger, replayed in canonical order as ``BUILD`` I/O.

        Migration is reconstruction, not stream work: UPDATE/QUERY
        attribution stays bit-identical to an engine born with
        ``partition``, and no stream counter moves.
        """
        with self._stats.category(IOCategory.BUILD):
            executor = self._start(mode, partition, accounts)
            try:
                per_shard: Dict[int, List[tuple]] = {}
                owner: Dict[int, int] = {}
                for oid, pos, t in replay_order(self._positions):
                    sid = partition.shard_for(oid, pos)
                    per_shard.setdefault(sid, []).append(("insert", oid, pos, t))
                    owner[oid] = sid
                out, failed = executor.dispatch(
                    {
                        sid: ("apply", IOCategory.BUILD, ops)
                        for sid, ops in per_shard.items()
                    }
                )
                if failed:
                    raise WorkerFailure(
                        f"shard worker(s) {sorted(failed)} died during rebuild"
                    )
                for sid, resp in out.items():
                    if not resp["ok"]:
                        raise _op_error(sid, resp)
            except BaseException:
                executor.close()
                raise
        return executor, owner

    def _fall_back(self) -> None:
        """A worker died: swap the pool for an inline executor rebuilt from
        the acknowledged positions ledger.  The accounts carry over, so
        every per-shard ledger stays cumulative across the swap."""
        self._note_failure()
        self._executor.close()
        self._executor, self._owner = self._populate(
            "inline", self.partition, self._accounts
        )

    def _note_failure(self) -> None:
        self.worker_failures += 1
        self.fallbacks += 1
        registry = get_registry()
        if registry.enabled:
            registry.inc("parallel.worker_failures")
            registry.inc("parallel.fallback")

    def close(self) -> None:
        """Shut the executor down (worker pools; best-effort, idempotent)."""
        self._executor.close()

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _apply_one(self, sid: int, op: tuple, *, counted: bool = True) -> dict:
        """One op on one shard; raises what the op raised, or
        :class:`WorkerFailure` if the shard's worker died."""
        out, failed = self._executor.dispatch(
            {sid: ("apply", self._stats.active_category, [op])}
        )
        if failed:
            raise WorkerFailure(f"shard {sid} worker died")
        resp = out[sid]
        account = self._accounts[sid]
        account.wall_clock_s += resp["wall_s"]
        if counted:
            account.n_updates += resp["applied"]
        if not resp["ok"]:
            raise _op_error(sid, resp)
        return resp

    def _note_op(self) -> None:
        """Post-op rebalancer hook (after the op's accounting settled)."""
        if self._rebalancer is not None:
            self._rebalancer.note_op(self)

    # -- SpatialIndex surface ------------------------------------------------

    @property
    def pager(self) -> ShardedStore:
        return self._store

    @property
    def n_shards(self) -> int:
        return self.partition.n_shards

    @property
    def shards(self) -> List[Shard]:
        """The parent-resident shard structures (inline mode only)."""
        shards = self._executor.shards
        if shards is None:
            raise AttributeError(
                "process-mode shards live in worker processes; "
                "use collect_tree_stats()"
            )
        return shards

    def __len__(self) -> int:
        return len(self._owner)

    def insert(
        self, obj_id: int, point: Sequence[float], now: Optional[float] = None
    ) -> PageId:
        pos = position_of(point)
        sid = self.partition.shard_for(obj_id, pos)
        try:
            resp = self._apply_one(sid, ("insert", obj_id, pos, now))
        except WorkerFailure:
            self._fall_back()
            return self.insert(obj_id, pos, now=now)
        self._owner[obj_id] = sid
        self._positions[obj_id] = (pos, now)
        self._note_op()
        return resp["pid"]

    def update(
        self,
        obj_id: int,
        old_point: Sequence[float],
        new_point: Sequence[float],
        now: Optional[float] = None,
    ) -> PageId:
        new_pos = position_of(new_point)
        old_sid = self._owner.get(obj_id)
        if old_sid is None:
            raise KeyError(f"object {obj_id} is not indexed")
        new_sid = self.partition.shard_for(obj_id, new_pos)
        old_pos = None if old_point is None else position_of(old_point)
        try:
            if new_sid == old_sid:
                pid = self._apply_one(
                    old_sid, ("update", obj_id, old_pos, new_pos, now)
                )["pid"]
                self._positions[obj_id] = (new_pos, now)
            else:
                self._apply_one(old_sid, ("delete", obj_id, old_pos, now))
                pid = self._move_insert(
                    obj_id, old_pos, new_pos, now, old_sid, new_sid
                )
        except WorkerFailure:
            self._fall_back()
            return self.update(obj_id, old_point, new_pos, now=now)
        self._note_op()
        return pid

    def _move_insert(
        self,
        obj_id: int,
        old_pos: Optional[Point],
        new_pos: Point,
        now: Optional[float],
        old_sid: int,
        new_sid: int,
    ) -> PageId:
        """The insert half of a boundary crossing, issued only after the
        source shard acknowledged the delete: a failure between the two
        leaves the object in *neither* shard, never in both, and the
        positions ledger (still at the old position) restores it."""
        try:
            resp = self._apply_one(new_sid, ("insert", obj_id, new_pos, now))
        except WorkerFailure:
            self.cross_shard_move_failures += 1
            raise
        except Exception:
            # Exception safety: the delete already happened, so a failed
            # insert would silently drop the object.  Restore it to the
            # source shard at its old position (the owner map never moved),
            # then surface the failure.
            self.cross_shard_move_failures += 1
            if old_pos is not None:
                self._apply_one(old_sid, ("insert", obj_id, old_pos, now))
            raise
        self.cross_shard_moves += 1
        self._owner[obj_id] = new_sid
        self._positions[obj_id] = (new_pos, now)
        self._move_counts[obj_id] = self._move_counts.get(obj_id, 0) + 1
        return resp["pid"]

    def delete(
        self,
        obj_id: int,
        old_point: Optional[Sequence[float]] = None,
        now: Optional[float] = None,
    ) -> bool:
        sid = self._owner.get(obj_id)
        if sid is None:
            return False
        pos = None if old_point is None else position_of(old_point)
        try:
            resp = self._apply_one(sid, ("delete", obj_id, pos, now), counted=False)
        except WorkerFailure:
            self._fall_back()
            return self.delete(obj_id, old_point, now=now)
        removed = bool(resp["removed"])
        if removed:
            del self._owner[obj_id]
            self._positions.pop(obj_id, None)
            self._move_counts.pop(obj_id, None)
        return removed

    def apply_batch(self, batch: Sequence["PendingUpdate"]) -> int:
        """Group-apply a ``(t, seq)``-sorted batch by shard; returns
        ``len(batch)``.

        Every id is checked against the owner map before anything is
        dispatched (an insert earlier in the batch counts as held), so an
        unknown id raises ``KeyError`` with no page changed.

        Ops queue per shard and the executor decides when a shard's queue
        flushes.  The inline executor flushes every op, so the batch
        applies exactly as op-by-op calls would, rebalancer cadence
        included.  The pool flushes at batch end, concurrently -- and at a
        cross-shard move, which stays sequenced through the router: the
        move's delete joins the source shard's queue, the source and target
        queues flush together (so the target has applied everything that
        precedes the insert in batch order), then the insert is issued.
        Each shard therefore applies exactly the batch restricted to it, in
        order, whatever the executor; a repeated id resolves in order too.

        A worker failure mid-batch swaps in the inline executor, which then
        applies the not-yet-acknowledged remainder.
        """
        born: Set[int] = set()
        for update in batch:
            if update.old_point is None:
                born.add(update.oid)
            elif update.oid not in self._owner and update.oid not in born:
                raise KeyError(f"object {update.oid} is not indexed")
        category = self._stats.active_category
        every_op = self._executor.flushes_every_op
        pending: Dict[int, List[tuple]] = {}
        #: Per queued op: (batch index, (oid, pos, t) to commit on ack --
        #: None for a move's delete, whose commit rides the insert's ack).
        effects: Dict[int, List[Tuple[int, Optional[Tuple[int, Point, Optional[float]]]]]] = {}
        #: oid -> shard of its insert still queued in this batch.
        queued_insert: Dict[int, int] = {}
        acked: Set[int] = set()
        #: Shards whose last flushed queue applied in full (so a move can
        #: tell whether its delete landed when a peer's queue failed).
        full: Set[int] = set()

        def queue(
            sid: int,
            op: tuple,
            index: int,
            commit: Optional[Tuple[int, Point, Optional[float]]],
        ) -> None:
            pending.setdefault(sid, []).append(op)
            effects.setdefault(sid, []).append((index, commit))

        def flush(sids: Iterable[int]) -> None:
            targets = {
                sid: ("apply", category, pending.pop(sid))
                for sid in sids
                if sid in pending
            }
            if not targets:
                return
            out, failed = self._executor.dispatch(targets)
            full.clear()
            bad: Optional[Tuple[int, dict]] = None
            for sid, resp in out.items():
                applied = resp["applied"]
                account = self._accounts[sid]
                account.n_updates += applied
                account.wall_clock_s += resp["wall_s"]
                done = effects.pop(sid)
                if applied == len(done):
                    full.add(sid)
                for index, commit in done[:applied]:
                    if commit is not None:
                        oid, pos, t = commit
                        self._owner[oid] = sid
                        self._positions[oid] = (pos, t)
                        queued_insert.pop(oid, None)
                        acked.add(index)
                if not resp["ok"] and bad is None:
                    bad = (sid, resp)
            if failed:
                raise WorkerFailure(
                    f"shard worker(s) {sorted(failed)} died mid-batch"
                )
            if bad is not None:
                raise _op_error(*bad)

        op: tuple
        try:
            for index, update in enumerate(batch):
                oid, pos, t, old_pos = update.oid, update.point, update.t, update.old_point
                new_sid = self.partition.shard_for(oid, pos)
                if old_pos is None:
                    sid, op = new_sid, ("insert", oid, pos, t)
                else:
                    queued = queued_insert.get(oid)
                    sid = self._owner[oid] if queued is None else queued
                    if sid != new_sid:
                        queue(sid, ("delete", oid, old_pos, t), index, None)
                        try:
                            flush((sid, new_sid))
                        except Exception as exc:
                            if not isinstance(exc, WorkerFailure) and sid in full:
                                # The delete landed but the target's queue
                                # failed before the insert could be issued:
                                # restore the object at its source.
                                self.cross_shard_move_failures += 1
                                self._apply_one(sid, ("insert", oid, old_pos, t))
                            raise
                        self._move_insert(oid, old_pos, pos, t, sid, new_sid)
                        acked.add(index)
                        if every_op:
                            self._note_op()
                        continue
                    op = ("update", oid, old_pos, pos, t)
                if every_op:
                    self._apply_one(sid, op)
                    self._owner[oid] = sid
                    self._positions[oid] = (pos, t)
                    self._note_op()
                else:
                    queue(sid, op, index, (oid, pos, t))
                    if old_pos is None:
                        queued_insert[oid] = sid
            flush(list(pending))
        except WorkerFailure:
            self._fall_back()
            remainder = [u for i, u in enumerate(batch) if i not in acked]
            return len(acked) + self.apply_batch(remainder)
        if not every_op:
            # One detection sweep per applied op, after the batch settled
            # (a rebalance cannot interleave with in-flight queues).
            for _ in batch:
                self._note_op()
        return len(batch)

    def range_search(self, rect: Rect) -> List[Tuple[int, Point]]:
        """Fan out to intersecting shards; responses merge in shard-id
        order.  Each object lives in exactly one shard, so concatenation is
        duplicate-free."""
        sids = self.partition.intersecting(rect)
        category = self._stats.active_category
        out, failed = self._executor.dispatch(
            {sid: ("query", category, rect.lo, rect.hi) for sid in sids}
        )
        if failed:
            # The live shards answered and were charged; only the dead
            # workers' shards are asked again, of the rebuilt executor.
            self._fall_back()
            out.update(
                self._executor.dispatch(
                    {sid: ("query", category, rect.lo, rect.hi) for sid in failed}
                )[0]
            )
        results: List[Tuple[int, Point]] = []
        for sid in sids:
            resp = out[sid]
            if not resp["ok"]:
                raise _op_error(sid, resp)
            matches = resp["matches"]
            account = self._accounts[sid]
            account.wall_clock_s += resp["wall_s"]
            account.n_queries += 1
            account.result_count += len(matches)
            results.extend(matches)
        self._note_op()
        return results

    # -- rebalance -----------------------------------------------------------

    def position_map(self) -> Dict[int, Point]:
        """Current object positions (authoritative, uncharged router state)."""
        return {oid: pos for oid, (pos, _t) in self._positions.items()}

    def cross_move_counts(self) -> Dict[int, int]:
        """Cross-shard moves per object since birth (the churn signal)."""
        return dict(self._move_counts)

    def apply_partition(self, partition: "Partitioner") -> None:
        """Online rebalance: cut over to ``partition`` atomically.

        The self-heal shadow-rebuild template: build a complete new shard
        set on a new executor of the current mode, replay the positions
        ledger into it under ``IOCategory.BUILD``, check every shard took
        its whole replay, then cut over with reference swaps.  An exception
        anywhere before the swap leaves the engine serving the old shards
        untouched -- except a worker death, after which the cutover
        completes inline under the new partition.
        """
        accounts = self._open_accounts(partition)
        try:
            executor, owner = self._populate(
                self._executor.mode, partition, accounts
            )
        except WorkerFailure:
            self._note_failure()
            executor, owner = self._populate("inline", partition, accounts)
        self._retired_results.extend(self.shard_results())
        # Atomic cutover: reference swaps only; no reader sees a mix.
        retired, self._executor = self._executor, executor
        self.partition = partition
        self._accounts = accounts
        self._owner = owner
        self.rebalances += 1
        retired.close()

    # -- aggregated telemetry ------------------------------------------------

    def probe(self, cmd: tuple) -> List[dict]:
        """One response to the probe ``cmd`` (``("stats",)`` or
        ``("verify",)``) per shard, in shard-id order, run wherever each
        shard lives; a worker that dies mid-probe falls back to inline."""
        out, failed = self._executor.dispatch(
            {sid: cmd for sid in range(self.n_shards)}
        )
        if failed:
            self._fall_back()
            return self.probe(cmd)
        return [out[sid] for sid in range(self.n_shards)]

    def collect_tree_stats(self) -> Dict[str, object]:
        """Structural probe: each shard computes its own ``tree_stats``
        wherever it lives; the router aggregates (``obs.treestats``
        dispatches here)."""
        return aggregate_shard_stats(
            [resp["tree"] for resp in self.probe(("stats",))], self
        )

    @property
    def lazy_hits(self) -> int:
        return sum(
            int(resp["tree"].get("lazy_hits") or 0)
            for resp in self.probe(("stats",))
        )

    def shard_results(self) -> List[RunResult]:
        """Per-shard ledgers (UPDATE/QUERY categories of each shard ledger)."""
        return [account.run_result(self.kind) for account in self._accounts]

    def merged_result(self) -> RunResult:
        """All shard ledgers merged into one (query counts are fan-outs);
        cumulative across rebalance cutovers (retired generations count)."""
        return merge_results(
            self._retired_results + self.shard_results(),
            kind=f"{self.kind}x{self.n_shards}",
        )

    def owner_of(self, obj_id: int) -> Optional[int]:
        return self._owner.get(obj_id)

    def _parallel_dict(self) -> Dict[str, object]:
        """Worker-pool telemetry (pool modes only)."""
        return {
            "mode": self.mode,
            "workers": self.n_shards,
            "worker_failures": self.worker_failures,
            "fallbacks": self.fallbacks,
            "fell_back": self.fallbacks > 0,
        }

    def engine_dict(self) -> Dict[str, object]:
        """Engine telemetry for metrics/bench documents."""
        sizes = [0] * self.n_shards
        for sid in self._owner.values():
            sizes[sid] += 1
        out: Dict[str, object] = {
            "kind": self.kind,
            "partition": self.partition.to_dict(),
            "cross_shard_moves": self.cross_shard_moves,
            "cross_shard_move_failures": self.cross_shard_move_failures,
            "rebalances": self.rebalances,
            "objects": len(self),
            "shards": [
                {
                    "sid": account.sid,
                    "region": [
                        list(self.partition.region(account.sid).lo),
                        list(self.partition.region(account.sid).hi),
                    ],
                    "objects": size,
                    "run": account.run_result(self.kind).to_dict(),
                }
                for account, size in zip(self._accounts, sizes)
            ],
        }
        if self.mode != "inline":
            out["parallel"] = self._parallel_dict()
        if self._rebalancer is not None:
            out["rebalancer"] = self._rebalancer.to_dict()
        return out

    def __repr__(self) -> str:
        return (
            f"ShardedIndex(kind={self.kind!r}, mode={self.mode!r}, "
            f"shards={self.n_shards}, objects={len(self)}, "
            f"cross_moves={self.cross_shard_moves})"
        )
