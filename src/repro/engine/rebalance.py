"""Adaptive shard management: pluggable partitioners and online rebalance.

The worker pool parallelised the sharded engine but kept MOIST's static
equal-width grid.  On a skewed workload (a flash crowd dwelling in one
narrow slab, fast movers churning across boundaries) the pool serialises
on one hot worker and every cross-boundary move pays a two-round-trip
sequenced delete+insert -- the measured result is the *below break-even*
row in ``BENCH_driver.json``.  This module makes the partition a pluggable
policy and adds an online rebalancer:

* :class:`Partitioner` -- the routing protocol shared by the equal-width
  grid (:class:`~repro.engine.sharded.SpacePartition`), the
  density-balanced :class:`BoundaryPartition` (slab boundaries at object
  count quantiles, so every shard owns roughly the same number of
  objects), and the :class:`SpeedPartition` (after "Speed Partitioning
  for Indexing Moving Objects": objects whose observed inter-update
  displacement marks them as fast movers are pinned to a dedicated churn
  shard, so they never cross a slab boundary again).
* :class:`ShardRebalancer` -- watches the per-shard run ledgers the
  engine already keeps, detects hot shards (windowed update+query I/O
  skew with double-threshold hysteresis), plans a replacement partition
  (density re-cut, split+merge, or churner promotion), and asks the
  engine to apply it through ``apply_partition`` -- the shadow-rebuild /
  atomic-cutover template the self-heal subsystem introduced: build the
  new shard set, replay the positions ledger as ``BUILD`` I/O, verify the
  shadow holds every object, then swap references.  ``UPDATE``/``QUERY``
  attribution stays bit-identical to an engine that was born with the new
  partition, because migration work never leaks into the stream scopes.

Routing is identity-aware: engines ask ``shard_for(obj_id, point)``, which
defaults to the spatial ``shard_of(point)`` and lets the speed partitioner
override the decision per object.  Query fan-out still goes through
``intersecting(rect)``; the churn shard's region is the whole domain, so
it joins every fan-out.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import asdict, dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    runtime_checkable,
)

from repro.core.geometry import Point, Rect
from repro.engine.sharded import SpacePartition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.sharded import ShardedIndex

#: ``to_dict`` document version.  Version 1 (PR 3..5) was the bare grid
#: triple ``{n_shards, axis, domain}``; version 2 adds ``partitioner`` and
#: ``boundaries`` (and ``inner``/``fast_ids`` for the speed partitioner).
PARTITION_FORMAT_VERSION = 2

#: CLI / factory names, in presentation order.
PARTITIONER_KINDS = ("grid", "density", "speed")


@runtime_checkable
class Partitioner(Protocol):
    """What the sharded engine needs from a partition policy."""

    domain: Rect
    n_shards: int
    axis: int

    def shard_of(self, point: Sequence[float]) -> int:
        """Spatial routing: the shard owning ``point`` (clamped, total)."""
        ...

    def shard_for(self, obj_id: int, point: Sequence[float]) -> int:
        """Identity-aware routing; defaults to ``shard_of(point)``."""
        ...

    def region(self, sid: int) -> Rect:
        """The slab (or whole-domain churn region) shard ``sid`` owns."""
        ...

    def intersecting(self, rect: Rect) -> List[int]:
        """Every shard that could hold an object inside ``rect``."""
        ...

    def boundaries(self) -> List[float]:
        """Interior slab cut coordinates along :attr:`axis`."""
        ...

    def to_dict(self) -> Dict[str, object]:
        """Versioned snapshot document (see :func:`partition_from_dict`)."""
        ...


def _widest_axis(domain: Rect) -> int:
    extents = tuple(h - l for l, h in zip(domain.lo, domain.hi))
    return max(range(len(extents)), key=lambda d: extents[d])


def _repair_cuts(lo: float, hi: float, cuts: Iterable[float], want: int) -> List[float]:
    """Force a cut list into shape: strictly increasing, strictly inside
    ``(lo, hi)``, topped up to ``want`` cuts by splitting the widest gap.

    Degenerate inputs (all objects at one coordinate, domains too tight to
    hold ``want`` distinct floats) may yield fewer cuts -- the caller gets
    a partition with fewer shards rather than an invalid one.
    """
    uniq = sorted({float(c) for c in cuts if lo < c < hi})
    del uniq[want:]
    while len(uniq) < want:
        pts = [lo, *uniq, hi]
        gap, left = max((pts[i + 1] - pts[i], pts[i]) for i in range(len(pts) - 1))
        mid = left + gap / 2.0
        if not left < mid < left + gap:
            break  # FP exhaustion: the interval cannot hold another cut
        insort(uniq, mid)
    return uniq


def density_boundaries(
    domain: Rect, axis: int, values: Iterable[float], n_shards: int
) -> List[float]:
    """Interior boundaries placing ~equal object counts in every slab.

    Quantile cuts over the observed axis coordinates, each placed at the
    midpoint between the two straddling samples so edge-exact objects do
    not flip shards on an epsilon move.  Out-of-domain samples clamp to
    the domain edge (they route to edge slabs anyway).
    """
    lo = float(domain.lo[axis])
    hi = float(domain.hi[axis])
    if n_shards <= 1 or not hi > lo:
        return []
    coords = sorted(min(hi, max(lo, float(v))) for v in values)
    cuts: List[float] = []
    if coords:
        for k in range(1, n_shards):
            i = (k * len(coords)) // n_shards
            left = coords[i - 1] if i > 0 else lo
            right = coords[i] if i < len(coords) else hi
            cuts.append((left + right) / 2.0)
    return _repair_cuts(lo, hi, cuts, n_shards - 1)


class BoundaryPartition:
    """Half-open slabs with explicit interior boundaries along one axis.

    The generalisation of :class:`~repro.engine.sharded.SpacePartition`
    that density balancing and split/merge rebalancing produce: routing is
    a ``bisect`` over the boundary list, so ``shard_of``, ``shard_for``
    and ``intersecting`` share one arithmetic by construction -- the
    half-open consistency the grid had to be fixed to guarantee.
    """

    def __init__(
        self, domain: Rect, boundaries: Sequence[float], axis: Optional[int] = None
    ) -> None:
        self.domain = domain
        self.axis = _widest_axis(domain) if axis is None else int(axis)
        if not 0 <= self.axis < len(domain.lo):
            raise ValueError(f"axis {self.axis} out of range for domain")
        lo = float(domain.lo[self.axis])
        hi = float(domain.hi[self.axis])
        bounds = [float(b) for b in boundaries]
        for a, b in zip(bounds, bounds[1:]):
            if not a < b:
                raise ValueError("boundaries must be strictly increasing")
        if bounds and not (lo < bounds[0] and bounds[-1] < hi):
            raise ValueError("boundaries must lie strictly inside the domain")
        self._bounds = bounds
        self.n_shards = len(bounds) + 1

    @classmethod
    def from_points(
        cls,
        domain: Rect,
        n_shards: int,
        points: Iterable[Sequence[float]],
        axis: Optional[int] = None,
    ) -> "BoundaryPartition":
        """Density-balanced partition over the observed object positions."""
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        use_axis = _widest_axis(domain) if axis is None else int(axis)
        cuts = density_boundaries(
            domain, use_axis, (p[use_axis] for p in points), n_shards
        )
        return cls(domain, cuts, axis=use_axis)

    def slab_of(self, value: float) -> int:
        """Half-open routing: a coordinate exactly on a boundary belongs to
        the upper slab, matching the grid's arithmetic."""
        return bisect_right(self._bounds, value)

    def shard_of(self, point: Sequence[float]) -> int:
        return self.slab_of(point[self.axis])

    def shard_for(self, obj_id: int, point: Sequence[float]) -> int:
        return self.slab_of(point[self.axis])

    def region(self, sid: int) -> Rect:
        if not 0 <= sid < self.n_shards:
            raise ValueError(f"shard id {sid} out of range")
        lo = list(self.domain.lo)
        hi = list(self.domain.hi)
        if sid > 0:
            lo[self.axis] = self._bounds[sid - 1]
        if sid < self.n_shards - 1:
            hi[self.axis] = self._bounds[sid]
        return Rect(tuple(lo), tuple(hi))

    def intersecting(self, rect: Rect) -> List[int]:
        return list(
            range(
                self.slab_of(rect.lo[self.axis]),
                self.slab_of(rect.hi[self.axis]) + 1,
            )
        )

    def boundaries(self) -> List[float]:
        return list(self._bounds)

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": PARTITION_FORMAT_VERSION,
            "partitioner": "density",
            "n_shards": self.n_shards,
            "axis": self.axis,
            "domain": [list(self.domain.lo), list(self.domain.hi)],
            "boundaries": list(self._bounds),
        }

    def __repr__(self) -> str:
        return (
            f"BoundaryPartition(axis={self.axis}, "
            f"boundaries={self._bounds!r})"
        )


def object_speeds(
    histories: Mapping[int, Sequence[Tuple[Point, float]]],
) -> Dict[int, float]:
    """Mean per-report displacement of each trail -- the observed speed
    proxy the speed partitioner classifies on (report cadence is roughly
    uniform in the citysim regime, so distance-per-report orders objects
    the same way distance-per-second would)."""
    speeds: Dict[int, float] = {}
    for oid, trail in histories.items():
        if len(trail) < 2:
            speeds[oid] = 0.0
            continue
        dist = 0.0
        for (p0, _t0), (p1, _t1) in zip(trail, trail[1:]):
            dist += math.sqrt(sum((b - a) ** 2 for a, b in zip(p0, p1)))
        speeds[oid] = dist / (len(trail) - 1)
    return speeds


class SpeedPartition:
    """A dweller partition plus one dedicated churn shard for fast movers.

    Fast movers are the objects that defeat slab partitioning: every slab
    boundary they cross costs a sequenced delete+insert through the
    router.  Pinning them to an identity-routed churn shard (region = the
    whole domain) makes their updates ordinary same-shard updates forever;
    the price is that every query fans out to one extra shard, which is
    the right trade exactly when churners are few and updates dominate.
    """

    def __init__(
        self, domain: Rect, inner: Partitioner, fast_ids: Iterable[int]
    ) -> None:
        self.domain = domain
        self.inner = inner
        self.axis = inner.axis
        self.fast_ids: FrozenSet[int] = frozenset(int(i) for i in fast_ids)
        self.n_shards = inner.n_shards + 1
        #: The churn shard is always the last shard id.
        self.churn_sid = inner.n_shards

    @classmethod
    def from_histories(
        cls,
        domain: Rect,
        n_shards: int,
        histories: Mapping[int, Sequence[Tuple[Point, float]]],
        axis: Optional[int] = None,
        speed_threshold: Optional[float] = None,
    ) -> "SpeedPartition":
        """Classify fast movers from a history profile; dwellers get a
        density-balanced partition over the remaining ``n_shards - 1``
        slabs.

        The default threshold is a quarter of a dweller slab's width per
        report: an object moving that fast crosses a boundary within a
        handful of reports, so keeping it slab-routed guarantees churn.
        """
        if n_shards < 2:
            raise ValueError(
                "speed partitioning needs >= 2 shards (dwellers + churn)"
            )
        use_axis = _widest_axis(domain) if axis is None else int(axis)
        if speed_threshold is None:
            extent = float(domain.hi[use_axis] - domain.lo[use_axis])
            speed_threshold = extent / max(1, n_shards - 1) / 4.0
        speeds = object_speeds(histories)
        fast: Set[int] = (
            {oid for oid, s in speeds.items() if s >= speed_threshold}
            if speed_threshold > 0
            else set()
        )
        dweller_points = [
            trail[-1][0]
            for oid, trail in histories.items()
            if trail and oid not in fast
        ]
        inner = BoundaryPartition.from_points(
            domain, n_shards - 1, dweller_points, axis=use_axis
        )
        return cls(domain, inner, fast)

    def shard_of(self, point: Sequence[float]) -> int:
        return self.inner.shard_of(point)

    def shard_for(self, obj_id: int, point: Sequence[float]) -> int:
        if obj_id in self.fast_ids:
            return self.churn_sid
        return self.inner.shard_of(point)

    def region(self, sid: int) -> Rect:
        if sid == self.churn_sid:
            return self.domain
        return self.inner.region(sid)

    def intersecting(self, rect: Rect) -> List[int]:
        # The churn shard can hold objects anywhere, so it joins every
        # fan-out (kept last: merge order must match shard-id order).
        return self.inner.intersecting(rect) + [self.churn_sid]

    def boundaries(self) -> List[float]:
        return self.inner.boundaries()

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": PARTITION_FORMAT_VERSION,
            "partitioner": "speed",
            "n_shards": self.n_shards,
            "axis": self.axis,
            "domain": [list(self.domain.lo), list(self.domain.hi)],
            "boundaries": self.boundaries(),
            "inner": self.inner.to_dict(),
            "fast_ids": sorted(self.fast_ids),
        }

    def __repr__(self) -> str:
        return (
            f"SpeedPartition(dweller_shards={self.inner.n_shards}, "
            f"fast={len(self.fast_ids)})"
        )


def make_partition(
    name: str,
    domain: Rect,
    n_shards: int,
    positions: Optional[Mapping[int, Point]] = None,
    histories: Optional[Mapping[int, Sequence[Tuple[Point, float]]]] = None,
    axis: Optional[int] = None,
    speed_threshold: Optional[float] = None,
) -> Partitioner:
    """Factory keyed by the CLI's ``--partitioner`` names.

    ``density`` mines boundaries from ``positions`` (falling back to the
    last history samples); ``speed`` classifies from ``histories``
    (objects known only by position count as dwellers).
    """
    if name == "grid":
        return SpacePartition(domain, n_shards)
    if name == "density":
        points: List[Sequence[float]] = []
        if positions:
            points = list(positions.values())
        elif histories:
            points = [trail[-1][0] for trail in histories.values() if trail]
        return BoundaryPartition.from_points(domain, n_shards, points, axis=axis)
    if name == "speed":
        hists: Mapping[int, Sequence[Tuple[Point, float]]] = histories or {}
        if not hists and positions:
            # Single-sample trails: zero observed speed, everyone a dweller
            # until the rebalancer promotes churners at runtime.
            hists = {oid: [(pos, 0.0)] for oid, pos in positions.items()}
        return SpeedPartition.from_histories(
            domain, n_shards, hists, axis=axis, speed_threshold=speed_threshold
        )
    raise ValueError(
        f"unknown partitioner {name!r} (expected one of {PARTITIONER_KINDS})"
    )


def partition_from_dict(data: Mapping[str, Any]) -> Partitioner:
    """Rebuild a partitioner from its ``to_dict`` document.

    Version 1 documents (PR 3..5 snapshots) carry only the grid triple
    ``{n_shards, axis, domain}`` and load as :class:`SpacePartition`.
    Reconstruction is exact -- the loaded partitioner uses the same
    routing arithmetic as the saved one, so no object changes shards
    across a save/load cycle.
    """
    domain_doc = data["domain"]
    domain = Rect(
        tuple(float(v) for v in domain_doc[0]),
        tuple(float(v) for v in domain_doc[1]),
    )
    name = str(data.get("partitioner", "grid"))
    if name == "grid":
        return SpacePartition(domain, int(data["n_shards"]))
    if name == "density":
        return BoundaryPartition(
            domain,
            [float(b) for b in data["boundaries"]],
            axis=int(data["axis"]),
        )
    if name == "speed":
        inner = partition_from_dict(data["inner"])
        return SpeedPartition(
            domain, inner, (int(i) for i in data["fast_ids"])
        )
    raise ValueError(f"unknown partitioner kind {name!r} in document")


# -- the rebalancer ----------------------------------------------------------


@dataclass(frozen=True)
class RebalancePolicy:
    """Hot-shard detection and plan-selection knobs.

    Detection is windowed: every ``check_every`` routed operations the
    rebalancer diffs each shard's cumulative update+query I/O against the
    previous sweep and computes the skew ``max / mean`` over the window
    deltas.  The double threshold is a hysteresis band: a rebalance fires
    when skew reaches ``hot_factor`` while armed, and the trigger only
    re-arms once skew has cooled below ``cool_factor`` -- so a workload
    oscillating around one threshold cannot thrash rebuilds.
    """

    #: Routed ops between detection sweeps (cheap counter otherwise).
    check_every: int = 256
    #: Ignore windows with less total I/O than this (cold engine, noise).
    min_window_ios: int = 64
    #: Fire when the hottest shard exceeds this multiple of the fair share.
    hot_factor: float = 2.0
    #: Re-arm only after skew falls to this multiple or below.
    cool_factor: float = 1.25
    #: Safety valve: most rebalances per engine lifetime.
    max_rebalances: int = 8
    #: Plan family: ``density`` re-cut, ``split`` + merge, or ``speed``
    #: churner promotion (falls back to density before any churn is seen).
    strategy: str = "density"
    #: Cross-shard moves before an object counts as a churner (``speed``).
    speed_move_threshold: int = 3
    #: Do not bother rebalancing engines smaller than this.
    min_objects: int = 8


class ShardRebalancer:
    """Detects hot shards from the per-shard run ledgers and cuts over.

    Attach one per engine (``ShardedIndex(..., rebalancer=...)``); the
    engine calls :meth:`note_op` after every routed operation.  All
    decisions read only ledgers the engine already keeps -- the detector
    adds no I/O charges of its own.
    """

    def __init__(self, policy: Optional[RebalancePolicy] = None) -> None:
        self.policy = policy if policy is not None else RebalancePolicy()
        if self.policy.strategy not in ("density", "split", "speed"):
            raise ValueError(
                f"unknown rebalance strategy {self.policy.strategy!r}"
            )
        self.rebalances = 0
        #: Triggers that fired but produced no applicable plan.
        self.skipped = 0
        self.events: List[Dict[str, object]] = []
        self._ops_since_check = 0
        self._window_base: Optional[List[float]] = None
        self._armed = True

    def note_op(self, engine: "ShardedIndex") -> bool:
        """Post-op hook; runs a detection sweep every ``check_every`` ops."""
        self._ops_since_check += 1
        if self._ops_since_check < self.policy.check_every:
            return False
        self._ops_since_check = 0
        return self.maybe_rebalance(engine)

    def _window_deltas(self, engine: "ShardedIndex") -> List[float]:
        totals = [
            float(r.update_io.total + r.query_io.total)
            for r in engine.shard_results()
        ]
        base = self._window_base
        if base is None or len(base) != len(totals):
            base = [0.0] * len(totals)
        self._window_base = totals
        return [t - b for t, b in zip(totals, base)]

    @staticmethod
    def skew_of(deltas: Sequence[float]) -> float:
        """Hottest shard's share of the window, relative to the fair share."""
        total = sum(deltas)
        if total <= 0 or not deltas:
            return 0.0
        return max(deltas) / (total / len(deltas))

    def maybe_rebalance(self, engine: "ShardedIndex") -> bool:
        """One detection sweep; applies a plan when armed and hot."""
        deltas = self._window_deltas(engine)
        if sum(deltas) < self.policy.min_window_ios:
            return False
        skew = self.skew_of(deltas)
        if skew <= self.policy.cool_factor:
            self._armed = True
        if not self._armed or skew < self.policy.hot_factor:
            return False
        if (
            self.rebalances >= self.policy.max_rebalances
            or len(engine.position_map()) < self.policy.min_objects
        ):
            self.skipped += 1
            return False
        hot = max(range(len(deltas)), key=lambda i: deltas[i])
        plan = self.plan(engine, hot)
        if plan is None:
            self.skipped += 1
            return False
        engine.apply_partition(plan)
        self.rebalances += 1
        self._armed = False  # hysteresis: quiet until skew cools
        self._window_base = None  # fresh shard generation, fresh window
        self.events.append(
            {
                "skew": round(skew, 3),
                "hot_shard": hot,
                "window_ios": int(sum(deltas)),
                "strategy": self.policy.strategy,
                "n_shards": plan.n_shards,
            }
        )
        return True

    # -- planning -----------------------------------------------------------

    def plan(
        self, engine: "ShardedIndex", hot_sid: int
    ) -> Optional[Partitioner]:
        """Choose a replacement partition, or ``None`` when no improvement
        is expressible (all mass at one coordinate, no churners yet, ...)."""
        positions = engine.position_map()
        if not positions:
            return None
        current = engine.partition
        domain: Rect = current.domain
        strategy = self.policy.strategy
        if strategy == "speed":
            moved = engine.cross_move_counts()
            churners: Set[int] = {
                oid
                for oid, n in moved.items()
                if n >= self.policy.speed_move_threshold
            }
            churners |= set(getattr(current, "fast_ids", ()))
            if churners and len(churners) < len(positions):
                dwellers = [
                    pos for oid, pos in positions.items() if oid not in churners
                ]
                inner = BoundaryPartition.from_points(
                    domain,
                    max(1, current.n_shards - 1),
                    dwellers,
                    axis=current.axis,
                )
                return SpeedPartition(domain, inner, churners)
            strategy = "density"  # no churn signal yet: re-cut instead
        if strategy == "split":
            return self._split_merge(current, positions, hot_sid)
        new = BoundaryPartition.from_points(
            domain, current.n_shards, list(positions.values()), axis=current.axis
        )
        if new.boundaries() == current.boundaries():
            return None
        return new

    def _split_merge(
        self,
        current: Partitioner,
        positions: Mapping[int, Point],
        hot_sid: int,
    ) -> Optional[Partitioner]:
        """Split the hot slab at its object median and merge the coldest
        adjacent pair, keeping the shard count constant."""
        if hasattr(current, "fast_ids"):
            return None  # speed partitions rebalance via churner promotion
        axis = current.axis
        domain = current.domain
        bounds = current.boundaries()
        lo = float(domain.lo[axis])
        hi = float(domain.hi[axis])
        edges = [lo, *bounds, hi]
        if hot_sid >= len(edges) - 1:
            return None
        in_hot = sorted(
            p[axis]
            for p in positions.values()
            if current.shard_of(p) == hot_sid
        )
        if len(in_hot) < 2:
            return None
        mid = len(in_hot) // 2
        cut = (in_hot[mid - 1] + in_hot[mid]) / 2.0
        if not edges[hot_sid] < cut < edges[hot_sid + 1]:
            return None  # cut collapses onto a slab edge
        if not in_hot[0] < cut:
            return None  # hot mass is a point: half-open routing would
            # send all of it to the upper side, separating nothing
        counts = [0] * current.n_shards
        for p in positions.values():
            counts[current.shard_of(p)] += 1
        if not bounds:
            return None  # a single slab has nothing to merge back
        # Removing bounds[j] merges slabs j and j+1; pick the coldest pair.
        coldest = min(
            range(len(bounds)), key=lambda j: counts[j] + counts[j + 1]
        )
        new_bounds = sorted((set(bounds) - {bounds[coldest]}) | {cut})
        if new_bounds == bounds:
            return None
        try:
            return BoundaryPartition(domain, new_bounds, axis=axis)
        except ValueError:
            return None

    # -- telemetry -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "policy": asdict(self.policy),
            "rebalances": self.rebalances,
            "skipped": self.skipped,
            "armed": self._armed,
            "events": list(self.events),
        }

    def __repr__(self) -> str:
        return (
            f"ShardRebalancer(strategy={self.policy.strategy!r}, "
            f"rebalances={self.rebalances})"
        )
