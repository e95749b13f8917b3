"""Online self-healing: shadow rebuild with atomic cutover.

The paper's answer to drifting movement patterns is to rebuild the
CT-R-tree from fresher history (Section 3.4); MOIST-style systems show
the rebuild must happen *around* the live index, not instead of it.
:class:`SelfHealingIndex` wraps any registered (non-sharded) index and
runs that protocol:

1. **monitor** -- every applied update feeds a :class:`DriftMonitor`
   (page I/Os and whether the structure absorbed the update lazily);
2. **mine** -- on DEGRADED (or :meth:`request_rebuild`), re-mine
   qs-regions from the per-object trail windows the wrapper keeps and
   build an empty shadow index on a fresh pager *sharing the live I/O
   ledger* (so post-cutover accounting stays on the books the driver
   reads);
3. **load** -- migrate objects into the shadow in bounded batches, one
   batch per :meth:`advance` call, so the driver loop never stalls;
   live updates are double-applied: already-migrated objects go to both
   structures, not-yet-migrated ones only advance the position ledger
   the loader reads;
4. **verify** -- run :func:`repro.health.verify.verify_index` over the
   finished shadow and require exact object-count agreement;
5. **cut over** -- atomically swap the shadow in (a reference swap; the
   old structure keeps every update it ever acknowledged, so failure at
   any earlier step simply keeps it serving), then flag a durability
   checkpoint, which the driver takes at the next quiescent point.

If rebuild or verification fails, the shadow is discarded, the old
index keeps serving, and one immediate retry targets the robust
fallback kind (the lazy R-tree).  Rebuild and migration I/O is charged
to ``IOCategory.BUILD``; only genuine double-apply work lands in the
caller's UPDATE scope.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.geometry import Point, Rect
from repro.engine.protocol import PageStore, position_of
from repro.engine.registry import IndexOptions, get_spec
from repro.health.drift import DriftMonitor, HealthState
from repro.health.verify import verify_index
from repro.obs.metrics import get_registry
from repro.storage.iostats import IOCategory
from repro.storage.page import PageId
from repro.storage.pager import Pager


class RebuildPhase:
    """Where the shadow rebuild currently stands."""

    IDLE = "idle"
    MINING = "mining"
    LOADING = "loading"
    VERIFYING = "verifying"

    ALL = (IDLE, MINING, LOADING, VERIFYING)


@dataclass(frozen=True)
class HealPolicy:
    """Knobs of the self-healing loop.

    Args:
        trail_window: position samples kept per object; the mining input
            when a rebuild re-derives qs-regions.
        rebuild_batch: objects migrated into the shadow per
            :meth:`SelfHealingIndex.advance` call (the bounded-work knob).
        cooldown_updates: applied updates required between rebuild
            attempts, so a failing rebuild cannot spin.
        fallback_kind: the kind retried immediately when a rebuild or its
            verification fails (None disables the fallback).
        verify_shadow: verify the shadow before cutover (on by default;
            tests exercising the cutover path may disable it).
    """

    trail_window: int = 8
    rebuild_batch: int = 32
    cooldown_updates: int = 1000
    fallback_kind: Optional[str] = "lazy"
    verify_shadow: bool = True

    def __post_init__(self) -> None:
        if self.trail_window < 2:
            raise ValueError("trail_window must be at least 2")
        if self.rebuild_batch < 1:
            raise ValueError("rebuild_batch must be at least 1")
        if self.cooldown_updates < 0:
            raise ValueError("cooldown_updates must be >= 0")


class SelfHealingIndex:
    """Engine wrapper adding drift detection and shadow-rebuild cutover.

    Conforms to the :class:`~repro.engine.protocol.SpatialIndex` surface,
    so the driver, buffer, and durability manager treat it as any other
    index; ``snapshot_target`` exposes the currently serving structure to
    the checkpoint layer.

    Args:
        inner: the index to wrap (any registered non-sharded kind).
        kind: the registry kind of ``inner``.
        domain: the indexed space, for shadow construction.
        monitor: drift monitor; a default one is created when omitted.
        policy: self-healing knobs.
        options: construction options reused for shadows; defaults to
            ``IndexOptions()`` with the wrapper's trail histories patched
            in at mining time.
        durability: optional
            :class:`~repro.durability.DurabilityManager`; cutover flags a
            checkpoint which :meth:`checkpoint_if_due` takes at the next
            quiescent point.
    """

    def __init__(
        self,
        inner,
        kind: str,
        domain: Rect,
        *,
        monitor: Optional[DriftMonitor] = None,
        policy: Optional[HealPolicy] = None,
        options: Optional[IndexOptions] = None,
        durability=None,
    ) -> None:
        get_spec(kind)  # validate early: the wrapper rebuilds by kind
        self.inner = inner
        self.kind = kind
        #: The kind rebuilds target (survives a fallback cutover).
        self.base_kind = kind
        self.domain = domain
        self.policy = policy if policy is not None else HealPolicy()
        self.monitor = monitor if monitor is not None else DriftMonitor()
        self.options = options if options is not None else IndexOptions()
        self.durability = durability
        if self.monitor.residency_probe is None:
            self.monitor.residency_probe = self._residency

        self._stats = inner.pager.stats
        #: Last acknowledged position per object (the loader's source of
        #: truth; uncharged bookkeeping, like the driver's own ledger).
        self._positions: Dict[int, Point] = {}
        #: Recent trail per object, the qs-region mining input.
        self._trails: Dict[int, Deque[Tuple[Point, float]]] = {}
        self._clock = 0.0

        self.phase: str = RebuildPhase.IDLE
        self._shadow = None
        self._shadow_kind = kind
        self._to_load: List[int] = []
        self._load_i = 0
        self._load_pending: Set[int] = set()
        self._migrated: Set[int] = set()

        self.rebuilds_started = 0
        self.rebuilds_completed = 0
        self.rebuilds_failed = 0
        self.cutovers = 0
        self.fallbacks = 0
        self.last_error: Optional[str] = None
        self.checkpoint_due = False
        self._fallback_armed = False
        # First DEGRADED verdict may trigger immediately; later attempts
        # wait out the cooldown.
        self._updates_since_attempt = self.policy.cooldown_updates

    # -- SpatialIndex surface ----------------------------------------------

    @property
    def pager(self) -> PageStore:
        return self.inner.pager

    @property
    def snapshot_target(self):
        """The structure checkpoints/snapshots should capture."""
        return self.inner

    def __len__(self) -> int:
        return len(self.inner)

    def insert(
        self, obj_id: int, point: Sequence[float], now: Optional[float] = None
    ) -> PageId:
        t = self._tick(now)
        pos = position_of(point)
        pid = self.inner.insert(obj_id, pos, now=now)
        self._record(obj_id, pos, t)
        if self.phase != RebuildPhase.IDLE:
            self._shadow_apply(obj_id, None, pos, t)
        self.advance(t)
        return pid

    def update(
        self,
        obj_id: int,
        old_point: Sequence[float],
        new_point: Sequence[float],
        now: Optional[float] = None,
    ) -> PageId:
        t = self._tick(now)
        new_pos = position_of(new_point)
        io_before = self._stats.total()
        lazy_before = self._lazy_counter()
        pid = self.inner.update(obj_id, old_point, new_pos, now=now)
        # Measure the serving index's own cost *before* any shadow work,
        # so the drift windows track the structure being judged.
        ios = self._stats.total() - io_before
        lazy = (
            self._lazy_counter() - lazy_before > 0 if self._tracks_lazy else True
        )
        shadow_old = self._positions.get(obj_id)
        self._record(obj_id, new_pos, t)
        if self.phase != RebuildPhase.IDLE:
            self._shadow_apply(obj_id, shadow_old, new_pos, t)
        self.monitor.note_update(ios, lazy)
        self._updates_since_attempt += 1
        if (
            self.phase == RebuildPhase.IDLE
            and self.monitor.state != HealthState.HEALTHY
            and self._updates_since_attempt > self.policy.cooldown_updates
        ):
            self._start_rebuild(self.base_kind)
        self.advance(t)
        return pid

    def delete(
        self,
        obj_id: int,
        old_point: Optional[Sequence[float]] = None,
        now: Optional[float] = None,
    ) -> bool:
        t = self._tick(now)
        old_pos = (
            self._positions.get(obj_id)
            if old_point is None
            else position_of(old_point)
        )
        removed = get_spec(self.kind).delete(self.inner, obj_id, old_pos, now)
        if removed:
            self._positions.pop(obj_id, None)
            self._trails.pop(obj_id, None)
            if self.phase != RebuildPhase.IDLE:
                self._shadow_delete(obj_id, old_pos, t)
        self.advance(t)
        return bool(removed)

    def range_search(self, rect: Rect) -> List[Tuple[int, Point]]:
        return self.inner.range_search(rect)

    # -- telemetry delegation (treestats / driver duck-typing) -------------

    @property
    def lazy_hits(self) -> int:
        return getattr(self.inner, "lazy_hits", 0) or 0

    @property
    def relocations(self) -> int:
        return getattr(self.inner, "relocations", 0) or 0

    @property
    def health_state(self) -> str:
        return self.monitor.state

    @property
    def _tracks_lazy(self) -> bool:
        return hasattr(self.inner, "lazy_hits")

    def _lazy_counter(self) -> int:
        return getattr(self.inner, "lazy_hits", 0) or 0

    def _residency(self) -> Optional[float]:
        """Fraction of objects resident in qs-regions (CT-R-tree only)."""
        counter = getattr(self.inner, "buffered_object_count", None)
        if counter is None:
            return None
        n = len(self.inner)
        if n == 0:
            return None
        return (n - counter()) / n

    # -- bookkeeping -------------------------------------------------------

    def _tick(self, now: Optional[float]) -> float:
        if now is not None:
            self._clock = max(self._clock, float(now))
        else:
            self._clock += 1.0
        return self._clock

    def _record(self, obj_id: int, pos: Point, t: float) -> None:
        self._positions[obj_id] = pos
        trail = self._trails.get(obj_id)
        if trail is None:
            trail = self._trails[obj_id] = deque(maxlen=self.policy.trail_window)
        trail.append((pos, t))

    # -- double apply ------------------------------------------------------

    def _shadow_apply(
        self, obj_id: int, old: Optional[Point], pos: Point, t: float
    ) -> None:
        """Mirror a live insert/update into the shadow."""
        if self._shadow is None:
            # Still mining: the load list is snapshotted from the position
            # ledger after mining, so recording the position was enough.
            return
        try:
            if obj_id in self._migrated:
                if old is None:
                    # Defensive: a re-insert of a migrated object.
                    self._shadow.update(obj_id, pos, pos, now=t)
                else:
                    self._shadow.update(obj_id, old, pos, now=t)
            elif (
                self.phase == RebuildPhase.LOADING
                and obj_id in self._load_pending
            ):
                # Not yet migrated: the loader reads the position ledger,
                # which already holds this newest position.
                pass
            else:
                self._shadow.insert(obj_id, pos, now=t)
                self._migrated.add(obj_id)
        except Exception as exc:  # shadow failure never takes down serving
            self._abort(exc)

    def _shadow_delete(
        self, obj_id: int, old_pos: Optional[Point], t: float
    ) -> None:
        if self._shadow is None:
            return
        try:
            if obj_id in self._migrated:
                get_spec(self._shadow_kind).delete(
                    self._shadow, obj_id, old_pos, t
                )
                self._migrated.discard(obj_id)
            else:
                self._load_pending.discard(obj_id)
        except Exception as exc:
            self._abort(exc)

    # -- the rebuild state machine -----------------------------------------

    def request_rebuild(self, kind: Optional[str] = None) -> bool:
        """Manually start a rebuild; returns False if one is running."""
        if self.phase != RebuildPhase.IDLE:
            return False
        self._start_rebuild(kind if kind is not None else self.base_kind)
        return True

    def _start_rebuild(self, kind: str) -> None:
        self._shadow_kind = kind
        self.rebuilds_started += 1
        self._updates_since_attempt = 0
        self.phase = RebuildPhase.MINING
        registry = get_registry()
        if registry.enabled:
            registry.inc("health.rebuild.started")

    def advance(self, now: Optional[float] = None) -> None:
        """Perform one bounded slice of rebuild work (never blocks long)."""
        if self.phase == RebuildPhase.IDLE:
            return
        if now is not None:
            self._clock = max(self._clock, float(now))
        try:
            if self.phase == RebuildPhase.MINING:
                self._advance_mine()
            elif self.phase == RebuildPhase.LOADING:
                self._advance_load()
            elif self.phase == RebuildPhase.VERIFYING:
                self._advance_verify()
        except Exception as exc:
            self._abort(exc)

    def _advance_mine(self) -> None:
        spec = get_spec(self._shadow_kind)
        page_size = self.inner.pager.page_size
        pager = Pager(page_size=page_size, stats=self._stats)
        histories = None
        if spec.needs_histories:
            # Re-mine qs-regions from the *recent* trail windows -- the
            # whole point of the rebuild: regions matching the pattern the
            # workload has drifted to, not the one it was built for.
            histories = {
                oid: list(trail)
                for oid, trail in self._trails.items()
                if len(trail) >= 2
            }
        base = self.options
        options = IndexOptions(
            max_entries=base.max_entries,
            ct_params=base.ct_params,
            histories=histories if histories is not None else base.histories,
            query_rate=base.query_rate,
            adaptive=base.adaptive,
            split=base.split,
        )
        with self._stats.category(IOCategory.BUILD):
            self._shadow = spec.factory(pager, self.domain, options)
        self._to_load = list(self._positions)
        self._load_pending = set(self._to_load)
        self._load_i = 0
        self._migrated = set()
        self.phase = RebuildPhase.LOADING

    def _advance_load(self) -> None:
        budget = self.policy.rebuild_batch
        with self._stats.category(IOCategory.BUILD):
            while budget > 0 and self._load_i < len(self._to_load):
                obj_id = self._to_load[self._load_i]
                self._load_i += 1
                self._load_pending.discard(obj_id)
                pos = self._positions.get(obj_id)
                if pos is None or obj_id in self._migrated:
                    continue
                self._shadow.insert(obj_id, pos, now=self._clock)
                self._migrated.add(obj_id)
                budget -= 1
        if self._load_i >= len(self._to_load):
            self.phase = RebuildPhase.VERIFYING

    def _advance_verify(self) -> None:
        shadow = self._shadow
        if len(shadow) != len(self._positions):
            raise RuntimeError(
                f"shadow holds {len(shadow)} objects, "
                f"the ledger {len(self._positions)}"
            )
        if self.policy.verify_shadow:
            report = verify_index(shadow)
            if not report.ok:
                raise RuntimeError(
                    f"shadow failed verification: {report.summary()}"
                )
        self._cutover()

    def _cutover(self) -> None:
        self.inner = self._shadow
        self.kind = self._shadow_kind
        self._clear_rebuild_state()
        self.cutovers += 1
        self.rebuilds_completed += 1
        self._fallback_armed = False
        self._updates_since_attempt = 0
        # Never checkpoint mid-flush: the driver (or whoever owns the
        # update buffer) takes it at the next quiescent point, so a
        # checkpoint's covered WAL position stays truthful.
        self.checkpoint_due = self.durability is not None
        self.monitor.reset()
        registry = get_registry()
        if registry.enabled:
            registry.inc("health.rebuild.completed")
            registry.inc("health.cutover")

    def _clear_rebuild_state(self) -> None:
        self._shadow = None
        self._to_load = []
        self._load_i = 0
        self._load_pending = set()
        self._migrated = set()
        self.phase = RebuildPhase.IDLE

    def _abort(self, exc: BaseException) -> None:
        self.rebuilds_failed += 1
        self.last_error = f"{type(exc).__name__}: {exc}"
        failed_kind = self._shadow_kind
        self._clear_rebuild_state()
        registry = get_registry()
        if registry.enabled:
            registry.inc("health.rebuild.failed")
        fallback = self.policy.fallback_kind
        if (
            fallback is not None
            and not self._fallback_armed
            and failed_kind != fallback
        ):
            # One immediate retry as the robust fallback: a plain lazy
            # R-tree needs no mining and always verifies.
            self._fallback_armed = True
            self.fallbacks += 1
            self._start_rebuild(fallback)
        else:
            self._fallback_armed = False
            self._updates_since_attempt = 0

    # -- durability --------------------------------------------------------

    def checkpoint_if_due(self, durability=None) -> bool:
        """Take the post-cutover checkpoint; call at quiescent points only
        (no buffered-but-unapplied updates)."""
        manager = durability if durability is not None else self.durability
        if not self.checkpoint_due or manager is None:
            return False
        manager.checkpoint()
        self.checkpoint_due = False
        return True

    # -- introspection -----------------------------------------------------

    def health_dict(self) -> Dict[str, object]:
        return {
            "state": self.monitor.state,
            "kind": self.kind,
            "base_kind": self.base_kind,
            "phase": self.phase,
            "rebuilds_started": self.rebuilds_started,
            "rebuilds_completed": self.rebuilds_completed,
            "rebuilds_failed": self.rebuilds_failed,
            "cutovers": self.cutovers,
            "fallbacks": self.fallbacks,
            "last_error": self.last_error,
            "objects": len(self._positions),
            "monitor": self.monitor.to_dict(),
        }

    def __repr__(self) -> str:
        return (
            f"SelfHealingIndex(kind={self.kind!r}, state={self.monitor.state}, "
            f"phase={self.phase}, cutovers={self.cutovers}, "
            f"objects={len(self._positions)})"
        )
