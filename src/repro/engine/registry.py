"""The index registry: construction and capability dispatch by kind.

``IndexKind``/``make_index`` historically lived inside ``workload.driver``,
which forced experiment modules into cycle-avoiding local imports.  The
registry is now the single owner of index construction: each kind maps to an
:class:`IndexSpec` bundling the display label, the factory, and the
capability adapters the engine needs (how to delete an object, whether the
kind needs a history profile).  ``workload.driver`` keeps thin re-exports so
existing callers are untouched.

Registering a fifth structure is one :func:`register_index` call -- the CLI,
the harness, the sharded router and the snapshot dispatch all pick it up
through the same table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.builder import CTRTreeBuilder
from repro.core.ctrtree import CTRTree
from repro.core.geometry import Point, Rect
from repro.core.params import CTParams
from repro.engine.protocol import PageStore, SpatialIndex
from repro.rtree.alpha import AlphaTree
from repro.rtree.lazy import LazyRTree
from repro.rtree.rtree import RTree


class IndexKind:
    """The paper's four structures (Section 4.2) plus the LSM-R-tree.

    The LSM kind follows "An Update-intensive LSM-based R-tree Index"
    (PAPERS.md): out-of-place writes through a memtable keep per-update
    cost flat where the in-place kinds grow with tree size.
    """

    RTREE = "rtree"
    LAZY = "lazy"
    ALPHA = "alpha"
    CT = "ct"
    LSM = "lsm"

    ALL = (RTREE, LAZY, ALPHA, CT, LSM)

    LABELS = {
        RTREE: "R-tree",
        LAZY: "lazy-R-tree",
        ALPHA: "alpha-tree",
        CT: "CT-R-tree",
        LSM: "LSM-R-tree",
    }


@dataclass(frozen=True)
class IndexOptions:
    """Construction-time knobs shared by every factory.

    One options record instead of ever-growing keyword plumbing: factories
    read the fields they understand and ignore the rest (the CT-R-tree alone
    consumes ``histories``/``query_rate``/``adaptive``).
    """

    max_entries: int = 20
    ct_params: Optional[CTParams] = None
    histories: Optional[Mapping[int, Sequence[Tuple[Point, float]]]] = None
    query_rate: float = 50.0
    adaptive: bool = True
    split: str = "quadratic"
    #: LSM-R-tree knobs (the other kinds ignore them); None falls back to
    #: the :class:`~repro.lsm.LSMConfig` defaults.
    lsm_memtable: Optional[int] = None
    lsm_size_ratio: Optional[int] = None
    lsm_max_runs: Optional[int] = None
    lsm_auto_compact: bool = True

    @property
    def params(self) -> CTParams:
        return self.ct_params if self.ct_params is not None else CTParams()


IndexFactory = Callable[[PageStore, Rect, IndexOptions], SpatialIndex]
#: Delete an object: (index, obj_id, old_position, now) -> removed?
DeleteFn = Callable[[SpatialIndex, int, Optional[Point], Optional[float]], bool]


def _delete_pointer(
    index: SpatialIndex, obj_id: int, old: Optional[Point], now: Optional[float]
) -> bool:
    del old, now
    return bool(index.delete(obj_id))  # type: ignore[attr-defined]


def _delete_spatial(
    index: SpatialIndex, obj_id: int, old: Optional[Point], now: Optional[float]
) -> bool:
    del now
    if old is None:
        raise ValueError(
            "the traditional R-tree deletes by (obj_id, old_position); "
            "no old position is known"
        )
    return bool(index.delete(obj_id, old))  # type: ignore[attr-defined]


def _delete_timed(
    index: SpatialIndex, obj_id: int, old: Optional[Point], now: Optional[float]
) -> bool:
    del old
    return bool(index.delete(obj_id, now=now))  # type: ignore[attr-defined]


@dataclass(frozen=True)
class IndexSpec:
    """Everything the engine knows about one index kind.

    Structural checking is not a capability here: ``repro.health.verify``
    dispatches on the concrete index type, and a kind it does not know
    reads ``unsupported``.
    """

    kind: str
    label: str
    factory: IndexFactory
    #: Capability adapter: how the engine removes an object (the three
    #: families disagree on the delete signature).
    delete: DeleteFn = field(default=_delete_pointer)
    #: The CT-R-tree mines qs-regions from a history profile at build time.
    needs_histories: bool = False
    #: Tag used by the generic snapshot dispatch (storage.snapshot).
    snapshot_kind: Optional[str] = None


def _make_rtree(store: PageStore, domain: Rect, options: IndexOptions) -> SpatialIndex:
    del domain
    return RTree(store, max_entries=options.max_entries, split=options.split)


def _make_lazy(store: PageStore, domain: Rect, options: IndexOptions) -> SpatialIndex:
    del domain
    return LazyRTree(store, max_entries=options.max_entries, split=options.split)


def _make_alpha(store: PageStore, domain: Rect, options: IndexOptions) -> SpatialIndex:
    del domain
    return AlphaTree(
        store,
        max_entries=options.max_entries,
        split=options.split,
        alpha=options.params.alpha,
    )


def _make_ct(store: PageStore, domain: Rect, options: IndexOptions) -> SpatialIndex:
    if options.histories is None:
        raise ValueError("the CT-R-tree needs a history profile to build from")
    builder = CTRTreeBuilder(
        options.params,
        query_rate=options.query_rate,
        max_entries=options.max_entries,
        split=options.split,
        adaptive=options.adaptive,
    )
    tree, _ = builder.build(store, domain, options.histories)
    return tree


def _make_lsm(store: PageStore, domain: Rect, options: IndexOptions) -> SpatialIndex:
    del domain
    from repro.lsm import LSMConfig, LSMRTree

    defaults = LSMConfig()
    config = LSMConfig(
        memtable_size=(
            options.lsm_memtable
            if options.lsm_memtable is not None
            else defaults.memtable_size
        ),
        size_ratio=(
            options.lsm_size_ratio
            if options.lsm_size_ratio is not None
            else defaults.size_ratio
        ),
        max_runs=(
            options.lsm_max_runs
            if options.lsm_max_runs is not None
            else defaults.max_runs
        ),
        auto_compact=options.lsm_auto_compact,
    )
    return LSMRTree(
        store,
        max_entries=options.max_entries,
        split=options.split,
        config=config,
    )


_REGISTRY: Dict[str, IndexSpec] = {}


def register_index(spec: IndexSpec, *, replace: bool = False) -> IndexSpec:
    """Add ``spec`` to the registry; refuses silent redefinition."""
    if spec.kind in _REGISTRY and not replace:
        raise ValueError(
            f"index kind {spec.kind!r} is already registered; "
            "pass replace=True to override"
        )
    _REGISTRY[spec.kind] = spec
    return spec


def unregister_index(kind: str) -> None:
    """Remove a registered kind (tests registering throwaway kinds)."""
    _REGISTRY.pop(kind, None)


def get_spec(kind: str) -> IndexSpec:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown index kind {kind!r}; choose from {available_kinds()}"
        ) from None


def available_kinds() -> Tuple[str, ...]:
    return tuple(_REGISTRY.keys())


def index_label(kind: str) -> str:
    return get_spec(kind).label


register_index(
    IndexSpec(
        kind=IndexKind.RTREE,
        label=IndexKind.LABELS[IndexKind.RTREE],
        factory=_make_rtree,
        delete=_delete_spatial,
        snapshot_kind="rtree",
    )
)
register_index(
    IndexSpec(
        kind=IndexKind.LAZY,
        label=IndexKind.LABELS[IndexKind.LAZY],
        factory=_make_lazy,
        delete=_delete_pointer,
        snapshot_kind="lazy",
    )
)
register_index(
    IndexSpec(
        kind=IndexKind.ALPHA,
        label=IndexKind.LABELS[IndexKind.ALPHA],
        factory=_make_alpha,
        delete=_delete_pointer,
        snapshot_kind="alpha",
    )
)
register_index(
    IndexSpec(
        kind=IndexKind.CT,
        label=IndexKind.LABELS[IndexKind.CT],
        factory=_make_ct,
        delete=_delete_timed,
        needs_histories=True,
        snapshot_kind="ct",
    )
)
register_index(
    IndexSpec(
        kind=IndexKind.LSM,
        label=IndexKind.LABELS[IndexKind.LSM],
        factory=_make_lsm,
        delete=_delete_pointer,
        snapshot_kind="lsm",
    )
)


def make_index(
    kind: str,
    pager: PageStore,
    domain: Rect,
    *,
    max_entries: int = 20,
    ct_params: Optional[CTParams] = None,
    histories: Optional[Mapping[int, Sequence[Tuple[Point, float]]]] = None,
    query_rate: float = 50.0,
    adaptive: bool = True,
    split: str = "quadratic",
    lsm_memtable: Optional[int] = None,
    lsm_size_ratio: Optional[int] = None,
    lsm_max_runs: Optional[int] = None,
    lsm_auto_compact: bool = True,
) -> SpatialIndex:
    """Construct one of the registered indexes on ``pager``.

    The CT-R-tree additionally needs the history profile (``histories``) to
    mine its qs-regions; the baselines ignore it.  (The signature is the
    original ``workload.driver.make_index`` one -- callers did not move.)
    """
    # Backward-compatible error for unknown kinds mentions the paper's four.
    if kind not in _REGISTRY:
        raise ValueError(f"unknown index kind {kind!r}; choose from {IndexKind.ALL}")
    options = IndexOptions(
        max_entries=max_entries,
        ct_params=ct_params,
        histories=histories,
        query_rate=query_rate,
        adaptive=adaptive,
        split=split,
        lsm_memtable=lsm_memtable,
        lsm_size_ratio=lsm_size_ratio,
        lsm_max_runs=lsm_max_runs,
        lsm_auto_compact=lsm_auto_compact,
    )
    return get_spec(kind).factory(pager, domain, options)


def delete_object(
    kind: str,
    index: SpatialIndex,
    obj_id: int,
    *,
    old_position: Optional[Point] = None,
    now: Optional[float] = None,
) -> bool:
    """Remove ``obj_id`` from ``index`` using the kind's delete capability."""
    return get_spec(kind).delete(index, obj_id, old_position, now)
