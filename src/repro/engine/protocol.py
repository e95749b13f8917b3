"""Formal contracts between the engine and the index structures.

The four evaluated structures (traditional R-tree, lazy-R-tree, alpha-tree,
CT-R-tree) and the 1-D B+-tree baselines all grew the same moving-object
surface organically; these protocols write that surface down so the engine
layer (registry, batched executor, sharded router) can be typed against a
contract instead of a hand-rolled ``Union``.

Two axes:

* **Position type** -- the spatial family indexes points and answers
  rectangle range queries (:class:`SpatialIndex`); the B+-tree baselines
  index scalar keys and answer interval queries (:class:`LinearIndex`).
  Both share the update surface (:class:`UpdatableIndex`).
* **Storage** -- everything runs over a page store charging one I/O per
  page touched (:class:`PageStore`), satisfied by both the raw
  :class:`~repro.storage.pager.Pager` and the LRU
  :class:`~repro.storage.buffer_pool.BufferPool`.

The protocols are ``runtime_checkable``: ``isinstance`` verifies member
*presence* (Python checks names, not signatures), which is what the
registry's construction-time sanity check uses; full signature conformance
is enforced statically (mypy runs strict on ``repro.engine``).
"""

from __future__ import annotations

from typing import (
    Any,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.core.geometry import Point, Rect
from repro.storage.iostats import IOStats
from repro.storage.page import Page, PageId


@runtime_checkable
class PageStore(Protocol):
    """One-I/O-per-page-touched storage: Pager or BufferPool."""

    @property
    def stats(self) -> IOStats: ...

    @property
    def page_size(self) -> int: ...

    @property
    def page_count(self) -> int: ...

    @property
    def next_pid(self) -> PageId: ...

    def allocate(self, page: Page) -> PageId: ...

    def free(self, pid: PageId) -> None: ...

    def read(self, pid: PageId) -> Page: ...

    def write(self, page: Page) -> None: ...

    def inspect(self, pid: PageId) -> Page: ...

    def contains(self, pid: PageId) -> bool: ...

    def iter_pids(self) -> Iterator[PageId]: ...

    def metrics_dict(self) -> dict: ...


@runtime_checkable
class UpdatableIndex(Protocol):
    """The update surface shared by every index family in the repo.

    ``now`` is the logical timestamp of the operation; time-driven structures
    (the CT-R-tree's adaptation clock) consume it, the others accept and
    ignore it for interface parity.  ``old_position`` likewise: pointer-based
    structures locate the object through their secondary hash index, while
    the traditional R-tree needs the old position to delete-and-reinsert.
    """

    @property
    def pager(self) -> Any: ...

    def __len__(self) -> int: ...

    def insert(
        self, obj_id: int, position: Any, now: Optional[float] = None
    ) -> PageId: ...

    def update(
        self,
        obj_id: int,
        old_position: Any,
        new_position: Any,
        now: Optional[float] = None,
    ) -> PageId: ...


@runtime_checkable
class SpatialIndex(UpdatableIndex, Protocol):
    """A 2-D (or n-D) point index answering rectangle range queries.

    This is the contract the simulation driver, the batched update executor
    and the sharded router all program against.
    """

    def range_search(self, rect: Rect) -> List[Tuple[int, Point]]: ...


@runtime_checkable
class LinearIndex(UpdatableIndex, Protocol):
    """A 1-D key index answering interval range queries (B+-tree family)."""

    def range_search(self, low: float, high: float) -> List[Tuple[int, float]]: ...


@runtime_checkable
class Introspectable(Protocol):
    """What :func:`repro.obs.tree_stats` duck-types against (paged trees).

    Wrapper indexes (lazy-R-tree, the sharded router) satisfy the probe
    differently -- by delegation (``.tree``) or their own probe
    (``collect_tree_stats``) -- so the engine treats this as a capability,
    not a requirement.
    """

    @property
    def pager(self) -> Any: ...

    @property
    def root_pid(self) -> PageId: ...

    @property
    def height(self) -> int: ...

    max_entries: int


def conforms_to_spatial(index: object) -> bool:
    """Runtime presence check for the :class:`SpatialIndex` surface."""
    return isinstance(index, SpatialIndex)


def position_of(point: Sequence[float]) -> Point:
    """Normalize a caller-supplied position to the canonical tuple form.

    Every structure stores positions as tuples; list-vs-tuple mismatches
    break delete-by-old-point equality, so the engine normalizes once at its
    boundary (the driver does the same for its ``positions`` ledger).
    """
    return tuple(point)
