"""Phase 2: chain graphs, resident-density merging, and the update graph.

Per object (Figure 4): the object's qs-regions form a *chain graph* --
vertices are the rectangles, links join consecutive rectangles in time order,
each link initially of weight 1.  Overlapping rectangles are then merged
whenever the union's **resident density** (total dwell time / area) exceeds
the density of both constituents and the union stays under ``T_area``
(conditions 3-5); common links are collapsed with summed weights.

The per-object graphs are unioned and the same merging procedure is applied
to the whole, yielding the global *update graph*: vertices are qs-regions
shared by all objects, the time value of each is the total time objects spent
in it, and an edge's weight counts the updates (transitions) between its two
regions.  Finally all edge weights are scaled down by ``t_max``, the longest
trail duration, so weights read as updates per unit time.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.geometry import column_areas
from repro.core.qsregion import QSRegion

#: Floor for rectangle areas when computing densities, so degenerate
#: (zero-area) regions stay mergeable instead of having infinite density.
AREA_EPSILON = 1e-9


class UpdateGraph:
    """A weighted undirected graph over :class:`QSRegion` vertices."""

    def __init__(self) -> None:
        self._regions: Dict[int, QSRegion] = {}
        self._adj: Dict[int, Dict[int, float]] = {}
        self._next_id = 0
        #: Work done by :func:`merge_by_density`'s grid path on this graph:
        #: candidate sets built, and candidate pairs tested against
        #: conditions (3)-(5).  Both repeat exactly for a given input.
        self.density_candidate_sets = 0
        self.density_tests = 0

    # -- construction ------------------------------------------------------

    def add_region(self, region: QSRegion) -> int:
        rid = self._next_id
        self._next_id += 1
        self._regions[rid] = region
        self._adj[rid] = {}
        return rid

    def add_edge(self, a: int, b: int, weight: float = 1.0) -> None:
        """Accumulate ``weight`` onto the (a, b) link; self-links are ignored."""
        if a == b:
            return
        for rid in (a, b):
            if rid not in self._regions:
                raise KeyError(f"unknown region id {rid}")
        self._adj[a][b] = self._adj[a].get(b, 0.0) + weight
        self._adj[b][a] = self._adj[b].get(a, 0.0) + weight

    # -- access -------------------------------------------------------------

    def region(self, rid: int) -> QSRegion:
        return self._regions[rid]

    @property
    def region_ids(self) -> List[int]:
        return list(self._regions.keys())

    @property
    def region_count(self) -> int:
        return len(self._regions)

    def regions(self) -> List[QSRegion]:
        return list(self._regions.values())

    def neighbors(self, rid: int) -> Dict[int, float]:
        return dict(self._adj[rid])

    def edge_weight(self, a: int, b: int) -> float:
        return self._adj.get(a, {}).get(b, 0.0)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Each undirected edge once, as (smaller id, larger id, weight)."""
        for a, nbrs in self._adj.items():
            for b, weight in nbrs.items():
                if a < b:
                    yield a, b, weight

    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())

    # -- mutation ------------------------------------------------------------

    def merge(self, keep: int, absorb: int) -> int:
        """Merge region ``absorb`` into ``keep`` (Figure 4 steps (a)-(c)).

        The kept region's rectangle expands to the union, dwell times add,
        and links that led to the same third region collapse into one link of
        summed weight.  The link between the pair disappears (those
        transitions are now intra-region).
        """
        if keep == absorb:
            raise ValueError("cannot merge a region with itself")
        region_keep = self._regions[keep]
        region_gone = self._regions.pop(absorb)

        region_keep.rect = region_keep.rect.union(region_gone.rect)
        region_keep.dwell_time += region_gone.dwell_time
        region_keep.sources = sorted(set(region_keep.sources) | set(region_gone.sources))
        if region_keep.object_id != region_gone.object_id:
            region_keep.object_id = None

        for nbr, weight in self._adj.pop(absorb).items():
            self._adj[nbr].pop(absorb, None)
            if nbr != keep:
                self.add_edge(keep, nbr, weight)
        self._adj[keep].pop(absorb, None)
        return keep

    def scale_edges(self, factor: float) -> None:
        """Multiply every edge weight by ``factor`` (the 1/t_max scaling)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        for nbrs in self._adj.values():
            for nbr in nbrs:
                nbrs[nbr] *= factor

    def total_dwell_time(self) -> float:
        return sum(r.dwell_time for r in self._regions.values())

    def __repr__(self) -> str:
        return f"UpdateGraph(regions={self.region_count}, edges={self.edge_count()})"


def chain_graph(regions: Sequence[QSRegion]) -> UpdateGraph:
    """The per-object chain graph: a path through the regions in time order."""
    graph = UpdateGraph()
    rids = [graph.add_region(region) for region in regions]
    for a, b in zip(rids, rids[1:]):
        graph.add_edge(a, b, 1.0)
    return graph


def union_graphs(graphs: Iterable[UpdateGraph]) -> UpdateGraph:
    """Disjoint union of per-object graphs into one unified graph."""
    unified = UpdateGraph()
    for graph in graphs:
        relabel = {rid: unified.add_region(graph.region(rid)) for rid in graph.region_ids}
        for a, b, weight in graph.edges():
            unified.add_edge(relabel[a], relabel[b], weight)
    return unified


def _mergeable(a: QSRegion, b: QSRegion, t_area: float) -> bool:
    """Conditions (3)-(5): the union must beat both resident densities and
    stay under the area cap."""
    union = a.rect.union(b.rect)
    union_area = union.area
    if union_area >= t_area:
        return False
    combined_density = (a.dwell_time + b.dwell_time) / max(union_area, AREA_EPSILON)
    return (
        a.resident_density(AREA_EPSILON) < combined_density
        and b.resident_density(AREA_EPSILON) < combined_density
    )


class _Grid:
    """Uniform-grid candidate index for the density-merge fixpoint loop.

    Cell side is ``sqrt(T_area)``: a merge product must fit in ``T_area``, so
    partners of near-square candidates lie in the 3x3 cell neighbourhood.
    (The exhaustive path below exists for small inputs and for tests that
    check the pruning loses nothing on realistic data.)
    """

    def __init__(self, cell: float) -> None:
        self.cell = max(cell, AREA_EPSILON)
        self._cells: Dict[Tuple[int, int], Set[int]] = {}
        self._where: Dict[int, List[Tuple[int, int]]] = {}

    def _cover(self, region: QSRegion) -> List[Tuple[int, int]]:
        x0 = math.floor(region.rect.lo[0] / self.cell)
        x1 = math.floor(region.rect.hi[0] / self.cell)
        y0 = math.floor(region.rect.lo[1] / self.cell) if region.rect.dim > 1 else 0
        y1 = math.floor(region.rect.hi[1] / self.cell) if region.rect.dim > 1 else 0
        return [(cx, cy) for cx in range(x0, x1 + 1) for cy in range(y0, y1 + 1)]

    def add(self, rid: int, region: QSRegion) -> None:
        cells = self._cover(region)
        self._where[rid] = cells
        for cell in cells:
            self._cells.setdefault(cell, set()).add(rid)

    def remove(self, rid: int) -> None:
        for cell in self._where.pop(rid, []):
            bucket = self._cells.get(cell)
            if bucket is not None:
                bucket.discard(rid)

    def candidates(self, rid: int) -> Set[int]:
        found: Set[int] = set()
        for cx, cy in self._where.get(rid, []):
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    found |= self._cells.get((cx + dx, cy + dy), set())
        found.discard(rid)
        return found


def merge_by_density(
    graph: UpdateGraph,
    t_area: float,
    exhaustive: Optional[bool] = None,
) -> int:
    """Run Figure 4's merging loop to fixpoint; returns the number of merges.

    ``exhaustive`` selects candidate generation: all pairs (exact, O(n^2) per
    pass) versus grid-pruned.  Defaults to exhaustive for graphs of at most
    256 regions, grid-pruned above.
    """
    if exhaustive is None:
        exhaustive = graph.region_count <= 256

    merges = 0
    if exhaustive:
        changed = True
        while changed:
            changed = False
            rids = graph.region_ids
            for i, a in enumerate(rids):
                if a not in graph._regions:
                    continue
                for b in rids[i + 1 :]:
                    if b not in graph._regions or a not in graph._regions:
                        continue
                    if _mergeable(graph.region(a), graph.region(b), t_area):
                        graph.merge(a, b)
                        merges += 1
                        changed = True
        return merges

    # Grid path.  Per-region columns (indexed by region id) mirror the
    # region objects so conditions (3)-(5) are one vector expression per
    # candidate set: the same min/max, subtractions, products, division and
    # strict comparisons ``_mergeable`` performs, in the same order.  The
    # partner is the *first* mergeable id in the candidate set's own
    # iteration order -- the greedy fixpoint depends on that order, so
    # candidates are neither sorted nor pruned here.
    if not graph._regions:
        return 0
    grid = _Grid(math.sqrt(t_area))
    dim = next(iter(graph._regions.values())).rect.dim
    lo = np.zeros((graph._next_id, dim))
    hi = np.zeros((graph._next_id, dim))
    dwell = np.zeros(graph._next_id)
    density = np.zeros(graph._next_id)

    def refresh(rid: int) -> None:
        """Mirror region ``rid`` into the columns and (re-)add it to the grid."""
        region = graph.region(rid)
        lo[rid] = region.rect.lo
        hi[rid] = region.rect.hi
        dwell[rid] = region.dwell_time
        density[rid] = region.resident_density(AREA_EPSILON)
        grid.add(rid, region)

    for rid in graph.region_ids:
        refresh(rid)
    worklist = list(graph.region_ids)
    while worklist:
        a = worklist.pop()
        if a not in graph._regions:
            continue
        merged_any = True
        while merged_any:
            merged_any = False
            candidates = grid.candidates(a)
            if not candidates:
                break
            graph.density_candidate_sets += 1
            graph.density_tests += len(candidates)
            ids = np.fromiter(candidates, np.intp, len(candidates))
            union_area = column_areas(
                np.maximum(hi[a], hi[ids]) - np.minimum(lo[a], lo[ids])
            )
            combined_density = (dwell[a] + dwell[ids]) / np.maximum(
                union_area, AREA_EPSILON
            )
            mergeable = (
                (union_area < t_area)
                & (density[a] < combined_density)
                & (density[ids] < combined_density)
            )
            first = mergeable.argmax()
            if mergeable[first]:
                b = int(ids[first])
                graph.merge(a, b)
                grid.remove(b)
                grid.remove(a)
                refresh(a)
                merges += 1
                merged_any = True
    return merges


def build_update_graph(
    per_object_regions: Sequence[Sequence[QSRegion]],
    t_area: float,
    t_max: float,
    exhaustive: Optional[bool] = None,
) -> UpdateGraph:
    """The full Phase 2: per-object chains, density merges, union, rescale.

    Region ids in the unified graph are assigned in input order and the
    global merge is order-sensitive, so the result is a function of the
    order of ``per_object_regions``.

    Args:
        per_object_regions: Phase-1 output, one region sequence per object.
        t_area: the ``T_area`` threshold.
        t_max: the longest trail duration (``max |H_i|`` in time), used to
            scale edge weights to updates per unit time.
        exhaustive: candidate generation for the merge over the unified
            graph (see :func:`merge_by_density`); the per-object graphs are
            small and always merged exhaustively.
    """
    graphs = []
    for regions in per_object_regions:
        graph = chain_graph(regions)
        merge_by_density(graph, t_area, exhaustive=True)
        graphs.append(graph)
    unified = union_graphs(graphs)
    merge_by_density(unified, t_area, exhaustive=exhaustive)
    if t_max > 0:
        unified.scale_edges(1.0 / t_max)
    return unified
