"""Unit tests for Phase 2: the update graph and density merging (Figure 4)."""

import copy
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Rect
from repro.core.qsregion import QSRegion
from repro.core.update_graph import (
    UpdateGraph,
    _Grid,
    _mergeable,
    build_update_graph,
    chain_graph,
    merge_by_density,
    union_graphs,
)


def region(x0, y0, x1, y1, tau, oid=None, order=0):
    return QSRegion(
        rect=Rect((x0, y0), (x1, y1)), dwell_time=tau, object_id=oid, order=order
    )


class TestGraphBasics:
    def test_add_region_and_edges(self):
        g = UpdateGraph()
        a = g.add_region(region(0, 0, 1, 1, 10))
        b = g.add_region(region(2, 2, 3, 3, 10))
        g.add_edge(a, b)
        assert g.edge_weight(a, b) == 1.0
        assert g.edge_weight(b, a) == 1.0
        assert g.region_count == 2
        assert g.edge_count() == 1

    def test_edge_weights_accumulate(self):
        g = UpdateGraph()
        a = g.add_region(region(0, 0, 1, 1, 10))
        b = g.add_region(region(2, 2, 3, 3, 10))
        g.add_edge(a, b)
        g.add_edge(a, b, 2.5)
        assert g.edge_weight(a, b) == 3.5

    def test_self_edge_ignored(self):
        g = UpdateGraph()
        a = g.add_region(region(0, 0, 1, 1, 10))
        g.add_edge(a, a)
        assert g.edge_count() == 0

    def test_edge_to_unknown_region_raises(self):
        g = UpdateGraph()
        a = g.add_region(region(0, 0, 1, 1, 10))
        with pytest.raises(KeyError):
            g.add_edge(a, 99)

    def test_scale_edges(self):
        g = UpdateGraph()
        a = g.add_region(region(0, 0, 1, 1, 10))
        b = g.add_region(region(2, 2, 3, 3, 10))
        g.add_edge(a, b, 10.0)
        g.scale_edges(0.1)
        assert g.edge_weight(a, b) == pytest.approx(1.0)

    def test_scale_rejects_negative(self):
        with pytest.raises(ValueError):
            UpdateGraph().scale_edges(-1.0)

    def test_update_graph_neighbors(self):
        graph = UpdateGraph()
        a = graph.add_region(region(0, 0, 1, 1, 1))
        b = graph.add_region(region(2, 2, 3, 3, 1))
        graph.add_edge(a, b, 4.0)
        assert graph.neighbors(a) == {b: 4.0}
        assert len(graph.regions()) == 2
        assert "regions=2" in repr(graph)


class TestMergeSemantics:
    def test_merge_unions_rect_and_sums_dwell(self):
        g = UpdateGraph()
        a = g.add_region(region(0, 0, 2, 2, 10, oid=1))
        b = g.add_region(region(1, 1, 3, 3, 5, oid=2))
        g.merge(a, b)
        merged = g.region(a)
        assert merged.rect == Rect((0, 0), (3, 3))
        assert merged.dwell_time == 15
        assert merged.sources == [1, 2]
        assert merged.object_id is None  # mixed owners
        assert g.region_count == 1

    def test_merge_collapses_common_links(self):
        """Figure 4 step (b): links to the same third region become one link
        of summed weight."""
        g = UpdateGraph()
        a = g.add_region(region(0, 0, 1, 1, 10))
        b = g.add_region(region(1, 1, 2, 2, 10))
        c = g.add_region(region(5, 5, 6, 6, 10))
        g.add_edge(a, c, 2.0)
        g.add_edge(b, c, 3.0)
        g.add_edge(a, b, 7.0)
        g.merge(a, b)
        assert g.edge_weight(a, c) == 5.0
        assert g.edge_count() == 1  # the a-b link became internal

    def test_merge_self_rejected(self):
        g = UpdateGraph()
        a = g.add_region(region(0, 0, 1, 1, 10))
        with pytest.raises(ValueError):
            g.merge(a, a)


class TestChainGraph:
    def test_chain_edges_follow_time_order(self):
        regions = [region(i, 0, i + 1, 1, 10, order=i) for i in range(4)]
        g = chain_graph(regions)
        assert g.region_count == 4
        assert g.edge_count() == 3
        rids = g.region_ids
        for a, b in zip(rids, rids[1:]):
            assert g.edge_weight(a, b) == 1.0

    def test_empty_and_singleton_chains(self):
        assert chain_graph([]).region_count == 0
        assert chain_graph([region(0, 0, 1, 1, 5)]).edge_count() == 0


class TestUnionGraphs:
    def test_union_relabels_disjointly(self):
        g1 = chain_graph([region(0, 0, 1, 1, 10), region(2, 0, 3, 1, 10)])
        g2 = chain_graph([region(5, 5, 6, 6, 10)])
        unified = union_graphs([g1, g2])
        assert unified.region_count == 3
        assert unified.edge_count() == 1


class TestDensityMerging:
    def test_coincident_regions_merge(self):
        g = UpdateGraph()
        g.add_region(region(0, 0, 10, 10, 100))
        g.add_region(region(0, 0, 10, 10, 100))
        merges = merge_by_density(g, t_area=22500)
        assert merges == 1
        assert g.region_count == 1
        assert g.region(g.region_ids[0]).dwell_time == 200

    def test_disjoint_far_regions_do_not_merge(self):
        g = UpdateGraph()
        g.add_region(region(0, 0, 10, 10, 100))
        g.add_region(region(500, 500, 510, 510, 100))
        assert merge_by_density(g, t_area=22500) == 0
        assert g.region_count == 2

    def test_area_cap_blocks_merge(self):
        g = UpdateGraph()
        g.add_region(region(0, 0, 10, 10, 1000))
        g.add_region(region(5, 5, 15, 15, 1000))
        assert merge_by_density(g, t_area=150.0) == 0

    def test_density_condition_is_strict(self):
        # Union density must beat BOTH constituents; side-by-side rects with
        # equal density produce an equal union density -> no merge.
        g = UpdateGraph()
        g.add_region(region(0, 0, 10, 10, 100))
        g.add_region(region(10, 0, 20, 10, 100))
        assert merge_by_density(g, t_area=22500) == 0

    @pytest.mark.parametrize("exhaustive", [True, False], ids=["all-pairs", "grid"])
    def test_density_condition_is_strict_on_each_side(self, exhaustive):
        # The union (= the wide rect) has density exactly 1.0: it beats the
        # wide region (0.5) but only ties the small one, so no merge -- on
        # either candidate path, whichever of the two plays ``a``.
        g = UpdateGraph()
        g.add_region(region(0, 0, 10, 10, 100))
        g.add_region(region(0, 0, 20, 10, 100))
        assert merge_by_density(g, t_area=22500, exhaustive=exhaustive) == 0

    def test_heavily_overlapping_merge_cascades(self):
        g = UpdateGraph()
        for i in range(5):
            g.add_region(region(i * 0.5, 0, i * 0.5 + 10, 10, 100))
        merge_by_density(g, t_area=22500)
        assert g.region_count == 1

    def test_grid_reaches_a_true_fixpoint(self):
        """Figure 4 merges "in arbitrary order, until none satisfies", so
        different orders may reach different (equally valid) fixpoints.  The
        grid-pruned pass must (a) leave no mergeable pair behind -- an
        exhaustive pass afterwards finds nothing -- and (b) land near the
        exhaustive pass's region count on realistic clustered input."""
        rng = random.Random(5)

        def make_graph(seed):
            r = random.Random(seed)
            g = UpdateGraph()
            for _ in range(120):
                cx, cy = r.choice(clusters)
                x = cx + r.uniform(-8, 8)
                y = cy + r.uniform(-8, 8)
                g.add_region(region(x, y, x + 15, y + 15, r.uniform(300, 900)))
            return g

        clusters = [(rng.uniform(50, 950), rng.uniform(50, 950)) for _ in range(8)]
        g_exhaustive = make_graph(6)
        g_grid = make_graph(6)
        merge_by_density(g_exhaustive, t_area=22500, exhaustive=True)
        merge_by_density(g_grid, t_area=22500, exhaustive=False)
        assert merge_by_density(g_grid, t_area=22500, exhaustive=True) == 0
        assert (
            abs(g_grid.region_count - g_exhaustive.region_count)
            <= 0.5 * g_exhaustive.region_count
        )

    def test_merged_dwell_time_is_conserved(self):
        g = UpdateGraph()
        total = 0.0
        for i in range(10):
            tau = 100.0 + i
            total += tau
            g.add_region(region(0, 0, 10 + i * 0.1, 10, tau))
        merge_by_density(g, t_area=22500)
        assert g.total_dwell_time() == pytest.approx(total)


def per_pair_grid_merge(graph, t_area):
    """The grid path one candidate pair at a time: the reference the vector
    kernel must equal.  Same grid, same candidate sets, partner = the first
    mergeable id in the set's iteration order."""
    grid = _Grid(math.sqrt(t_area))
    for rid in graph.region_ids:
        grid.add(rid, graph.region(rid))
    merges = tests = 0
    worklist = list(graph.region_ids)
    while worklist:
        a = worklist.pop()
        if a not in graph._regions:
            continue
        merged_any = True
        while merged_any:
            merged_any = False
            candidates = grid.candidates(a)
            tests += len(candidates)
            for b in candidates:
                if _mergeable(graph.region(a), graph.region(b), t_area):
                    graph.merge(a, b)
                    grid.remove(b)
                    grid.remove(a)
                    grid.add(a, graph.region(a))
                    merges += 1
                    merged_any = True
                    break
    return merges, tests


def clustered_graph(rng, dim, n_regions, n_clusters):
    """Regions piled onto a few dwell spots, chained per owner like Phase 2a
    leaves them; some are degenerate (zero area)."""
    clusters = [[rng.uniform(50, 950) for _ in range(dim)] for _ in range(n_clusters)]
    graph = UpdateGraph()
    previous = None
    for i in range(n_regions):
        centre = rng.choice(clusters)
        lo = [c + rng.uniform(-12, 12) for c in centre]
        extent = 0.0 if rng.random() < 0.05 else rng.uniform(1, 25)
        hi = [c + extent * rng.uniform(0.5, 1.0) for c in lo]
        oid = i // 3
        rid = graph.add_region(
            QSRegion(
                rect=Rect(lo, hi),
                dwell_time=rng.uniform(300, 2000),
                object_id=oid,
                order=i % 3,
            )
        )
        if previous is not None and i % 3:
            graph.add_edge(previous, rid, 1.0)
        previous = rid
    return graph


def graph_state(graph):
    return (
        {
            rid: (r.rect.lo, r.rect.hi, r.dwell_time, r.object_id, r.sources)
            for rid, r in graph._regions.items()
        },
        graph._adj,
    )


class TestGridKernelDifferential:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
    def test_vector_path_equals_the_per_pair_loop(self, seed, dim):
        rng = random.Random(seed)
        t_area = rng.choice([400.0, 2_500.0, 22_500.0])
        got = clustered_graph(rng, dim, rng.randint(260, 900), rng.randint(3, 40))
        want = copy.deepcopy(got)

        want_merges, want_tests = per_pair_grid_merge(want, t_area)
        assert merge_by_density(got, t_area) == want_merges
        assert graph_state(got) == graph_state(want)
        assert got.density_tests == want_tests
        assert got.density_candidate_sets >= want_merges
        # Nothing numpy-typed leaks into what snapshots serialise.
        for rid, r in got._regions.items():
            assert type(rid) is int and type(r.dwell_time) is float
            assert all(type(c) is float for c in (*r.rect.lo, *r.rect.hi))
            assert all(type(s) is int for s in r.sources)
        for rid, nbrs in got._adj.items():
            assert type(rid) is int and all(type(n) is int for n in nbrs)

    def test_differential_graphs_do_merge(self):
        """Guard against a vacuous differential: the generator's graphs
        collapse substantially, so the merge branch is what gets compared."""
        graph = clustered_graph(random.Random(3), 2, 600, 12)
        merges = merge_by_density(graph, 22_500.0)
        assert merges > 200
        assert graph.density_candidate_sets > merges

    def test_small_graphs_take_the_exhaustive_path(self):
        graph = clustered_graph(random.Random(4), 2, 200, 6)
        assert merge_by_density(graph, 22_500.0) > 0
        assert graph.density_tests == 0 and graph.density_candidate_sets == 0

    def test_empty_graph_on_the_grid_path(self):
        assert merge_by_density(UpdateGraph(), 22_500.0, exhaustive=False) == 0


class TestBuildUpdateGraph:
    def test_full_phase2(self):
        per_object = [
            [region(0, 0, 10, 10, 400, oid=1, order=0), region(100, 100, 110, 110, 400, oid=1, order=1)],
            [region(1, 1, 11, 11, 400, oid=2, order=0), region(100, 100, 110, 110, 400, oid=2, order=1)],
        ]
        graph = build_update_graph(per_object, t_area=22500, t_max=1000.0)
        # Coincident home/work regions merge across objects.
        assert graph.region_count == 2
        (edge,) = list(graph.edges())
        # Two transitions, scaled by t_max.
        assert edge[2] == pytest.approx(2.0 / 1000.0)

    def test_zero_t_max_skips_scaling(self):
        per_object = [[region(0, 0, 1, 1, 400, order=0), region(5, 5, 6, 6, 400, order=1)]]
        graph = build_update_graph(per_object, t_area=22500, t_max=0.0)
        (edge,) = list(graph.edges())
        assert edge[2] == 1.0

    def test_no_regions(self):
        graph = build_update_graph([[], []], t_area=22500, t_max=100.0)
        assert graph.region_count == 0
