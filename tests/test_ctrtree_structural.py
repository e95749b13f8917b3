"""Structural edge cases of the CT-R-tree: splits with live buffers,
region bookkeeping, owner metadata."""

import pytest

from repro.core.ctrtree import CTNode, CTRTree
from repro.core.geometry import Rect
from repro.core.overflow import OWNER_QS, DataPage, NodeBuffer
from repro.core.params import CTParams
from repro.storage.pager import Pager
from tests.conftest import assert_verified

DOMAIN = Rect((0, 0), (1000, 1000))


class TestStructuralSplitWithBuffers:
    def test_split_rehomes_list_buffer_residents(self, rng):
        """Adding qs-regions (as Appendix-A promotion does) can split a
        structural node whose buffer holds objects; every resident must stay
        indexed and findable."""
        tree = CTRTree(
            Pager(), DOMAIN, [Rect((0, 0), (60, 60))], max_entries=4,
            ct_params=CTParams(t_list=8),
        )
        # Load stray objects into node buffers.
        points = {}
        for oid in range(25):
            point = (rng.uniform(100, 900), rng.uniform(100, 900))
            tree.insert(oid, point)
            points[oid] = point
        assert tree.buffered_object_count() == 25
        # Force structural splits by adding many regions (fan-out 4).
        for i in range(12):
            tree.add_qs_region(Rect((i * 70.0, 900), (i * 70.0 + 50, 950)))
        assert tree.height >= 2
        assert_verified(tree)
        got = sorted(oid for oid, _ in tree.range_search(DOMAIN))
        assert got == sorted(points)

    def test_split_rehomes_tree_buffer_residents(self, rng):
        tree = CTRTree(
            Pager(), DOMAIN, [Rect((0, 0), (60, 60))], max_entries=4,
            ct_params=CTParams(t_list=1),
        )
        cluster = [(500.0 + (i % 3), 500.0 + (i % 5)) for i in range(30)]
        for oid, point in enumerate(cluster):
            tree.insert(oid, point)
        has_tree_buffer = any(
            node.buffer.kind == NodeBuffer.KIND_TREE for node in tree.iter_nodes()
        )
        assert has_tree_buffer
        for i in range(12):
            tree.add_qs_region(Rect((i * 70.0, 900), (i * 70.0 + 50, 950)))
        assert_verified(tree)
        assert len(tree) == 30

    def test_split_moves_chain_ownership(self, rng):
        """When qs-entries redistribute between split leaves, their chain
        pages' owner tags must follow."""
        regions = [Rect((i * 80.0, 0), (i * 80.0 + 50, 50)) for i in range(10)]
        tree = CTRTree(Pager(), DOMAIN, regions, max_entries=4)
        for oid in range(60):
            region = regions[oid % 10]
            tree.insert(oid, region.center)
        for _node, qs in tree.iter_qs_entries():
            owner_node = tree.pager.inspect(
                next(
                    n.pid for n in tree.iter_nodes()
                    if n.is_leaf and qs in n.entries
                )
            )
            for pid in qs.chain:
                page = tree.pager.inspect(pid)
                assert isinstance(page, DataPage)
                assert page.owner == (OWNER_QS, owner_node.pid, qs.region_id)
        assert_verified(tree)


class TestNodeHelpers:
    def test_find_qs(self):
        node = CTNode(level=0)
        from repro.core.overflow import QSEntry

        qs = QSEntry(Rect((0, 0), (1, 1)), region_id=7)
        node.entries.append(qs)
        assert node.find_qs(7) is qs
        assert node.find_qs(8) is None

    def test_new_node_has_empty_list_buffer(self):
        node = CTNode(level=2)
        assert node.buffer.kind == NodeBuffer.KIND_LIST
        assert node.buffer.pages == []


class TestRegionGeometryEdgeCases:
    def test_region_on_domain_corner(self):
        tree = CTRTree(Pager(), DOMAIN, [Rect((0, 0), (10, 10))])
        tree.insert(1, (0.0, 0.0))
        assert tree.search_point((0.0, 0.0)) == [1]
        assert tree.buffered_object_count() == 0

    def test_degenerate_region(self):
        """A zero-area qs-region (stationary sensor) is legal."""
        tree = CTRTree(Pager(), DOMAIN, [Rect((5, 5), (5, 5))])
        tree.insert(1, (5.0, 5.0))
        assert tree.buffered_object_count() == 0
        tree.update(1, (5.0, 5.0), (5.0, 5.0))
        assert tree.lazy_hits == 1

    def test_identical_regions(self):
        rect = Rect((10, 10), (20, 20))
        tree = CTRTree(Pager(), DOMAIN, [rect, rect])
        assert tree.region_count == 2
        tree.insert(1, (15.0, 15.0))
        assert tree.search_point((15.0, 15.0)) == [1]
        assert_verified(tree)

    def test_nested_regions_choose_smaller(self, pager):
        outer = Rect((0, 0), (100, 100))
        inner = Rect((40, 40), (60, 60))
        tree = CTRTree(pager, DOMAIN, [outer, inner])
        pid = tree.insert(1, (50.0, 50.0))
        page = pager.inspect(pid)
        assert page.tolerance == inner

    def test_many_overlapping_regions_insert_visits_all_candidates(self, pager):
        rects = [Rect((i * 2.0, 0), (i * 2.0 + 50, 50)) for i in range(10)]
        tree = CTRTree(pager, DOMAIN, rects, max_entries=20)
        reads_before = pager.stats.reads()
        tree.insert(1, (25.0, 25.0))
        # Single structural leaf: one node read + data-page handling.
        assert pager.stats.reads() - reads_before >= 1
        assert_verified(tree)


class TestDeleteEdgeCases:
    def test_delete_twice(self, pager):
        tree = CTRTree(pager, DOMAIN, [Rect((0, 0), (50, 50))])
        tree.insert(1, (10.0, 10.0))
        assert tree.delete(1)
        assert not tree.delete(1)

    def test_update_after_delete_raises(self, pager):
        tree = CTRTree(pager, DOMAIN, [Rect((0, 0), (50, 50))])
        tree.insert(1, (10.0, 10.0))
        tree.delete(1)
        with pytest.raises(KeyError):
            tree.update(1, (10.0, 10.0), (11.0, 11.0))

    def test_chain_page_reclaimed_midchain(self, pager):
        """Deleting all residents of a middle chain page frees exactly it."""
        region = Rect((0, 0), (100, 100))
        tree = CTRTree(pager, DOMAIN, [region], max_entries=4)
        pids = [tree.insert(oid, (50.0, 50.0)) for oid in range(12)]  # 3 pages
        middle_page = pids[4]
        victims = [oid for oid in range(12) if pids[oid] == middle_page]
        for oid in victims:
            tree.delete(oid)
        assert not pager.contains(middle_page)
        (_, qs), = list(tree.iter_qs_entries())
        assert len(qs.chain) == 2
        assert_verified(tree)
