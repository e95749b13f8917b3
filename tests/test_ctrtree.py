"""Unit tests for the CT-R-tree structure and dynamic operations (Section 3)."""

import pytest

from repro.core.ctrtree import CTRTree, infinite_rect
from repro.core.geometry import Rect
from repro.core.overflow import OWNER_QS, DataPage, NodeBuffer
from repro.core.params import CTParams
from repro.storage.pager import Pager
from tests.conftest import (
    assert_verified,
    brute_force_range,
    random_points,
    random_query,
)

DOMAIN = Rect((0, 0), (1000, 1000))


def grid_regions(nx=4, ny=4, side=60.0, pitch=250.0):
    return [
        Rect((i * pitch, j * pitch), (i * pitch + side, j * pitch + side))
        for i in range(nx)
        for j in range(ny)
    ]


@pytest.fixture
def tree(pager):
    return CTRTree(pager, DOMAIN, grid_regions(), max_entries=8)


class TestConstruction:
    def test_empty_tree(self, pager):
        tree = CTRTree(pager, DOMAIN)
        assert len(tree) == 0
        assert tree.region_count == 0
        assert tree.range_search(DOMAIN) == []

    def test_regions_become_permanent_leaf_entries(self, tree):
        assert tree.region_count == 16
        assert_verified(tree)

    def test_structural_splits_during_construction(self, pager):
        tree = CTRTree(pager, DOMAIN, grid_regions(6, 6, side=40, pitch=160), max_entries=4)
        assert tree.region_count == 36
        assert tree.height >= 2
        assert_verified(tree)

    def test_rejects_small_fanout(self, pager):
        with pytest.raises(ValueError):
            CTRTree(pager, DOMAIN, max_entries=2)

    def test_rejects_unknown_split(self, pager):
        with pytest.raises(ValueError):
            CTRTree(pager, DOMAIN, split="bogus")

    def test_accepts_qsregion_objects(self, pager):
        from repro.core.qsregion import QSRegion

        regions = [QSRegion(rect=Rect((0, 0), (10, 10)), dwell_time=500.0)]
        tree = CTRTree(pager, DOMAIN, regions)
        assert tree.region_count == 1

    def test_infinite_rect_contains_everything(self):
        inf = infinite_rect(2)
        assert inf.contains_point((1e300, -1e300))

    def test_ct_tree_repr(self):
        tree = CTRTree(Pager(), DOMAIN, [Rect((0, 0), (10, 10))])
        text = repr(tree)
        assert "regions=1" in text and "size=0" in text


class TestInsert:
    def test_insert_into_containing_region(self, tree, pager):
        pid = tree.insert(1, (30.0, 30.0))  # inside region (0,0)-(60,60)
        page = pager.inspect(pid)
        assert isinstance(page, DataPage)
        assert page.owner[0] == OWNER_QS
        assert page.tolerance.contains_point((30.0, 30.0))
        assert tree.hash.peek(1) == pid

    def test_insert_chooses_min_area_region(self, pager):
        big = Rect((0, 0), (100, 100))
        small = Rect((40, 40), (60, 60))
        tree = CTRTree(pager, DOMAIN, [big, small])
        pid = tree.insert(1, (50.0, 50.0))
        page = pager.inspect(pid)
        assert page.tolerance == small

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_area_ties_go_to_the_first_region_located(self, dim):
        """Twelve identical regions over three levels: the point's region is
        the first one the depth-first locate reaches (last child first,
        leaf entries in order), region 4 -- as it always was."""
        rect = Rect((0.0,) * dim, (10.0,) * dim)
        domain = Rect((-100.0,) * dim, (100.0,) * dim)
        tree = CTRTree(Pager(), domain, [rect] * 12, max_entries=4)
        assert tree.height == 3
        first = next(qs.region_id for _, qs in tree.iter_qs_entries())
        for oid in range(3):
            pid = tree.insert(oid, (5.0,) * dim)
            assert tree.pager.inspect(pid).owner[2] == first == 4

    def test_insert_outside_regions_goes_to_buffer(self, tree, pager):
        pid = tree.insert(1, (130.0, 130.0))  # in the gap between regions
        page = pager.inspect(pid)
        assert isinstance(page, DataPage)
        assert page.owner[0] == "list"
        assert tree.buffered_object_count() == 1

    def test_insert_outside_domain_lands_in_root_buffer(self, tree):
        tree.insert(1, (-500.0, -500.0))
        assert tree.buffered_object_count() == 1
        assert tree.search_point((-500.0, -500.0)) == [1]

    def test_chain_grows_without_splitting(self, pager):
        region = Rect((0, 0), (100, 100))
        tree = CTRTree(pager, DOMAIN, [region], max_entries=4)
        for i in range(50):  # 50 objects >> page capacity 4
            tree.insert(i, (50.0 + (i % 5) * 0.1, 50.0))
        assert tree.region_count == 1  # never split
        (_, qs), = list(tree.iter_qs_entries())
        assert len(qs.chain) >= 13
        assert_verified(tree)

    def test_first_non_full_page_reused(self, tree, pager):
        pid_a = tree.insert(1, (30.0, 30.0))
        pid_b = tree.insert(2, (31.0, 30.0))
        assert pid_a == pid_b  # same page until full


class TestDelete:
    def test_delete_from_region(self, tree):
        tree.insert(1, (30.0, 30.0))
        assert tree.delete(1)
        assert len(tree) == 0
        assert tree.hash.peek(1) is None
        assert tree.search_point((30.0, 30.0)) == []

    def test_delete_missing(self, tree):
        assert not tree.delete(5)

    def test_empty_page_deallocated(self, tree, pager):
        pid = tree.insert(1, (30.0, 30.0))
        tree.delete(1)
        assert not pager.contains(pid)
        assert_verified(tree)

    def test_region_survives_emptying(self, tree):
        """Paper: qs-regions "are never removed from the index (i.e. they are
        allowed to be underfull)"."""
        tree.insert(1, (30.0, 30.0))
        tree.delete(1)
        assert tree.region_count == 16

    def test_delete_from_buffer(self, tree):
        tree.insert(1, (130.0, 130.0))
        assert tree.delete(1)
        assert tree.buffered_object_count() == 0
        assert_verified(tree)


class TestUpdate:
    def test_in_region_update_is_lazy(self, tree, pager):
        tree.insert(1, (30.0, 30.0))
        reads, writes = pager.stats.reads(), pager.stats.writes()
        pid = tree.update(1, (30.0, 30.0), (35.0, 35.0))
        # 1 hash read + 1 page read + 1 page write: the constant-I/O path.
        assert pager.stats.reads() - reads == 2
        assert pager.stats.writes() - writes == 1
        assert tree.lazy_hits == 1
        assert tree.search_point((35.0, 35.0)) == [1]

    def test_cross_region_update_relocates(self, tree):
        tree.insert(1, (30.0, 30.0))
        tree.update(1, (30.0, 30.0), (280.0, 30.0))  # region (250..310, 0..60)
        assert tree.relocations == 1
        assert tree.search_point((280.0, 30.0)) == [1]
        assert tree.search_point((30.0, 30.0)) == []
        assert_verified(tree)

    def test_region_to_buffer_update(self, tree):
        tree.insert(1, (30.0, 30.0))
        tree.update(1, (30.0, 30.0), (130.0, 130.0))
        assert tree.buffered_object_count() == 1
        assert_verified(tree)

    def test_buffer_to_region_update(self, tree):
        tree.insert(1, (130.0, 130.0))
        tree.update(1, (130.0, 130.0), (30.0, 30.0))
        assert tree.buffered_object_count() == 0
        assert tree.search_point((30.0, 30.0)) == [1]

    def test_buffer_resident_update_always_relocates(self, tree):
        """List buffers carry no MBR, so there is no lazy path for them."""
        tree.insert(1, (130.0, 130.0))
        tree.update(1, (130.0, 130.0), (131.0, 130.0))
        assert tree.lazy_hits == 0
        assert tree.relocations == 1

    def test_update_missing_raises(self, tree):
        with pytest.raises(KeyError):
            tree.update(9, (0, 0), (1, 1))

    def test_many_updates_stay_consistent(self, tree, rng):
        points = {}
        for oid in range(60):
            point = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            tree.insert(oid, point)
            points[oid] = point
        for _ in range(600):
            oid = rng.randrange(60)
            new = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            tree.update(oid, points[oid], new)
            points[oid] = new
        assert_verified(tree)
        for _ in range(25):
            query = random_query(rng, span=1000)
            got = sorted(oid for oid, _ in tree.range_search(query))
            assert got == brute_force_range(points, query)


class TestSearch:
    def test_point_and_range_search(self, tree, rng):
        points = {}
        for oid in range(80):
            point = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            tree.insert(oid, point)
            points[oid] = point
        for _ in range(40):
            query = random_query(rng, span=1000)
            got = sorted(oid for oid, _ in tree.range_search(query))
            assert got == brute_force_range(points, query)

    def test_query_reads_all_chain_pages_of_hit_regions(self, pager):
        region = Rect((0, 0), (100, 100))
        tree = CTRTree(pager, DOMAIN, [region], max_entries=4)
        for i in range(20):  # 5 chain pages
            tree.insert(i, (50.0, 50.0))
        reads_before = pager.stats.reads()
        tree.range_search(Rect((40, 40), (60, 60)))
        # root + 5 chain pages.
        assert pager.stats.reads() - reads_before == 6

    def test_query_missing_region_reads_no_chain(self, pager):
        region = Rect((0, 0), (100, 100))
        tree = CTRTree(pager, DOMAIN, [region], max_entries=4)
        for i in range(20):
            tree.insert(i, (50.0, 50.0))
        reads_before = pager.stats.reads()
        tree.range_search(Rect((500, 500), (600, 600)))
        assert pager.stats.reads() - reads_before == 1  # just the root

    def test_search_includes_buffers_at_every_visited_node(self, tree):
        tree.insert(1, (130.0, 130.0))  # buffered
        tree.insert(2, (30.0, 30.0))  # in region
        got = sorted(oid for oid, _ in tree.range_search(Rect((0, 0), (200, 200))))
        assert got == [1, 2]


class TestBufferConversion:
    def test_list_converts_to_alpha_tree(self, pager):
        params = CTParams(t_list=2)
        tree = CTRTree(pager, DOMAIN, grid_regions(), max_entries=4, ct_params=params)
        # 2 pages x 4 records fill the list; the 9th insert converts.
        for i in range(12):
            tree.insert(i, (130.0 + i * 0.5, 130.0))
        converted = [
            node for node in tree.iter_nodes() if node.buffer.kind == NodeBuffer.KIND_TREE
        ]
        assert len(converted) == 1
        assert len(tree._buffer_trees[converted[0].pid]) == 12
        assert_verified(tree)

    def test_non_adaptive_tree_keeps_lists(self, pager):
        params = CTParams(t_list=1)
        tree = CTRTree(
            pager, DOMAIN, grid_regions(), max_entries=4, ct_params=params, adaptive=False
        )
        for i in range(30):
            tree.insert(i, (130.0 + i * 0.5, 130.0))
        assert all(
            node.buffer.kind == NodeBuffer.KIND_LIST for node in tree.iter_nodes()
        )
        assert_verified(tree)

    def test_hash_pointers_follow_conversion(self, pager):
        params = CTParams(t_list=1)
        tree = CTRTree(pager, DOMAIN, grid_regions(), max_entries=4, ct_params=params)
        for i in range(10):
            tree.insert(i, (130.0 + i * 0.5, 130.0))
        assert_verified(tree)  # includes hash-exactness checks

    def test_tree_buffer_supports_lazy_updates(self, pager):
        params = CTParams(t_list=1)
        tree = CTRTree(pager, DOMAIN, grid_regions(), max_entries=4, ct_params=params)
        for i in range(10):
            tree.insert(i, (130.0 + i * 0.3, 130.0))
        lazy_before = tree.lazy_hits
        tree.update(0, (130.0, 130.0), (130.1, 130.0))
        assert tree.lazy_hits == lazy_before + 1

    def test_buffered_queries_after_conversion(self, pager, rng):
        params = CTParams(t_list=1)
        tree = CTRTree(pager, DOMAIN, grid_regions(), max_entries=4, ct_params=params)
        points = {}
        for oid in range(40):
            point = (rng.uniform(100, 200), rng.uniform(100, 200))  # gap area
            tree.insert(oid, point)
            points[oid] = point
        for _ in range(20):
            query = random_query(rng, span=300)
            got = sorted(oid for oid, _ in tree.range_search(query))
            assert got == brute_force_range(points, query)


class TestMixedLifecycle:
    def test_interleaved_everything(self, tree, rng):
        points = {}
        next_id = 0
        for step in range(1500):
            action = rng.random()
            if action < 0.3 or not points:
                point = (rng.uniform(0, 1000), rng.uniform(0, 1000))
                tree.insert(next_id, point, now=float(step))
                points[next_id] = point
                next_id += 1
            elif action < 0.8:
                oid = rng.choice(list(points))
                old = points[oid]
                new = (
                    min(max(old[0] + rng.gauss(0, 10), 0), 1000),
                    min(max(old[1] + rng.gauss(0, 10), 0), 1000),
                )
                tree.update(oid, old, new, now=float(step))
                points[oid] = new
            else:
                oid = rng.choice(list(points))
                assert tree.delete(oid, now=float(step))
                del points[oid]
        assert_verified(tree)
        assert len(tree) == len(points)
        got = sorted(oid for oid, _ in tree.range_search(Rect((0, 0), (1000, 1000))))
        assert got == sorted(points)
