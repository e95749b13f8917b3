"""Tests for k-nearest-neighbour search on the R-tree family and CT-R-tree."""

import heapq
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ctrtree import CTRTree
from repro.core.geometry import Rect
from repro.core.params import CTParams
from repro.rtree import AlphaTree, LazyRTree, RTree
from repro.serve import knn_search
from repro.storage.pager import Pager
from tests.conftest import random_points

DOMAIN = Rect((0, 0), (1000, 1000))


def brute_knn(points, target, k):
    ranked = sorted(
        (math.dist(target, p), oid) for oid, p in points.items()
    )
    return [oid for _, oid in ranked[:k]]


class TestRectMinDistance:
    def test_inside_is_zero(self):
        assert Rect((0, 0), (10, 10)).min_distance((5, 5)) == 0.0

    def test_boundary_is_zero(self):
        assert Rect((0, 0), (10, 10)).min_distance((10, 5)) == 0.0

    def test_axis_aligned_outside(self):
        assert Rect((0, 0), (10, 10)).min_distance((15, 5)) == 5.0

    def test_corner_distance(self):
        assert Rect((0, 0), (10, 10)).min_distance((13, 14)) == 5.0

    @given(
        st.floats(-100, 100), st.floats(-100, 100),
        st.floats(-100, 100), st.floats(-100, 100),
    )
    def test_lower_bounds_contained_points(self, x, y, px, py):
        rect = Rect((min(x, px) - 1, min(y, py) - 1), (max(x, px) + 1, max(y, py) + 1))
        assert rect.min_distance((x, y)) == 0.0


class TestRTreeNearest:
    def test_rejects_bad_k(self, pager):
        tree = RTree(pager)
        with pytest.raises(ValueError):
            tree.nearest((0, 0), k=0)

    def test_empty_tree(self, pager):
        tree = RTree(pager)
        assert tree.nearest((0, 0), k=3) == []

    def test_single_object(self, pager):
        tree = RTree(pager)
        tree.insert(1, (3.0, 4.0))
        ((dist, oid, point),) = tree.nearest((0.0, 0.0))
        assert (dist, oid, point) == (5.0, 1, (3.0, 4.0))

    def test_k_larger_than_population(self, pager):
        tree = RTree(pager)
        tree.insert(1, (1, 1))
        tree.insert(2, (2, 2))
        assert len(tree.nearest((0, 0), k=10)) == 2

    @pytest.mark.parametrize("cls", [RTree, LazyRTree, AlphaTree])
    def test_matches_brute_force(self, cls, rng):
        tree = cls(Pager(), max_entries=6)
        points = random_points(rng, 200)
        for oid, point in points.items():
            tree.insert(oid, point)
        inner = tree.tree if hasattr(tree, "tree") else tree
        for _ in range(25):
            target = (rng.uniform(0, 100), rng.uniform(0, 100))
            k = rng.randint(1, 10)
            got = [oid for _, oid, _ in inner.nearest(target, k)]
            assert got == brute_knn(points, target, k)

    def test_results_sorted_by_distance(self, pager, rng):
        tree = RTree(pager, max_entries=6)
        points = random_points(rng, 100)
        for oid, point in points.items():
            tree.insert(oid, point)
        distances = [d for d, _, _ in tree.nearest((50, 50), k=20)]
        assert distances == sorted(distances)

    def test_prunes_far_subtrees(self, pager, rng):
        """Best-first must not read the whole tree for k=1."""
        tree = RTree(pager, max_entries=6)
        for oid, point in random_points(rng, 300).items():
            tree.insert(oid, point)
        reads_before = pager.stats.reads()
        tree.nearest((50.0, 50.0), k=1)
        reads = pager.stats.reads() - reads_before
        assert reads < tree.node_count() / 2


class TestCTRTreeNearest:
    def make_tree(self, rng, n=150, with_buffers=True):
        regions = [
            Rect((i * 220.0, j * 220.0), (i * 220.0 + 100, j * 220.0 + 100))
            for i in range(4)
            for j in range(4)
        ]
        tree = CTRTree(
            Pager(), DOMAIN, regions, max_entries=6, ct_params=CTParams(t_list=2)
        )
        points = {}
        for oid in range(n):
            if with_buffers and oid % 4 == 0:
                point = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            else:
                region = regions[oid % len(regions)]
                point = (
                    rng.uniform(region.lo[0], region.hi[0]),
                    rng.uniform(region.lo[1], region.hi[1]),
                )
            tree.insert(oid, point)
            points[oid] = point
        return tree, points

    def test_rejects_bad_k(self, rng):
        tree, _ = self.make_tree(rng, n=5)
        with pytest.raises(ValueError):
            tree.nearest((0, 0), k=0)

    def test_matches_brute_force(self, rng):
        tree, points = self.make_tree(rng)
        for _ in range(25):
            target = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            k = rng.randint(1, 12)
            got = [oid for _, oid, _ in tree.nearest(target, k)]
            assert got == brute_knn(points, target, k)

    def test_finds_buffer_residents(self, rng):
        tree, points = self.make_tree(rng)
        assert tree.buffered_object_count() > 0
        # The nearest object to every buffered object's own location is itself.
        from repro.core.overflow import DataPage, OWNER_LIST

        for oid, point in points.items():
            page = tree.pager.inspect(tree.hash.peek(oid))
            if isinstance(page, DataPage) and page.owner[0] == OWNER_LIST:
                (_, found, _), *_rest = tree.nearest(point, k=1)
                assert math.dist(points[found], point) <= 1e-9
                break

    def test_empty_tree(self):
        tree = CTRTree(Pager(), DOMAIN)
        assert tree.nearest((5, 5), k=2) == []

    def test_after_updates(self, rng):
        tree, points = self.make_tree(rng, n=80)
        for _ in range(200):
            oid = rng.randrange(80)
            new = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            tree.update(oid, points[oid], new)
            points[oid] = new
        for _ in range(10):
            target = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            got = [oid for _, oid, _ in tree.nearest(target, k=5)]
            assert got == brute_knn(points, target, 5)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 1000, allow_nan=False), st.floats(0, 1000, allow_nan=False)),
        min_size=1,
        max_size=80,
    ),
    st.integers(1, 8),
    st.integers(0, 2**16),
)
def test_property_ct_knn_matches_rtree_knn(coords, k, seed):
    rng = random.Random(seed)
    regions = [Rect((200, 200), (500, 500)), Rect((600, 100), (800, 400))]
    ct = CTRTree(Pager(), DOMAIN, regions, max_entries=5)
    rt = RTree(Pager(), max_entries=5)
    points = {}
    for oid, point in enumerate(coords):
        ct.insert(oid, point)
        rt.insert(oid, point)
        points[oid] = point
    target = (rng.uniform(0, 1000), rng.uniform(0, 1000))
    ct_dists = [round(d, 9) for d, _, _ in ct.nearest(target, k)]
    rt_dists = [round(d, 9) for d, _, _ in rt.nearest(target, k)]
    assert ct_dists == rt_dists


def unpruned_nearest(tree, point, k):
    """Best-first kNN that queues every entry of every visited node, as
    ``RTree.nearest`` did before it pruned against the k-th distance: the
    oracle for results *and* for the order pages are read in."""
    target = tuple(point)
    heap = [(0.0, 0, tree.root_pid, None)]
    counter = 1
    results = []
    while heap and len(results) < k:
        distance, _tie, ident, payload = heapq.heappop(heap)
        if payload is not None:
            results.append((distance, ident, payload))
            continue
        node = tree.pager.read(ident)
        if node.is_leaf:
            for entry in node.entries:
                point_ = entry.rect.lo
                heapq.heappush(heap, (math.dist(target, point_), counter, entry.child, point_))
                counter += 1
        else:
            for entry in node.entries:
                heapq.heappush(heap, (entry.rect.min_distance(target), counter, entry.child, None))
                counter += 1
    return results


def logged_reads(pager):
    """Record every charged page read of ``pager`` (instance-level patch)."""
    log = []
    read = pager.read

    def logging_read(pid):
        log.append(pid)
        return read(pid)

    pager.read = logging_read
    return log


def loaded_index(cls, rng, n, duplicates=False):
    index = cls(Pager(), max_entries=8)
    points = {}
    for oid in range(n):
        if duplicates and oid % 3:
            point = points[oid - oid % 3]
        else:
            point = (rng.uniform(0, 100), rng.uniform(0, 100))
        index.insert(oid, point)
        points[oid] = point
    if cls is not RTree:
        # Moves that escape their leaf relocate; the lazy family never
        # shrinks the MBRs they leave behind.
        for _ in range(3 * n):
            oid = rng.randrange(n)
            new = (
                min(100.0, max(0.0, points[oid][0] + rng.uniform(-15, 15))),
                min(100.0, max(0.0, points[oid][1] + rng.uniform(-15, 15))),
            )
            index.update(oid, points[oid], new)
            points[oid] = new
    return index, points


class TestPrunedBestFirst:
    """Pruning against the k-th distance changes neither the answer nor a
    single page read."""

    @pytest.mark.parametrize("cls", [RTree, LazyRTree, AlphaTree])
    @pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "duplicates"])
    def test_matches_unpruned_oracle(self, cls, duplicates, rng):
        index, points = loaded_index(cls, rng, 250, duplicates)
        tree = index if cls is RTree else index.tree
        log = logged_reads(tree.pager)
        targets = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(10)]
        targets += [(-50.0, -50.0), (150.0, 40.0), (50.0, 1e6), (-1e-9, 100.0)]
        for target in targets:
            for k in (1, 10, 50):
                del log[:]
                want = unpruned_nearest(tree, target, k)
                want_reads = list(log)
                del log[:]
                got = index.nearest(target, k)
                assert got == want
                assert log == want_reads
                assert [d for d, _, _ in got] == sorted(
                    math.dist(target, p) for p in points.values()
                )[:k]

    @pytest.mark.parametrize("cls", [RTree, LazyRTree, AlphaTree])
    def test_empty_index(self, cls):
        index = cls(Pager())
        assert index.nearest((5.0, 5.0), k=10) == []

    def test_k_beyond_population_returns_everything(self, rng):
        index, points = loaded_index(LazyRTree, rng, 30)
        got = index.nearest((50.0, 50.0), k=50)
        assert sorted(oid for _, oid, _ in got) == sorted(points)
        assert got == unpruned_nearest(index.tree, (50.0, 50.0), 50)

    def test_lazy_knn_search_uses_best_first(self, rng):
        index, points = loaded_index(LazyRTree, rng, 200)
        calls = []
        index.range_search = lambda rect: calls.append(rect) or []
        found = knn_search(index, (42.0, 17.0), 10, Rect((0, 0), (100, 100)))
        assert calls == []
        assert [oid for _, oid, _ in found] == brute_knn(points, (42.0, 17.0), 10)
