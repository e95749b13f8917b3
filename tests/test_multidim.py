"""The paper's algorithms "are applicable to the general case of any
multidimensional data" (Section 3.1.1) -- these tests exercise 3-D and 4-D.
"""

import math
import random

import pytest

from repro.core.ctrtree import CTRTree
from repro.core.geometry import Rect
from repro.core.params import CTParams
from repro.core.qsregion import identify_qs_regions
from repro.rtree import LazyRTree, RTree
from repro.storage.pager import Pager
from tests.conftest import assert_verified

DOMAIN_3D = Rect((0, 0, 0), (100, 100, 100))


def random_points_3d(rng, count):
    return {
        oid: (rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100))
        for oid in range(count)
    }


def brute(points, rect):
    return sorted(oid for oid, p in points.items() if rect.contains_point(p))


class TestGeometry3D:
    def test_volume_and_diagonal(self):
        cube = Rect((0, 0, 0), (2, 3, 4))
        assert cube.area == 24.0
        assert cube.diagonal == pytest.approx(math.sqrt(4 + 9 + 16))

    def test_containment_and_intersection(self):
        a = Rect((0, 0, 0), (10, 10, 10))
        b = Rect((5, 5, 5), (15, 15, 15))
        assert a.intersects(b)
        assert a.intersection(b) == Rect((5, 5, 5), (10, 10, 10))
        assert not a.contains_rect(b)

    def test_min_distance_3d(self):
        cube = Rect((0, 0, 0), (10, 10, 10))
        assert cube.min_distance((13, 0, 4)) == 3.0
        assert cube.min_distance((13, 14, 10)) == 5.0


class TestRTree3D:
    def test_insert_query_delete(self, rng):
        pager = Pager()
        tree = RTree(pager, max_entries=6)
        points = random_points_3d(rng, 150)
        for oid, point in points.items():
            tree.insert(oid, point)
        assert_verified(tree)
        for _ in range(25):
            lo = tuple(rng.uniform(0, 60) for _ in range(3))
            hi = tuple(c + rng.uniform(10, 40) for c in lo)
            query = Rect(lo, hi)
            got = sorted(oid for oid, _ in tree.range_search(query))
            assert got == brute(points, query)
        for oid in list(points)[:50]:
            assert tree.delete(oid, points.pop(oid))
        assert_verified(tree)

    def test_knn_3d(self, rng):
        tree = RTree(Pager(), max_entries=6)
        points = random_points_3d(rng, 120)
        for oid, point in points.items():
            tree.insert(oid, point)
        target = (50.0, 50.0, 50.0)
        got = [oid for _, oid, _ in tree.nearest(target, k=5)]
        expected = sorted(points, key=lambda o: math.dist(points[o], target))[:5]
        assert got == expected

    def test_lazy_updates_3d(self, rng):
        tree = LazyRTree(Pager(), max_entries=6)
        points = random_points_3d(rng, 100)
        for oid, point in points.items():
            tree.insert(oid, point)
        for oid, p in list(points.items())[:50]:
            new = (p[0] + 0.5, p[1] + 0.5, p[2] + 0.5)
            tree.update(oid, p, new)
            points[oid] = new
        assert_verified(tree)
        assert tree.lazy_hits > 0


class TestPhase1InHigherDimensions:
    def test_3d_sensor_trail(self):
        """A (temp, pressure, humidity) sensor dwelling at an operating point."""
        rng = random.Random(4)
        trail = []
        t = 0.0
        for _ in range(40):
            t += 20.0
            trail.append(
                ((20 + rng.gauss(0, 0.1), 1000 + rng.gauss(0, 0.3), 50 + rng.gauss(0, 0.5)), t)
            )
        # A step change to a new operating point, then a second dwell.
        for _ in range(40):
            t += 20.0
            trail.append(
                ((35 + rng.gauss(0, 0.1), 980 + rng.gauss(0, 0.3), 30 + rng.gauss(0, 0.5)), t)
            )
        params = CTParams(t_dist=5.0, t_rate=0.1, t_time=300.0, t_area=1000.0)
        regions = identify_qs_regions(trail, params)
        assert len(regions) == 2
        assert all(r.rect.dim == 3 for r in regions)


class TestCTRTree3D:
    def test_full_lifecycle_3d(self, rng):
        regions = [
            Rect((i * 30.0, 0, 0), (i * 30.0 + 20, 20, 20)) for i in range(3)
        ]
        tree = CTRTree(Pager(), DOMAIN_3D, regions, max_entries=5, ct_params=CTParams())
        points = {}
        for oid in range(80):
            if oid % 2:
                region = regions[oid % 3]
                point = tuple(rng.uniform(l, h) for l, h in zip(region.lo, region.hi))
            else:
                point = (rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100))
            tree.insert(oid, point)
            points[oid] = point
        assert_verified(tree)
        for oid in list(points)[:30]:
            new = tuple(min(max(c + rng.gauss(0, 2), 0), 100) for c in points[oid])
            tree.update(oid, points[oid], new)
            points[oid] = new
        assert_verified(tree)
        query = Rect((0, 0, 0), (50, 50, 50))
        got = sorted(oid for oid, _ in tree.range_search(query))
        assert got == brute(points, query)

    def test_knn_3d_matches_brute_force(self, rng):
        tree = CTRTree(Pager(), DOMAIN_3D, [Rect((10, 10, 10), (40, 40, 40))], max_entries=5)
        points = random_points_3d(rng, 60)
        for oid, point in points.items():
            tree.insert(oid, point)
        target = (25.0, 25.0, 25.0)
        got = [oid for _, oid, _ in tree.nearest(target, k=4)]
        expected = sorted(points, key=lambda o: math.dist(points[o], target))[:4]
        assert got == expected


class TestFourDimensions:
    def test_rtree_4d_roundtrip(self, rng):
        tree = RTree(Pager(), max_entries=5)
        points = {
            oid: tuple(rng.uniform(0, 10) for _ in range(4)) for oid in range(60)
        }
        for oid, point in points.items():
            tree.insert(oid, point)
        assert_verified(tree)
        query = Rect((0, 0, 0, 0), (5, 5, 5, 5))
        got = sorted(oid for oid, _ in tree.range_search(query))
        assert got == brute(points, query)
