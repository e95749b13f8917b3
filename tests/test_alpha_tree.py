"""Unit tests for the alpha-tree (loose MBRs, Section 2.2)."""

import pytest

from repro.rtree import AlphaTree, LazyRTree
from repro.storage.pager import Pager
from tests.conftest import (
    assert_verified,
    brute_force_range,
    random_points,
    random_query,
)


@pytest.fixture
def tree(pager):
    return AlphaTree(pager, max_entries=8)


class TestConstruction:
    def test_default_alpha_is_papers(self, tree):
        assert tree.alpha == 0.1

    def test_rejects_zero_alpha(self, pager):
        with pytest.raises(ValueError):
            AlphaTree(pager, alpha=0.0)


class TestLooseMBRs:
    def test_expansion_overshoots_minimum(self, pager):
        tree = AlphaTree(pager, max_entries=8, alpha=0.5)
        tree.insert(0, (0.0, 0.0))
        tree.insert(1, (10.0, 10.0))  # forces an expansion
        (leaf,) = list(tree.tree.iter_leaves())
        tight = leaf.tight_mbr()
        assert leaf.mbr.contains_rect(tight)
        assert leaf.mbr.area > tight.area

    def test_more_tolerant_than_lazy(self, rng):
        """The whole point: alpha buys extra lazy hits on the same workload."""
        points = random_points(rng, 150)
        moves = []
        state = dict(points)
        for _ in range(1500):
            oid = rng.randrange(150)
            new = (
                min(max(state[oid][0] + rng.gauss(0, 2), 0), 100),
                min(max(state[oid][1] + rng.gauss(0, 2), 0), 100),
            )
            moves.append((oid, state[oid], new))
            state[oid] = new

        def run(cls):
            tree = cls(Pager(), max_entries=8)
            for oid, point in points.items():
                tree.insert(oid, point)
            for oid, old, new in moves:
                tree.update(oid, old, new)
            return tree

        lazy = run(LazyRTree)
        alpha = run(AlphaTree)
        assert alpha.lazy_hits > lazy.lazy_hits

    def test_queries_correct_despite_loose_mbrs(self, tree, rng):
        points = random_points(rng, 150)
        for oid, point in points.items():
            tree.insert(oid, point)
        for _ in range(600):
            oid = rng.randrange(150)
            new = (rng.uniform(0, 100), rng.uniform(0, 100))
            tree.update(oid, points[oid], new)
            points[oid] = new
        assert_verified(tree)
        for _ in range(25):
            query = random_query(rng)
            got = sorted(oid for oid, _ in tree.range_search(query))
            assert got == brute_force_range(points, query)

    def test_split_retightens_mbrs(self, pager):
        tree = AlphaTree(pager, max_entries=4, alpha=1.0)
        for i in range(40):
            tree.insert(i, (float(i), float(i)))
        # After splits the invariant still holds: entries within node MBRs.
        assert_verified(tree)


class TestLifecycle:
    def test_full_mixed_workload(self, tree, rng):
        points = random_points(rng, 100)
        for oid, point in points.items():
            tree.insert(oid, point)
        for oid in list(points)[::4]:
            assert tree.delete(oid)
            del points[oid]
        for _ in range(300):
            oid = rng.choice(list(points))
            new = (rng.uniform(0, 100), rng.uniform(0, 100))
            tree.update(oid, points[oid], new)
            points[oid] = new
        assert_verified(tree)
        got = sorted(oid for oid, _ in tree.tree.iter_objects())
        assert got == sorted(points)
