"""Unit tests for the node split policies."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Rect
from repro.rtree.node import Entry, SoAEntries
from repro.rtree.rtree import RTree
from repro.rtree.splits import (
    SPLIT_POLICIES,
    linear_split,
    quadratic_split,
    quadratic_split_columns,
    rstar_split,
)
from repro.storage.pager import Pager

ALL_POLICIES = list(SPLIT_POLICIES.values())


def point_entries(points):
    return [Entry.for_point(p, i) for i, p in enumerate(points)]


def grid_entries(n):
    rng = random.Random(42)
    return point_entries([(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)])


class TestValidation:
    @pytest.mark.parametrize("split", ALL_POLICIES)
    def test_rejects_single_entry(self, split):
        with pytest.raises(ValueError):
            split(point_entries([(0, 0)]), 1)

    @pytest.mark.parametrize("split", ALL_POLICIES)
    def test_rejects_unsatisfiable_min(self, split):
        with pytest.raises(ValueError):
            split(point_entries([(0, 0), (1, 1), (2, 2)]), 2)

    @pytest.mark.parametrize("split", ALL_POLICIES)
    def test_rejects_zero_min(self, split):
        with pytest.raises(ValueError):
            split(point_entries([(0, 0), (1, 1)]), 0)


class TestPartitioning:
    @pytest.mark.parametrize("split", ALL_POLICIES)
    @pytest.mark.parametrize("n,m", [(4, 2), (10, 4), (21, 8), (21, 2)])
    def test_partition_is_complete_and_respects_min(self, split, n, m):
        entries = grid_entries(n)
        a, b = split(entries, m)
        assert len(a) + len(b) == n
        assert len(a) >= m and len(b) >= m
        assert {id(e) for e in a} | {id(e) for e in b} == {id(e) for e in entries}
        assert {id(e) for e in a} & {id(e) for e in b} == set()

    @pytest.mark.parametrize("split", ALL_POLICIES)
    def test_identical_points_still_split(self, split):
        entries = point_entries([(5, 5)] * 10)
        a, b = split(entries, 4)
        assert len(a) >= 4 and len(b) >= 4

    @pytest.mark.parametrize("split", ALL_POLICIES)
    def test_handles_rect_entries(self, split):
        rng = random.Random(7)
        entries = [
            Entry(
                Rect(
                    (rng.uniform(0, 50), rng.uniform(0, 50)),
                    (rng.uniform(50, 100), rng.uniform(50, 100)),
                ),
                i,
            )
            for i in range(12)
        ]
        a, b = split(entries, 4)
        assert len(a) + len(b) == 12


class TestQuality:
    def test_quadratic_separates_two_clusters(self):
        left = point_entries([(x, y) for x in (0, 1, 2) for y in (0, 1, 2)])
        right = [
            Entry.for_point((x + 100.0, y), 100 + i)
            for i, (x, y) in enumerate((x, y) for x in (0, 1, 2) for y in (0, 1, 2))
        ]
        a, b = quadratic_split(left + right, 4)
        sides = [{e.child < 100 for e in group} for group in (a, b)]
        assert sides[0] in ({True}, {False})
        assert sides[1] in ({True}, {False})
        assert sides[0] != sides[1]

    def test_linear_separates_two_clusters(self):
        entries = point_entries([(0, 0), (1, 0), (0, 1), (1, 1)]) + [
            Entry.for_point((x, y), 10 + i)
            for i, (x, y) in enumerate([(100, 0), (101, 0), (100, 1), (101, 1)])
        ]
        a, b = linear_split(entries, 2)
        xs_a = {e.point[0] < 50 for e in a}
        xs_b = {e.point[0] < 50 for e in b}
        assert len(xs_a) == 1 and len(xs_b) == 1 and xs_a != xs_b

    def test_rstar_minimizes_overlap_on_stripes(self):
        # Two horizontal stripes: the best split separates by y with zero overlap.
        bottom = point_entries([(x, 0.0) for x in range(10)])
        top = [Entry.for_point((float(x), 100.0), 100 + x) for x in range(10)]
        a, b = rstar_split(bottom + top, 4)
        mbr_a = Rect.union_all(e.rect for e in a)
        mbr_b = Rect.union_all(e.rect for e in b)
        assert mbr_a.overlap_area(mbr_b) == 0.0


coords = st.floats(min_value=0, max_value=1000, allow_nan=False)


class TestPropertyBased:
    @given(
        st.lists(st.tuples(coords, coords), min_size=8, max_size=30),
        st.sampled_from(sorted(SPLIT_POLICIES)),
    )
    def test_split_never_loses_entries(self, points, policy_name):
        entries = point_entries(points)
        a, b = SPLIT_POLICIES[policy_name](entries, 2)
        assert sorted(e.child for e in a + b) == sorted(e.child for e in entries)

    @given(
        st.lists(st.tuples(coords, coords), min_size=8, max_size=30),
        st.sampled_from(sorted(SPLIT_POLICIES)),
    )
    def test_groups_cover_originals(self, points, policy_name):
        entries = point_entries(points)
        a, b = SPLIT_POLICIES[policy_name](entries, 2)
        for group in (a, b):
            mbr = Rect.union_all(e.rect for e in group)
            for entry in group:
                assert mbr.contains_rect(entry.rect)


def overlapping_entries(n):
    """``n`` copies of one 10x10 box: every pair wastes -100 area."""
    return [Entry(Rect((0, 0), (10, 10)), i) for i in range(n)]


class TestExactPartition:
    """Every policy hands back each input entry exactly once.

    Quadratic PickSeeds used to start its running maximum at -1.0, so when
    every pair's waste was <= -1 (heavily overlapping branch MBRs) both
    seeds stayed entry 0: it landed in both groups and entry 1 was lost.
    """

    @pytest.mark.parametrize("split", ALL_POLICIES)
    @pytest.mark.parametrize(
        "entries",
        [
            overlapping_entries(6),
            overlapping_entries(21),
            [Entry(Rect((i, i), (i + 50.0, i + 50.0)), i) for i in range(9)],
        ],
        ids=["identical-6", "identical-21", "nested-shift"],
    )
    def test_groups_partition_the_input(self, split, entries):
        a, b = split(entries, 2)
        children = sorted(e.child for e in a + b)
        assert children == [e.child for e in entries]
        assert len(a) >= 2 and len(b) >= 2

    def test_quadratic_seeds_from_the_first_pair(self):
        a, b = quadratic_split(overlapping_entries(6), 2)
        assert [e.child for e in a] == [0, 2, 4]
        assert [e.child for e in b] == [1, 3, 5]


def reference_quadratic(entries, min_entries):
    """Guttman's quadratic split as the per-entry ``Rect`` loop ran it,
    with PickSeeds seeded from the first pair: the oracle for the column
    kernel."""
    remaining = list(entries)
    worst = -math.inf
    seed_a, seed_b = 0, 1
    for i in range(len(remaining)):
        rect_i = remaining[i].rect
        for j in range(i + 1, len(remaining)):
            rect_j = remaining[j].rect
            waste = rect_i.union(rect_j).area - rect_i.area - rect_j.area
            if waste > worst:
                worst = waste
                seed_a, seed_b = i, j
    group_a = [remaining[seed_a]]
    group_b = [remaining[seed_b]]
    for index in sorted((seed_a, seed_b), reverse=True):
        remaining.pop(index)
    mbr_a = group_a[0].rect
    mbr_b = group_b[0].rect
    while remaining:
        if len(group_a) + len(remaining) == min_entries:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) == min_entries:
            group_b.extend(remaining)
            break
        best_index = 0
        best_diff = -1.0
        for i, entry in enumerate(remaining):
            d_a = mbr_a.union(entry.rect).area - mbr_a.area
            d_b = mbr_b.union(entry.rect).area - mbr_b.area
            diff = abs(d_a - d_b)
            if diff > best_diff:
                best_diff = diff
                best_index = i
        entry = remaining.pop(best_index)
        d_a = mbr_a.union(entry.rect).area - mbr_a.area
        d_b = mbr_b.union(entry.rect).area - mbr_b.area
        if d_a < d_b or (
            d_a == d_b
            and (mbr_a.area, len(group_a)) <= (mbr_b.area, len(group_b))
        ):
            group_a.append(entry)
            mbr_a = mbr_a.union(entry.rect)
        else:
            group_b.append(entry)
            mbr_b = mbr_b.union(entry.rect)
    return group_a, group_b


def children(group):
    return [e.child for e in group]


_grid = st.integers(0, 6).map(float)
_wide = st.floats(0, 1000, allow_nan=False)

#: Boxes as (x, y, w, h): distinct points, points drawn from a tiny grid
#: (duplicates and equal-area ties), small-integer boxes (ties in every
#: comparison), and wide overlapping boxes of area > 1.
split_boxes = st.one_of(
    st.lists(st.tuples(_wide, _wide, st.just(0.0), st.just(0.0)), min_size=4, max_size=25),
    st.lists(st.tuples(_grid, _grid, st.just(0.0), st.just(0.0)), min_size=4, max_size=25),
    st.lists(st.tuples(_grid, _grid, _grid, _grid), min_size=4, max_size=25),
    st.lists(
        st.tuples(
            st.floats(0, 20, allow_nan=False),
            st.floats(0, 20, allow_nan=False),
            st.floats(1.5, 200, allow_nan=False),
            st.floats(1.5, 200, allow_nan=False),
        ),
        min_size=4,
        max_size=25,
    ),
)


def box_entries(boxes):
    return [Entry(Rect((x, y), (x + w, y + h)), i) for i, (x, y, w, h) in enumerate(boxes)]


class TestQuadraticKernel:
    @settings(max_examples=300, deadline=None)
    @given(split_boxes, st.data())
    def test_matches_per_entry_loop(self, boxes, data):
        entries = box_entries(boxes)
        m = data.draw(st.integers(1, len(entries) // 2))
        want = tuple(map(children, reference_quadratic(entries, m)))
        assert tuple(map(children, quadratic_split(entries, m))) == want

        packed = SoAEntries()
        packed.extend(entries)
        keep, move = quadratic_split_columns(packed.los, packed.his, m)
        assert (keep, move) == want

        # The R-tree's own split of a packed node: the path _split_and_place
        # takes, gathering both groups from the columns by index.
        tree = RTree(Pager())
        tree.min_entries = m
        group_keep, group_move = tree._split_groups(packed)
        assert (group_keep.child_list(), group_move.child_list()) == want
        assert group_keep == [entries[i] for i in keep]
        assert group_move == [entries[i] for i in move]

    def test_generic_dimension_loop_agrees(self):
        rng = random.Random(3)
        entries = [
            Entry(
                Rect(
                    (rng.uniform(0, 9), rng.uniform(0, 9), rng.uniform(0, 9)),
                    (rng.uniform(9, 20), rng.uniform(9, 20), rng.uniform(9, 20)),
                ),
                i,
            )
            for i in range(15)
        ]
        want = tuple(map(children, reference_quadratic(entries, 4)))
        assert tuple(map(children, quadratic_split(entries, 4))) == want
        packed = SoAEntries()
        packed.extend(entries)
        assert quadratic_split_columns(packed.los, packed.his, 4) == want

    def test_root_split_places_the_oracle_groups(self):
        rng = random.Random(11)
        tree = RTree(Pager(), max_entries=8)
        points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(9)]
        for oid, point in enumerate(points):
            tree.insert(oid, point)
        want = reference_quadratic(point_entries(points), tree.min_entries)
        leaves = sorted(
            (leaf.entries.child_list() for leaf in tree.iter_leaves()),
            key=lambda group: group[0],
        )
        assert leaves == sorted(map(children, want), key=lambda group: group[0])
