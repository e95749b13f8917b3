"""``RTree.insert`` (packed point bounds) against the entry-level insert.

``RTree.insert`` descends on ``(p, p)`` tuples and appends straight into the
leaf columns, building an :class:`Entry` only when the leaf overflows and
growing the MBRs only when the point falls outside the leaf's.  The
reference below is the entry-level sequence it replaced: materialize
``Entry.for_point(point, oid)``, descend, append it, then split or reinsert,
or write the leaf and grow the MBRs unconditionally.  Over arbitrary point
sets in one to three dimensions -- signed zeros, integer coordinates,
repeated points and points on MBR edges, loose MBRs and R*-style forced
reinsertion -- both must leave the same pages, charge the same I/O, return
the same leaf ids and report the same moved entries.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtree.node import Entry, SoAEntries
from repro.rtree.rtree import RTree
from repro.storage.pager import Pager
from repro.storage.snapshot import build_document
from tests.conftest import assert_verified

#: A small coordinate alphabet, so points repeat and land on each other's
#: MBR edges; integers exercise the float coercion, -0.0 its sign.
COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 3]),
    st.integers(min_value=-4, max_value=4),
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
)

CONFIGS = st.fixed_dictionaries(
    {
        "max_entries": st.sampled_from([4, 5, 8]),
        "split": st.sampled_from(["quadratic", "linear", "rstar"]),
        "alpha": st.sampled_from([0.0, 0.1]),
        "forced_reinsert": st.sampled_from([0.0, 0.3]),
    }
)


@st.composite
def point_sets(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    point = st.tuples(*[COORDS] * dim)
    return draw(st.lists(point, min_size=1, max_size=60))


def _entry_insert(tree, oid, point):
    """The reference: a point inserted as a materialized leaf entry."""
    tree._reinserted_levels.clear()
    entry = Entry.for_point(tuple(point), oid)
    path = tree._choose_path(entry.rect.lo, entry.rect.hi, 0)
    node = path[-1]
    node.entries.append(entry)
    if len(node.entries) > tree.max_entries:
        pid = tree._overflow(path, entry)
    else:
        tree.pager.write(node)
        tree._grow_mbrs(path, entry.rect)
        pid = node.pid
    tree._size += 1
    return pid


def _replay(config, points, packed):
    pager = Pager()
    reports = []
    tree = RTree(pager, on_entries_moved=reports.append, **config)
    placed = []
    for oid, point in enumerate(points):
        if packed:
            placed.append(tree.insert(oid, point))
        else:
            placed.append(_entry_insert(tree, oid, point))
    snapshot = json.dumps(build_document(tree, kind="rtree"), sort_keys=True)
    return tree, snapshot, pager.stats.to_dict(), placed, reports


@settings(max_examples=150, deadline=None)
@given(config=CONFIGS, points=point_sets())
def test_packed_insert_matches_the_entry_insert(config, points):
    tree, *observed = _replay(config, points, packed=True)
    _reference, *expected = _replay(config, points, packed=False)
    assert observed == expected
    assert_verified(tree)
    assert sorted(tree.iter_objects()) == sorted(
        (oid, tuple(map(float, point))) for oid, point in enumerate(points)
    )


def test_packed_insert_rejects_an_empty_point():
    tree = RTree(Pager())
    with pytest.raises(ValueError, match="at least one dimension"):
        tree.insert(1, ())
    assert len(tree) == 0


class TestDeleteRow:
    def _entries(self):
        entries = SoAEntries()
        for oid, point in enumerate([(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]):
            entries.append_packed(point, point, oid)
        return entries

    def test_removes_the_row_from_every_column(self):
        entries = self._entries()
        entries.delete_row(1)
        assert list(entries.iter_points()) == [(0, (0.0, 1.0)), (2, (4.0, 5.0))]
        assert [list(col) for col in entries.his] == [[0.0, 4.0], [1.0, 5.0]]
        entries.delete_row(-1)
        assert entries.child_list() == [0]

    def test_out_of_range_changes_nothing(self):
        entries = self._entries()
        with pytest.raises(IndexError):
            entries.delete_row(3)
        assert entries.child_list() == [0, 1, 2]
        assert [len(col) for col in entries.los + entries.his] == [3, 3, 3, 3]
