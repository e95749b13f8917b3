"""Property tests for the struct-of-arrays whole-node scans.

The bit-identical contract: every SoA scan must return exactly what a
per-entry loop over ``Rect`` methods returns -- same index sets, same
child ids, same winners, same tie-breaks, same bounding box -- on
*arbitrary* buffers, including NaN coordinates, zero-extent rects, and
rects one ulp away from the query boundary.  Both the pure-Python scan
path (n < NP_SCAN_MIN) and the vectorized path (n >= NP_SCAN_MIN) are
exercised.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import NP_SCAN_MIN, Rect
from repro.rtree.node import Entry, SoAEntries

INF = math.inf

# Coordinates deliberately include NaN, infinities, signed zeros, and
# huge/tiny magnitudes: the contract is agreement, not validity.
coord = st.floats(allow_nan=True, allow_infinity=True, width=64)

# ``Rect._make`` skips the lo<=hi validation the public constructor
# enforces -- node buffers inherit whatever the tree wrote, so the scans
# must agree even on malformed boxes.
raw_rect = st.tuples(coord, coord, coord, coord).map(
    lambda c: Rect._make((c[0], c[1]), (c[2], c[3]))
)


def _child(i):
    """Entry ``i``'s child id: distinct from its index, so a scan that
    returns indices where it owes child ids cannot pass."""
    return 1000 + i


def _pack(rects):
    soa = SoAEntries()
    for i, rect in enumerate(rects):
        soa.append(Entry(rect, _child(i)))
    return soa


def _same_floats(a, b):
    """Element-wise bit equality, NaN matching NaN."""
    return len(a) == len(b) and all(
        x == y or (x != x and y != y) for x, y in zip(a, b)
    )


def _oracle_intersecting(rects, q):
    return [i for i, r in enumerate(rects) if r.intersects(q)]


def _oracle_containing(rects, point):
    return [i for i, r in enumerate(rects) if r.contains_point(point)]


def _oracle_points_in(rects, q):
    """The leaf range scan: a point entry is its rect's ``lo`` corner."""
    return [(_child(i), r.lo) for i, r in enumerate(rects) if q.contains_point(r.lo)]


def _union_bounds(union):
    """``lo + hi`` of the box ``union()`` returns (``None`` for no box), or
    ``ValueError`` when the validating ``Rect`` constructor rejects an
    inverted one."""
    try:
        rect = union()
    except ValueError:
        return ValueError
    return None if rect is None else rect.lo + rect.hi


def _assert_scans_agree(rects, q):
    soa = _pack(rects)
    intersecting = _oracle_intersecting(rects, q)
    containing = _oracle_containing(rects, q.lo)
    assert soa.intersecting_indices(q.lo, q.hi) == intersecting
    assert soa.intersecting_children(q.lo, q.hi) == [_child(i) for i in intersecting]
    assert soa.containing_point_indices(q.lo) == containing
    assert soa.children_containing_point(q.lo) == [_child(i) for i in containing]
    assert soa.points_in(q.lo, q.hi) == _oracle_points_in(rects, q)
    assert soa.choose_subtree(q.lo, q.hi) == _oracle_choose(rects, q)
    union = _union_bounds(soa.union_rect)
    expected = _union_bounds(lambda: Rect.union_all(rects)) if rects else None
    if isinstance(expected, tuple):
        assert _same_floats(union, expected)
    else:
        assert union is expected


def _oracle_choose(rects, q):
    """Guttman's ChooseLeaf as a per-entry loop (first-wins ties)."""
    best = -1
    best_enl = INF
    best_area = INF
    for i, r in enumerate(rects):
        area = r.area
        enl = r.enlargement(q)
        if enl < best_enl or (enl == best_enl and area < best_area):
            best = i
            best_enl = enl
            best_area = area
    return best


@settings(max_examples=120, deadline=None)
@given(st.lists(raw_rect, max_size=30), raw_rect)
def test_scans_agree_on_arbitrary_buffers_small(rects, q):
    _assert_scans_agree(rects, q)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(raw_rect, min_size=NP_SCAN_MIN, max_size=NP_SCAN_MIN + 80),
    raw_rect,
)
def test_scans_agree_on_arbitrary_buffers_vectorized(rects, q):
    _assert_scans_agree(rects, q)


# -- deterministic edge cases ------------------------------------------------


def _sizes():
    # One size per scan path: pure-Python and vectorized.
    return (8, NP_SCAN_MIN + 8)


def test_ulp_boundary_rects():
    """A rect one ulp outside the query must not report intersection; a
    rect exactly on the closed boundary must."""
    q = Rect((10.0, 10.0), (20.0, 20.0))
    above = math.nextafter(20.0, INF)
    below = math.nextafter(10.0, -INF)
    for n in _sizes():
        touching = Rect((20.0, 20.0), (25.0, 25.0))  # shares one corner
        off_hi = Rect((above, 20.0), (25.0, 25.0))  # one ulp past hi
        off_lo = Rect((5.0, 5.0), (below, 9.0))  # one ulp short of lo
        filler = [Rect((100.0, 100.0), (101.0, 101.0))] * (n - 3)
        rects = [touching, off_hi, off_lo] + filler
        soa = _pack(rects)
        assert soa.intersecting_indices(q.lo, q.hi) == [0]
        assert _oracle_intersecting(rects, q) == [0]


def test_zero_extent_rects():
    """Degenerate (point) rects participate in every scan."""
    q = Rect((0.0, 0.0), (10.0, 10.0))
    for n in _sizes():
        inside = Rect((5.0, 5.0), (5.0, 5.0))
        on_edge = Rect((10.0, 10.0), (10.0, 10.0))
        outside = Rect((11.0, 11.0), (11.0, 11.0))
        filler = [Rect((50.0, 50.0), (51.0, 51.0))] * (n - 3)
        rects = [inside, on_edge, outside] + filler
        soa = _pack(rects)
        assert soa.intersecting_indices(q.lo, q.hi) == [0, 1]
        assert soa.containing_point_indices((5.0, 5.0)) == [0]
        assert soa.choose_subtree(q.lo, q.hi) == _oracle_choose(rects, q)


def test_nan_rects_fall_through_identically():
    """NaN coordinates poison comparisons the same way on both paths."""
    nan = float("nan")
    q = Rect((0.0, 0.0), (10.0, 10.0))
    for n in _sizes():
        rects = [
            Rect._make((nan, 1.0), (2.0, 2.0)),
            Rect._make((1.0, 1.0), (nan, 2.0)),
            Rect((1.0, 1.0), (2.0, 2.0)),
        ]
        rects += [Rect._make((nan, nan), (nan, nan))] * (n - 3)
        soa = _pack(rects)
        assert soa.intersecting_indices(q.lo, q.hi) == _oracle_intersecting(
            rects, q
        )
        assert soa.choose_subtree(q.lo, q.hi) == _oracle_choose(rects, q)
        # An all-NaN node picks nobody, exactly like the per-entry loop.
        all_nan = _pack([Rect._make((nan, nan), (nan, nan))] * n)
        assert all_nan.choose_subtree(q.lo, q.hi) == -1


def test_choose_subtree_first_wins_ties():
    """Identical rects: the lowest index must win on both paths."""
    q = Rect((1.0, 1.0), (2.0, 2.0))
    r = Rect((0.0, 0.0), (5.0, 5.0))
    for n in _sizes():
        soa = _pack([r] * n)
        assert soa.choose_subtree(q.lo, q.hi) == 0


# -- kNN distance kernels ----------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    st.lists(raw_rect, max_size=30),
    st.tuples(coord, coord),
)
def test_distance_kernels_match_rect_methods(rects, point):
    """``min_distances`` is ``Rect.min_distance`` and ``point_distances`` is
    ``math.dist`` to the entry's ``lo`` corner, bit for bit -- NaN and
    infinite coordinates included."""
    soa = _pack(rects)
    assert _same_floats(
        soa.min_distances(point), [r.min_distance(point) for r in rects]
    )
    assert _same_floats(
        soa.point_distances(point), [math.dist(point, r.lo) for r in rects]
    )


def test_distance_kernels_on_edge_rects():
    nan = float("nan")
    rects = [
        Rect((5.0, 5.0), (5.0, 5.0)),  # zero extent, query inside
        Rect((13.0, 14.0), (13.0, 14.0)),  # zero extent, off both axes
        Rect((0.0, 0.0), (10.0, 10.0)),  # query on the boundary
        Rect._make((nan, 1.0), (nan, 2.0)),  # NaN x: counts as in range
        Rect._make((nan, nan), (nan, nan)),
    ]
    soa = _pack(rects)
    for point in [(10.0, 5.0), (0.0, 0.0), (nan, 3.0)]:
        assert _same_floats(
            soa.min_distances(point), [r.min_distance(point) for r in rects]
        )
        assert _same_floats(
            soa.point_distances(point), [math.dist(point, r.lo) for r in rects]
        )
    assert _pack(rects).min_distances((10.0, 5.0))[:3] == [5.0, 9.486832980505138, 0.0]


def test_distance_kernels_generic_dimension():
    rects = [
        Rect((0.0, 0.0, 0.0), (1.0, 2.0, 3.0)),
        Rect((4.0, 4.0, 4.0), (4.0, 4.0, 4.0)),
    ]
    point = (2.0, -1.0, 5.0)
    soa = _pack(rects)
    assert soa.min_distances(point) == [r.min_distance(point) for r in rects]
    assert soa.point_distances(point) == [math.dist(point, r.lo) for r in rects]
