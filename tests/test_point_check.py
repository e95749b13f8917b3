"""A point no tree can hold is refused where it enters, before any page.

Every cell inserts or moves one object to a point with a coordinate that is
not a finite float, or with too many or too few coordinates, and asserts
that ``ValueError`` is raised with the index exactly as it was: the same
size, the same answers and a clean ``verify_index``.  The R-tree family
refuses on entry, so its I/O ledger is unchanged too.  The CT-R-tree checks
a move only where it would leave its page, so a refused move costs the
lookup's reads (hash bucket and data page) and writes nothing.

The plain R-tree once deleted the object before its re-insertion failed
(NaN, ``10**400``, a point of the wrong dimension) and accepted
infinities; the CT-R-tree took a moving object out of its page first and
counted a refused insert, and on a 3-D tree took a 2-D move for a lazy hit.
"""

import math
import random

import pytest

from repro.core.ctrtree import CTRTree
from repro.core.geometry import Rect, check_point, finite
from repro.core.overflow import DataPage
from repro.core.params import CTParams
from repro.engine import make_index
from repro.health import verify_index
from repro.storage.pager import Pager

HUGE = 10**400
KINDS = ["rtree", "lazy", "alpha", "ct"]

BAD_POINTS = {
    "nan": (50.0, math.nan),
    "inf": (math.inf, 50.0),
    "-inf": (50.0, -math.inf),
    "1e400": (HUGE, 50.0),
    "1e400-cancelling": (HUGE, -HUGE),  # sums to 0
}

WRONG_DIMENSION = {
    "3-D": (50.0, 50.0, 50.0),
    "1-D": (50.0,),
}


def _box(dim, lo, hi):
    return Rect((lo,) * dim, (hi,) * dim)


def _index(kind, dim):
    rng = random.Random(3)
    domain = _box(dim, 0.0, 100.0)
    if kind == "ct":
        # Two qs-regions over half the domain; ``t_list=1`` turns the
        # overflow buffers into alpha-trees, so objects live in region
        # chains and in buffer trees.
        index = CTRTree(
            Pager(),
            domain,
            [_box(dim, 0.0, 50.0), _box(dim, 50.0, 100.0)],
            max_entries=5,
            ct_params=CTParams(t_list=1),
        )
    else:
        index = make_index(kind, Pager(), domain, max_entries=5)
    points = {}
    for oid in range(60):
        points[oid] = tuple(rng.uniform(0, 100) for _ in range(dim))
        index.insert(oid, points[oid], now=float(oid))
    return index, points


def _movers(index):
    """The objects each update cell moves: object 7 in the R-tree family;
    in the CT-R-tree one region-chain and one buffer-tree resident, so
    both relocating branches of ``update`` are refused."""
    if not isinstance(index, CTRTree):
        return [7]
    in_chain = in_tree = None
    for oid in range(60):
        page = index.pager.inspect(index.hash.peek(oid))
        if isinstance(page, DataPage) and page.tolerance is not None:
            in_chain = oid if in_chain is None else in_chain
        elif not isinstance(page, DataPage):
            in_tree = oid if in_tree is None else in_tree
    assert in_chain is not None and in_tree is not None
    return [in_chain, in_tree]


def _refuses(kind, entry, point, match, dim=2):
    """``point`` is the bad point, or a function of the mover's own."""
    index, points = _index(kind, dim)
    everywhere = _box(dim, -math.inf, math.inf)
    answers = sorted(index.range_search(everywhere))
    stats = index.pager.stats
    movers = [999] if entry == "insert" else _movers(index)
    for oid in movers:
        ledger = stats.to_dict()
        reads, writes = stats.reads(), stats.writes()
        with pytest.raises(ValueError, match=match):
            if entry == "insert":
                index.insert(oid, point, now=100.0)
            else:
                new = point(points[oid]) if callable(point) else point
                index.update(oid, points[oid], new, now=100.0)
        if kind == "ct" and entry == "update":
            # The lookup: one hash bucket and the page the object is on.
            assert (stats.reads(), stats.writes()) == (reads + 2, writes)
        else:
            assert stats.to_dict() == ledger
    assert len(index) == len(points)
    assert sorted(index.range_search(everywhere)) == answers == sorted(points.items())
    assert verify_index(index).ok


@pytest.mark.parametrize("point", list(BAD_POINTS.values()), ids=list(BAD_POINTS))
@pytest.mark.parametrize("entry", ["insert", "update"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_non_finite_point_changes_nothing(kind, entry, point):
    _refuses(kind, entry, point, "not a finite float")


@pytest.mark.parametrize(
    "point", list(WRONG_DIMENSION.values()), ids=list(WRONG_DIMENSION)
)
@pytest.mark.parametrize("entry", ["insert", "update"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_point_of_the_wrong_dimension_changes_nothing(kind, entry, point):
    _refuses(kind, entry, point, "dimension mismatch")


@pytest.mark.parametrize("entry", ["insert", "update"])
def test_a_2d_point_on_a_3d_ct_tree_changes_nothing(entry):
    def own_xy(old):
        # The object's own x and y pass any 2-D tolerance test.
        return old[:2]

    point = (50.0, 50.0) if entry == "insert" else own_xy
    _refuses("ct", entry, point, "dimension mismatch", dim=3)


def test_check_point_tests_each_coordinate():
    assert finite((1e308, -1e308, 0, 10**300))
    for point in BAD_POINTS.values():
        assert not finite(point)
        with pytest.raises(ValueError, match="object 4's point"):
            check_point(4, point)
    check_point(4, (1.0, 2.0))


def test_check_point_tests_the_dimension_only_when_there_is_one():
    check_point(4, (1.0, 2.0, 3.0))
    check_point(4, (1.0, 2.0, 3.0), 3)
    for point in WRONG_DIMENSION.values():
        with pytest.raises(ValueError, match="the tree is 2-D"):
            check_point(4, point, 2)
