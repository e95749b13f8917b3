"""A point no tree can hold is refused where it enters, before any page.

Every cell inserts or moves one object to a point with a coordinate that is
not a finite float, and asserts that ``ValueError`` is raised with the index
exactly as it was: the same size, the same answers, the same I/O ledger and
a clean ``verify_index``.  The plain R-tree once deleted the object before
its re-insertion failed (NaN, ``10**400``) and accepted infinities.
"""

import math
import random

import pytest

from repro.core.geometry import Rect, check_point, finite
from repro.engine import make_index
from repro.health import verify_index
from repro.storage.pager import Pager

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))
EVERYWHERE = Rect((-math.inf, -math.inf), (math.inf, math.inf))
HUGE = 10**400

BAD_POINTS = {
    "nan": (50.0, math.nan),
    "inf": (math.inf, 50.0),
    "-inf": (50.0, -math.inf),
    "1e400": (HUGE, 50.0),
    "1e400-cancelling": (HUGE, -HUGE),  # sums to 0
}


def _index(kind):
    rng = random.Random(3)
    index = make_index(kind, Pager(), DOMAIN, max_entries=5)
    points = {}
    for oid in range(60):
        points[oid] = (rng.uniform(0, 100), rng.uniform(0, 100))
        index.insert(oid, points[oid], now=float(oid))
    return index, points


@pytest.mark.parametrize("point", list(BAD_POINTS.values()), ids=list(BAD_POINTS))
@pytest.mark.parametrize("entry", ["insert", "update"])
@pytest.mark.parametrize("kind", ["rtree", "lazy", "alpha"])
def test_a_non_finite_point_changes_nothing(kind, entry, point):
    index, points = _index(kind)
    answers = sorted(index.range_search(EVERYWHERE))
    stats = index.pager.stats
    ledger = stats.to_dict()
    with pytest.raises(ValueError, match="not a finite float"):
        if entry == "insert":
            index.insert(999, point, now=100.0)
        else:
            index.update(7, points[7], point, now=100.0)
    assert stats.to_dict() == ledger
    assert len(index) == len(points)
    assert sorted(index.range_search(EVERYWHERE)) == answers == sorted(points.items())
    assert verify_index(index).ok


def test_check_point_tests_each_coordinate():
    assert finite((1e308, -1e308, 0, 10**300))
    for point in BAD_POINTS.values():
        assert not finite(point)
        with pytest.raises(ValueError, match="object 4's point"):
            check_point(4, point)
    check_point(4, (1.0, 2.0))
