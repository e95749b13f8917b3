"""The brute-force oracle every result is checked against.

The model is the simplest possible one -- the latest position of every
object, held in two numpy columns -- and every check is a full scan of it.
All of this runs after the measured window: the window only keeps the
results it returned.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.core.geometry import Point, Rect

#: kNN distances come from ``math.dist`` in the program and ``np.hypot``
#: here; they may differ in the last place.
_DIST_TOL = 1e-9


class Oracle:
    """Latest position per object id (ids are dense, ``0..n-1``)."""

    def __init__(self, load: Mapping[int, Point]) -> None:
        n = max(load) + 1
        self.xs = np.full(n, np.nan)
        self.ys = np.full(n, np.nan)
        for oid, (x, y) in load.items():
            self.xs[oid] = x
            self.ys[oid] = y

    def move(self, oid: int, point: Point) -> None:
        self.xs[oid] = point[0]
        self.ys[oid] = point[1]

    def in_rect(self, rect: Rect) -> np.ndarray:
        """Ids inside the closed rectangle, ascending."""
        (lx, ly), (hx, hy) = rect.lo, rect.hi
        xs, ys = self.xs, self.ys
        return np.flatnonzero((xs >= lx) & (xs <= hx) & (ys >= ly) & (ys <= hy))

    def range_ok(self, rect: Rect, result: Iterable[Tuple[int, Sequence[float]]]) -> bool:
        """``result`` is exactly the objects in ``rect`` at their latest
        positions, each once."""
        found = sorted((int(oid), float(p[0]), float(p[1])) for oid, p in result)
        expected = self.in_rect(rect)
        if len(found) != len(expected):
            return False
        xs, ys = self.xs, self.ys
        return all(
            oid == want and x == xs[oid] and y == ys[oid]
            for (oid, x, y), want in zip(found, expected.tolist())
        )

    def knn_ok(
        self, point: Point, k: int, result: Sequence[Tuple[float, int, Sequence[float]]]
    ) -> bool:
        """``result`` is ``k`` distinct objects, nearest first, at their
        latest positions, and no object outside it is nearer than its last."""
        dists = np.hypot(self.xs - point[0], self.ys - point[1])
        live = int(np.count_nonzero(~np.isnan(dists)))
        if len(result) != min(k, live):
            return False
        if len({oid for _d, oid, _p in result}) != len(result):
            return False
        previous = 0.0
        for dist, oid, pos in result:
            if pos[0] != self.xs[oid] or pos[1] != self.ys[oid]:
                return False
            if abs(dist - dists[oid]) > _DIST_TOL or dist + _DIST_TOL < previous:
                return False
            previous = dist
        kth = np.partition(dists[~np.isnan(dists)], len(result) - 1)[len(result) - 1]
        return not result or abs(result[-1][0] - kth) <= _DIST_TOL


def state_mismatches(
    model: Mapping[int, Point], pairs: Iterable[Tuple[int, Sequence[float]]]
) -> int:
    """How far ``pairs`` (an index's whole content) is from ``model``:
    objects missing, duplicated, unknown, or at another position."""
    seen = {}
    wrong = 0
    for oid, pos in pairs:
        wrong += oid in seen
        seen[oid] = pos
    for oid, want in model.items():
        pos = seen.pop(oid, None)
        wrong += pos is None or tuple(pos) != tuple(want)
    return wrong + len(seen)
