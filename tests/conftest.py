"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Tuple

import pytest

from repro.core.geometry import Point, Rect
from repro.health import verify_index
from repro.storage.pager import Pager


@pytest.fixture
def pager() -> Pager:
    return Pager()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def brute_force_range(
    positions: Dict[int, Point], rect: Rect
) -> List[int]:
    """The oracle for range queries: scan every object."""
    return sorted(
        oid for oid, point in positions.items() if rect.contains_point(point)
    )


def random_points(
    rng: random.Random, count: int, lo: float = 0.0, hi: float = 100.0
) -> Dict[int, Point]:
    return {
        oid: (rng.uniform(lo, hi), rng.uniform(lo, hi)) for oid in range(count)
    }


def random_query(rng: random.Random, span: float = 100.0) -> Rect:
    x0, y0 = rng.uniform(0, span), rng.uniform(0, span)
    return Rect(
        (x0, y0), (x0 + rng.uniform(0, span / 2), y0 + rng.uniform(0, span / 2))
    )


def dwell_trail(
    rng: random.Random,
    spots: Iterable[Tuple[float, float]],
    dwell_reports: int = 30,
    interval: float = 20.0,
    jitter: float = 2.0,
    travel_speed: float = 10.0,
) -> List[Tuple[Point, float]]:
    """A synthetic dwell-then-travel trail through the given spots.

    Matches the movement regime the paper's Section 2 motivates and Phase 1
    expects: long confined jitter around each spot, fast straight hops
    between them.
    """
    trail: List[Tuple[Point, float]] = []
    t = 0.0
    previous = None
    for cx, cy in spots:
        if previous is not None:
            # A couple of fast travel samples between the spots.
            px, py = previous
            steps = max(1, int(((cx - px) ** 2 + (cy - py) ** 2) ** 0.5 / (travel_speed * interval)))
            for step in range(1, steps + 1):
                t += interval
                frac = step / (steps + 1)
                trail.append(((px + (cx - px) * frac, py + (cy - py) * frac), t))
        for _ in range(dwell_reports):
            t += interval
            trail.append(
                ((cx + rng.gauss(0, jitter), cy + rng.gauss(0, jitter)), t)
            )
        previous = (cx, cy)
    return trail


def assert_verified(index) -> None:
    """Assert that ``verify_index`` finds no broken invariant in ``index``,
    naming every violation when it does."""
    report = verify_index(index)
    assert report.ok, "\n".join([report.summary(), *map(str, report.violations)])
