"""Inputs: one ``citysim`` trace per run, cut into a seeded op list.

The *population* -- the city plan and how its objects move -- is the same
in every run, like the fixed data set of a database benchmark; ``--seed``
drives what is asked of it: the range rectangles, the kNN points, and (in
the served workloads) the clients' retry jitter.  The same seed gives the
same op list, op for op.  Ten different populations put 6-20 % between
runs of identical code on every figure that depends on the tree's shape,
which is wider than any bound worth enforcing; ten read streams over one
population stay within the timing noise.  ``POPULATION_SEED`` is the one
place to change to measure another population.  The program under test
receives only what is generated here.

An op is ``(t, who, payload)``: ``who >= 0`` moves object ``who`` to the
point ``payload``; ``who == RANGE`` asks for the rectangle ``payload``;
``who == KNN`` asks for the ``KNN_K`` nearest objects to the point
``payload``.  Ops are in timestamp order, an update before a read on a tie.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import itemgetter
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.citysim import City, CitySimulator, Trace
from repro.core.geometry import Point, Rect
from repro.core.params import SimulationParams
from repro.workload.queries import QueryWorkload

RANGE = -1
KNN = -2
KNN_K = 10

#: The paper's city and reporting protocol (Table 1): 71 buildings on a
#: 1000 x 1000 plan, every object reporting each 20 s on average.
CITY_SIZE = 1000.0
N_BUILDINGS = 71
REPORT_INTERVAL_S = 20.0
#: City plan from this seed, movement from this seed + 1 (``repro
#: simulate``'s recipe).
POPULATION_SEED = 0

Op = Tuple[float, int, object]


@dataclass(frozen=True)
class Size:
    """How big a run is.  ``smoke`` exists for the self-tests only and is
    never used for a reported number."""

    objects: int
    history: int
    #: Samples required beyond a reported percentile (``stats.percentile``);
    #: the smoke windows are far too short to support the real rule.
    min_beyond: int


SIZES = {
    "full": Size(objects=2000, history=110, min_beyond=10),
    "smoke": Size(objects=300, history=40, min_beyond=0),
}


@dataclass
class Inputs:
    """What one run replays."""

    domain: Rect
    #: Position of every object at the history cut (the initial load).
    load: Dict[int, Point]
    load_time: float
    #: The first ``history - 1`` samples per object (CT-R-tree mining input).
    histories: Dict[int, list]
    #: The online stream, ``(t, oid, point)`` in timestamp order.
    updates: List[Op]
    generate_s: float
    records: int


def generate(size: Size, online_samples: int) -> Inputs:
    """Simulate ``history + online_samples`` reports per object.

    The recipe is ``repro simulate``'s, warm-up capped at 60 ticks.
    """
    t0 = perf_counter()
    city = City.generate(seed=POPULATION_SEED, n_buildings=N_BUILDINGS, size=CITY_SIZE)
    params = SimulationParams(
        n_objects=size.objects,
        update_rate=size.objects / REPORT_INTERVAL_S,
        n_history=size.history,
        n_updates=online_samples,
        n_warmup_max=60,
    )
    trace = CitySimulator(city, params, seed=POPULATION_SEED + 1).run()
    updates = _online_stream(trace, size.history, online_samples)
    return Inputs(
        domain=city.bounds,
        load=trace.current_positions(size.history),
        load_time=trace.load_time(size.history),
        histories=trace.histories(size.history),
        updates=updates,
        generate_s=perf_counter() - t0,
        records=len(trace),
    )


def _online_stream(trace: Trace, history: int, online_samples: int) -> List[Op]:
    """The samples past the history cut, merged across objects by time.

    The simulator stamps the k-th report of every object inside tick k's
    own interval, so sorting tick by tick yields the global order at a
    third of the cost of ``Trace.online_updates``'s heap merge; the check
    at each tick boundary keeps that assumption honest.
    """
    trails = [(oid, trace.trail(oid)) for oid in trace.object_ids]
    updates: List[Op] = []
    for k in range(history, history + online_samples):
        tick = sorted(
            ((trail[k][1], oid, trail[k][0]) for oid, trail in trails),
            key=itemgetter(0),
        )
        if updates and tick and tick[0][0] < updates[-1][0]:
            raise AssertionError(f"tick {k} overlaps the previous tick in time")
        updates.extend(tick)
    return updates


def range_reads(
    domain: Rect, span: Tuple[float, float], rate: float, area_fraction: float, seed: int
) -> List[Op]:
    """Poisson-arriving square range queries (Section 4.1's generator)."""
    workload = QueryWorkload(domain, rate=rate, size_fraction=area_fraction, seed=seed)
    return [(q.t, RANGE, q.rect) for q in workload.between(*span)]


def knn_reads(domain: Rect, span: Tuple[float, float], rate: float, seed: int) -> List[Op]:
    """Poisson-arriving kNN probes at uniform points."""
    rng = random.Random(seed)
    reads: List[Op] = []
    t = span[0] + rng.expovariate(rate)
    while t < span[1]:
        point = tuple(rng.uniform(lo, hi) for lo, hi in zip(domain.lo, domain.hi))
        reads.append((t, KNN, point))
        t += rng.expovariate(rate)
    return reads


def merge_ops(updates: Sequence[Op], *reads: Sequence[Op]) -> List[Op]:
    """One timestamp-ordered op list; the sort is stable, so listing the
    updates first puts an update ahead of a read that shares its instant."""
    merged = list(updates)
    for stream in reads:
        merged.extend(stream)
    merged.sort(key=itemgetter(0))
    return merged


def build_ops(
    inputs: Inputs,
    seed: int,
    *,
    updates_per_range: float,
    range_area: float,
    updates_per_knn: Optional[float] = None,
) -> List[Op]:
    """The replayed mix: the online stream with reads interleaved at fixed
    update:read ratios (100:1 with 0.1 % squares is the paper's Table 1)."""
    updates = inputs.updates
    if not updates:
        return []
    span = (updates[0][0], updates[-1][0])
    update_rate = len(inputs.load) / REPORT_INTERVAL_S
    reads = [
        range_reads(inputs.domain, span, update_rate / updates_per_range, range_area, seed + 2)
    ]
    if updates_per_knn is not None:
        reads.append(knn_reads(inputs.domain, span, update_rate / updates_per_knn, seed + 3))
    return merge_ops(updates, *reads)


def online_samples_for(n_updates: float, size: Size, at_least: int) -> int:
    """Reports per object that make a stream of at least ``n_updates``."""
    return max(at_least, math.ceil(n_updates / size.objects))
