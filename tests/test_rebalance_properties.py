"""Property-based partitioner and rebalance invariants.

Partition laws that must hold for every policy (grid, density, speed)
under arbitrary boundary lists and points: regions tile the domain
exactly, every point routes to exactly one shard, a point query fans out
to exactly the owning shard (plus the churn shard for speed partitions),
and a mid-run rebalance preserves exact I/O-signature parity between the
inline and parallel engines while staying verifier-clean.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.geometry import Rect
from repro.engine import (
    BoundaryPartition,
    IndexKind,
    ShardedIndex,
    SpacePartition,
    SpeedPartition,
)
from repro.health import verify_index
from repro.storage.iostats import IOCategory

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

COORDS = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)

#: Strictly-increasing interior boundary lists for the x axis.
BOUNDARY_LISTS = st.lists(
    st.floats(min_value=0.5, max_value=99.5, allow_nan=False),
    min_size=0,
    max_size=6,
    unique=True,
).map(sorted)

PARTITIONS = st.one_of(
    st.integers(min_value=1, max_value=8).map(
        lambda n: SpacePartition(DOMAIN, n)
    ),
    BOUNDARY_LISTS.map(lambda b: BoundaryPartition(DOMAIN, b, axis=0)),
    st.tuples(
        BOUNDARY_LISTS,
        st.sets(st.integers(min_value=0, max_value=15), max_size=5),
    ).map(
        lambda t: SpeedPartition(
            DOMAIN, BoundaryPartition(DOMAIN, t[0], axis=0), t[1]
        )
    ),
)


@given(partition=PARTITIONS)
@SETTINGS
def test_regions_tile_domain_exactly(partition):
    spatial = getattr(partition, "inner", partition)
    regions = [spatial.region(sid) for sid in range(spatial.n_shards)]
    assert regions[0].lo == DOMAIN.lo
    assert regions[-1].hi == DOMAIN.hi
    axis = spatial.axis
    for left, right in zip(regions, regions[1:]):
        assert left.hi[axis] == right.lo[axis]  # no gap, no overlap
    # Off-axis extents always span the whole domain.
    for region in regions:
        for d in range(len(DOMAIN.lo)):
            if d != axis:
                assert region.lo[d] == DOMAIN.lo[d]
                assert region.hi[d] == DOMAIN.hi[d]


@given(partition=PARTITIONS, x=COORDS, y=COORDS)
@SETTINGS
def test_every_point_routes_to_exactly_one_shard(partition, x, y):
    point = (x, y)
    sid = partition.shard_of(point)
    assert 0 <= sid < partition.n_shards
    # The spatial owner's region contains the point on the routing axis
    # (half-open: boundary-exact points belong to the upper slab, and the
    # domain's top edge belongs to the last slab).
    region = partition.region(sid)
    axis = partition.axis
    v = point[axis]
    lo, hi = region.lo[axis], region.hi[axis]
    assert lo <= v
    assert v < hi or hi == DOMAIN.hi[axis]
    # Identity routing is total too, fast or not.
    for oid in (0, 7, 12):
        owner = partition.shard_for(oid, point)
        assert 0 <= owner < partition.n_shards


@given(partition=PARTITIONS, x=COORDS, y=COORDS)
@SETTINGS
def test_point_query_fans_out_to_owner_only(partition, x, y):
    point = (x, y)
    sids = partition.intersecting(Rect(point, point))
    churn = getattr(partition, "churn_sid", None)
    if churn is None:
        assert sids == [partition.shard_of(point)]
    else:
        # Speed partitions add exactly the churn shard, last.
        assert sids == [partition.shard_of(point), churn]
    # Epsilon-perturbed points never fan out wider than the routing says.
    for xx in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
        p = (xx, y)
        fan = partition.intersecting(Rect(p, p))
        assert fan[0] == partition.shard_of(p)


@given(partition=PARTITIONS)
@SETTINGS
def test_boundaries_round_trip_routing(partition):
    from repro.engine import partition_from_dict

    again = partition_from_dict(partition.to_dict())
    assert again.n_shards == partition.n_shards
    for x in (0.0, 13.7, 50.0, 99.99, 100.0):
        p = (x, 1.0)
        assert again.shard_of(p) == partition.shard_of(p)
        assert again.shard_for(5, p) == partition.shard_for(5, p)


OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),  # 0 = upsert, 1 = query
        st.integers(min_value=0, max_value=15),
        COORDS,
        COORDS,
    ),
    min_size=8,
    max_size=40,
)


def _io_signature(stats):
    return tuple(
        (cat, counter.reads, counter.writes)
        for cat, counter in sorted(stats.snapshot().items())
    )


def _drive(index, ops, rebalance_at, plan):
    """Replay ops under driver-style category scopes, cutting over to
    ``plan`` after ``rebalance_at`` operations."""
    stats = index.pager.stats
    positions = {}
    t = 1000.0
    for i, (op, oid, x, y) in enumerate(ops):
        if i == rebalance_at:
            index.apply_partition(plan)
        t += 1.0
        if op == 0:
            with stats.category(IOCategory.UPDATE):
                if oid in positions:
                    index.update(oid, positions[oid], (x, y), now=t)
                else:
                    index.insert(oid, (x, y), now=t)
            positions[oid] = (x, y)
        else:
            lo = (min(x, y), 0.0)
            hi = (max(x, y), 100.0)
            with stats.category(IOCategory.QUERY):
                index.range_search(Rect(lo, hi))
    return positions


@given(ops=OPS, boundaries=BOUNDARY_LISTS, cut=st.integers(0, 39))
@SETTINGS
def test_midrun_rebalance_keeps_inline_parallel_parity(ops, boundaries, cut):
    """The tentpole invariant: a rebalance cutover mid-run leaves the
    process-pool engine's I/O ledger bit-identical to the inline
    engine's, object for object and category for category."""
    rebalance_at = min(cut, len(ops) - 1)
    inline = ShardedIndex(IndexKind.LAZY, DOMAIN, 4, max_entries=8)
    par = ShardedIndex(
        IndexKind.LAZY, DOMAIN, 4, mode="process", max_entries=8
    )
    try:
        plan_a = BoundaryPartition(DOMAIN, boundaries, axis=0)
        plan_b = BoundaryPartition(DOMAIN, boundaries, axis=0)
        oracle = _drive(inline, ops, rebalance_at, plan_a)
        _drive(par, ops, rebalance_at, plan_b)
        assert _io_signature(par.pager.stats) == _io_signature(
            inline.pager.stats
        )
        assert len(par) == len(inline) == len(oracle)
        got = sorted(par.range_search(DOMAIN))
        assert got == sorted(inline.range_search(DOMAIN))
        assert sorted(oid for oid, _ in got) == sorted(oracle)
        report = verify_index(inline)
        assert report.ok, report.violations
        report = verify_index(par)
        assert report.ok, report.violations
    finally:
        par.close()
