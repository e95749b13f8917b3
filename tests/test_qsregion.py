"""Unit tests for Phase 1: qs-region identification (Figure 3)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import CTParams
from repro.core.qsregion import (
    QSRegion,
    identify_qs_regions,
    identify_qs_regions_batch,
    trail_duration,
)
from tests.conftest import dwell_trail


@pytest.fixture
def params():
    return CTParams()  # Table-1 defaults: T_dist=30, T_rate=1, T_time=300, T_area=22500


def stationary_trail(x, y, n=30, interval=20.0, start=0.0):
    return [((x, y), start + k * interval) for k in range(n)]


class TestEdgeCases:
    def test_empty_trail(self, params):
        assert identify_qs_regions([], params) == []

    def test_single_sample(self, params):
        assert identify_qs_regions([((0, 0), 0.0)], params) == []

    def test_unordered_trail_rejected(self, params):
        with pytest.raises(ValueError):
            identify_qs_regions([((0, 0), 10.0), ((0, 0), 5.0)], params)

    def test_short_dwell_is_discarded(self, params):
        # 5 samples x 20 s = 80 s < T_time: the "singleton rectangles"
        # labelled a-d in Figure 2(a).
        trail = stationary_trail(5, 5, n=5)
        assert identify_qs_regions(trail, params) == []


class TestSingleDwell:
    def test_long_stationary_dwell_qualifies(self, params):
        trail = stationary_trail(10, 10, n=30)
        regions = identify_qs_regions(trail, params, object_id=7)
        assert len(regions) == 1
        region = regions[0]
        assert region.object_id == 7
        assert region.dwell_time == pytest.approx(29 * 20.0)
        assert region.rect.contains_point((10, 10))

    def test_jittering_dwell_qualifies(self, params, rng):
        trail = dwell_trail(rng, [(50, 50)], dwell_reports=40)
        regions = identify_qs_regions(trail, params)
        assert len(regions) == 1
        assert regions[0].rect.area < params.t_area

    def test_slow_drift_never_freezes(self, params):
        # Growth below T_rate keeps the MBR growing even past T_dist: the
        # region freezes only when the trail ends.
        trail = [((k * 0.5, 0.0), k * 20.0) for k in range(100)]
        regions = identify_qs_regions(trail, params)
        assert len(regions) == 1
        assert regions[0].rect.diagonal > params.t_dist

    def test_dwell_region_respects_area_cap(self, rng):
        params = CTParams(t_area=1.0)  # absurdly small cap
        trail = dwell_trail(rng, [(50, 50)], dwell_reports=40)
        assert identify_qs_regions(trail, params) == []


class TestMultipleDwells:
    def test_two_dwell_sites_two_regions(self, params, rng):
        trail = dwell_trail(rng, [(100, 100), (800, 800)], dwell_reports=30)
        regions = identify_qs_regions(trail, params)
        assert len(regions) == 2
        assert regions[0].order == 0
        assert regions[1].order == 1
        assert regions[0].rect.contains_point((100, 100)) or regions[0].rect.diagonal < 60
        assert not regions[0].rect.intersects(regions[1].rect)

    def test_regions_ordered_by_time(self, params, rng):
        trail = dwell_trail(rng, [(0, 0), (500, 0), (0, 500)], dwell_reports=25)
        regions = identify_qs_regions(trail, params)
        assert [r.order for r in regions] == list(range(len(regions)))
        assert len(regions) == 3

    def test_travel_segment_produces_no_region(self, params):
        # Pure fast travel: 200 m per 20 s report, never dwelling.
        trail = [((k * 200.0, 0.0), k * 20.0) for k in range(30)]
        regions = identify_qs_regions(trail, params)
        assert regions == []

    def test_revisiting_same_spot_gives_separate_regions(self, params, rng):
        trail = dwell_trail(rng, [(100, 100), (800, 800), (100, 100)], dwell_reports=30)
        regions = identify_qs_regions(trail, params)
        assert len(regions) == 3  # phase 2, not phase 1, merges revisits


class TestThresholdSemantics:
    def test_t_time_boundary_is_strict(self, params):
        # Dwell exactly T_time must NOT qualify (condition is >).
        interval = params.t_time / 10.0
        trail = stationary_trail(5, 5, n=11, interval=interval)
        trail.append(((500.0, 500.0), trail[-1][1] + interval))
        trail.append(((1000.0, 1000.0), trail[-1][1] + interval))
        regions = identify_qs_regions(trail, params)
        assert all(r.dwell_time > params.t_time for r in regions)

    def test_larger_t_dist_merges_nearby_dwells(self, rng):
        trail = dwell_trail(rng, [(100, 100), (140, 100)], dwell_reports=30)
        few = identify_qs_regions(trail, CTParams(t_dist=500.0, t_area=1e9))
        many = identify_qs_regions(trail, CTParams(t_dist=10.0))
        assert len(few) <= len(many)

    def test_high_t_rate_tolerates_travel(self, rng):
        # With an enormous T_rate nothing ever freezes: one trailing region.
        trail = dwell_trail(rng, [(0, 0), (900, 900)], dwell_reports=20)
        regions = identify_qs_regions(trail, CTParams(t_rate=1e9, t_area=1e12))
        assert len(regions) == 1


class TestQSRegionType:
    def test_rejects_negative_dwell(self):
        from repro.core.geometry import Rect

        with pytest.raises(ValueError):
            QSRegion(rect=Rect((0, 0), (1, 1)), dwell_time=-1.0)

    def test_sources_default_to_owner(self):
        from repro.core.geometry import Rect

        region = QSRegion(rect=Rect((0, 0), (1, 1)), dwell_time=5.0, object_id=3)
        assert region.sources == [3]

    def test_resident_density(self):
        from repro.core.geometry import Rect

        region = QSRegion(rect=Rect((0, 0), (2, 2)), dwell_time=8.0)
        assert region.resident_density() == pytest.approx(2.0)

    def test_degenerate_density_is_finite(self):
        from repro.core.geometry import Rect

        region = QSRegion(rect=Rect.from_point((1, 1)), dwell_time=10.0)
        assert region.resident_density() < float("inf")


class TestTrailDuration:
    def test_empty_and_singleton(self):
        assert trail_duration([]) == 0.0
        assert trail_duration([((0, 0), 5.0)]) == 0.0

    def test_duration(self):
        assert trail_duration([((0, 0), 5.0), ((1, 1), 25.0)]) == 20.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_regions_cover_their_dwells(seed):
    """Every qualifying region's rect contains samples from the trail and
    satisfies the thresholds it was frozen under."""
    rng = random.Random(seed)
    params = CTParams()
    spots = [(rng.uniform(50, 950), rng.uniform(50, 950)) for _ in range(rng.randint(1, 4))]
    trail = dwell_trail(rng, spots, dwell_reports=rng.randint(18, 40))
    regions = identify_qs_regions(trail, params)
    for region in regions:
        assert region.dwell_time > params.t_time
        assert region.rect.area < params.t_area
        assert any(region.rect.contains_point(p) for p, _ in trail)


# -- differential: the column kernel against a plain-float Figure 3 ----------


def figure3_reference(trail, params, object_id):
    """Figure 3 one sample at a time in plain floats: the reference the
    column kernel must equal bit for bit.  Squares and side products
    accumulate in dimension order; bounds move only on a strict comparison."""

    def diagonal(lo, hi):
        squares = 0.0
        for low, high in zip(lo, hi):
            squares += (high - low) * (high - low)
        return math.sqrt(squares)

    def area(lo, hi):
        product = 1.0
        for low, high in zip(lo, hi):
            product *= high - low
        return product

    found = []

    def freeze(lo, hi, dwell):
        if dwell > params.t_time and area(lo, hi) < params.t_area:
            found.append((lo, hi, dwell, len(found), object_id))

    if not trail:
        return found
    lo = hi = tuple(float(c) for c in trail[0][0])
    window_start = prev_time = trail[0][1]
    for point, time in trail[1:]:
        if time < prev_time:
            raise ValueError("unordered")
        point = tuple(float(c) for c in point)
        new_lo = tuple(c if c < low else low for low, c in zip(lo, point))
        new_hi = tuple(c if c > high else high for high, c in zip(hi, point))
        dt = time - prev_time
        growth = (diagonal(new_lo, new_hi) - diagonal(lo, hi)) / dt if dt > 0 else math.inf
        if diagonal(new_lo, new_hi) > params.t_dist and growth > params.t_rate:
            freeze(lo, hi, prev_time - window_start)
            lo = hi = point
            window_start = time
        else:
            lo, hi = new_lo, new_hi
        prev_time = time
    freeze(lo, hi, prev_time - window_start)
    return found


def random_trail(rng, dim, length, integer_coords):
    """Dwell-and-hop movement with repeated timestamps (``dt == 0``)."""
    trail = []
    t = rng.uniform(0.0, 100.0)
    centre = [rng.uniform(0.0, 1000.0) for _ in range(dim)]
    for _ in range(length):
        if rng.random() < 0.08:
            centre = [rng.uniform(0.0, 1000.0) for _ in range(dim)]
        point = tuple(c + rng.gauss(0.0, 3.0) for c in centre)
        if integer_coords:
            point = tuple(int(c) for c in point)
        trail.append((point, t))
        if rng.random() > 0.1:
            t += rng.uniform(1.0, 40.0)
    return trail


def bits(lo, hi, dwell, order, object_id):
    """One region as a comparable tuple; floats as hex so -0.0 != 0.0."""
    for value in (*lo, *hi, dwell):
        assert type(value) is float  # no numpy scalar escapes the kernel
    return (
        tuple(c.hex() for c in lo),
        tuple(c.hex() for c in hi),
        dwell.hex(),
        order,
        object_id,
    )


def exact(regions):
    return [
        bits(r.rect.lo, r.rect.hi, r.dwell_time, r.order, r.object_id)
        for r in regions
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]), st.booleans())
def test_batch_kernel_equals_the_per_sample_reference(seed, dim, integer_coords):
    rng = random.Random(seed)
    params = CTParams(
        t_dist=rng.choice([5.0, 30.0]),
        t_rate=rng.choice([0.2, 1.0]),
        t_time=rng.choice([20.0, 300.0]),
        t_area=rng.choice([50.0, 22_500.0, 1e7]),
    )
    lengths = [0, 1, 2] + [rng.randint(3, 60) for _ in range(rng.randint(0, 8))]
    rng.shuffle(lengths)
    trails = [random_trail(rng, dim, n, integer_coords) for n in lengths]
    oids = [rng.choice([None, 100 + i]) for i in range(len(trails))]

    want = [
        [bits(*found) for found in figure3_reference(trail, params, oid)]
        for trail, oid in zip(trails, oids)
    ]
    got = identify_qs_regions_batch(trails, params, oids)
    assert [exact(regions) for regions in got] == want
    # The one-trail entry is the same kernel on a batch of one.
    for trail, oid, expected in zip(trails, oids, want):
        assert exact(identify_qs_regions(trail, params, object_id=oid)) == expected


def test_batch_kernel_rejects_a_decreasing_timestamp_in_any_trail(params):
    good = stationary_trail(0, 0, n=5)
    bad = [((0, 0), 10.0), ((0, 0), 5.0), ((0, 0), 20.0)]
    with pytest.raises(ValueError):
        identify_qs_regions_batch([good, bad, []], params)


def test_batch_kernel_rejects_mixed_dimensions(params):
    with pytest.raises(ValueError):
        identify_qs_regions_batch([[((0.0, 0.0), 0.0), ((1.0,), 1.0)]], params)
