"""Unit tests for the city simulation loop."""

import pytest

from repro.citysim import City, CitySimulator
from repro.core.params import SimulationParams
from tests.citysim_shape import trail_stats
from tests.conftest import dwell_trail


@pytest.fixture(scope="module")
def city():
    return City.generate(seed=4, n_buildings=25)


def small_params(n=60, **overrides):
    defaults = dict(
        n_objects=n,
        update_rate=n / 20.0,
        n_history=12,
        n_updates=5,
        n_warmup_max=30,
    )
    defaults.update(overrides)
    return SimulationParams(**defaults)


class TestSetup:
    def test_population_spawned(self, city):
        sim = CitySimulator(city, small_params(), seed=1)
        assert len(sim.objects) == 60
        assert all(o.building is not None for o in sim.objects)

    def test_report_interval_derived_from_rate(self, city):
        sim = CitySimulator(city, small_params(), seed=1)
        assert sim.report_interval == pytest.approx(20.0)

    def test_report_interval_override(self, city):
        sim = CitySimulator(city, small_params(), seed=1, report_interval=5.0)
        assert sim.report_interval == 5.0

    def test_rejects_zero_objects(self, city):
        with pytest.raises(ValueError):
            CitySimulator(city, small_params(), n_objects=0, seed=1)


class TestWarmup:
    def test_warmup_bounded_by_n_rmax(self, city):
        params = small_params(t_start=1.01, n_warmup_max=7)  # unreachable target
        # t_start > 1 is invalid per-params? t_start is warm-up threshold only.
        sim = CitySimulator(city, params, seed=1)
        assert sim.warm_up() == 7

    def test_warmup_stops_at_t_start(self, city):
        sim = CitySimulator(city, small_params(), seed=1)
        ticks = sim.warm_up()
        assert ticks <= sim.params.n_warmup_max
        assert sim.ground_fraction() >= sim.params.t_start or ticks == sim.params.n_warmup_max


class TestRun:
    def test_run_records_expected_counts(self, city):
        sim = CitySimulator(city, small_params(), seed=1)
        trace = sim.run()
        assert trace.min_samples() == 12 + 5
        assert len(trace.object_ids) == 60

    def test_trails_time_ordered(self, city):
        sim = CitySimulator(city, small_params(), seed=1)
        trace = sim.run(n_samples=8)
        for oid in trace.object_ids:
            times = [t for _, t in trace.trail(oid)]
            assert times == sorted(times)

    def test_positions_within_or_near_bounds(self, city):
        sim = CitySimulator(city, small_params(), seed=1)
        trace = sim.run(n_samples=10)
        margin = 50.0
        for oid in trace.object_ids:
            for (x, y), _t in trace.trail(oid):
                assert -margin <= x <= 1000 + margin
                assert -margin <= y <= 1000 + margin

    def test_deterministic_given_seed(self, city):
        a = CitySimulator(city, small_params(), seed=7).run(n_samples=6)
        b = CitySimulator(city, small_params(), seed=7).run(n_samples=6)
        assert a.trail(0) == b.trail(0)

    def test_seeds_vary_output(self, city):
        a = CitySimulator(city, small_params(), seed=7).run(n_samples=6)
        b = CitySimulator(city, small_params(), seed=8).run(n_samples=6)
        assert a.trail(0) != b.trail(0)

    def test_rejects_negative_samples(self, city):
        sim = CitySimulator(city, small_params(), seed=1)
        with pytest.raises(ValueError):
            sim.run(n_samples=-1)

    def test_occupancy_controller_reacts(self, city):
        sim = CitySimulator(city, small_params(t_fill=0.98, t_empty=0.99), seed=1)
        sim.run(n_samples=3)
        # Ground fraction can't stay >= 0.98, so the controller must be pushing.
        assert sim.model.ground_bias == 1

    def test_dwell_dominates_travel(self, city):
        """Most reports must come from dwelling objects -- the premise of
        change-tolerant indexing (paper Section 2)."""
        import math

        sim = CitySimulator(city, small_params(n=100), seed=2)
        trace = sim.run(n_samples=30)
        small_moves = 0
        total = 0
        for oid in trace.object_ids:
            trail = trace.trail(oid)
            for (p1, _), (p2, _) in zip(trail, trail[1:]):
                total += 1
                if math.dist(p1, p2) < 15.0:
                    small_moves += 1
        assert small_moves / total > 0.6


class TestChangedPlans:
    def test_continue_in_evicts_demolished_dwellers(self, city):
        sim = CitySimulator(city, small_params(), seed=3)
        sim.run(n_samples=4)
        changed = city.with_changes(remove=10, add=0, seed=5)
        surviving = {b.rect for b in changed.buildings}
        evicted_before = [
            o for o in sim.objects
            if o.building is not None and o.building.rect not in surviving
        ]
        sim.continue_in(changed)
        from repro.citysim.mobility import ObjectState

        for obj in evicted_before:
            assert obj.state == ObjectState.TRAVELING

    def test_future_destinations_come_from_new_plan(self, city):
        sim = CitySimulator(city, small_params(), seed=3)
        sim.run(n_samples=2)
        changed = city.with_changes(remove=5, add=5, seed=6)
        sim.continue_in(changed)
        sim.run(n_samples=40, warm_up=False)
        demolished = {b.rect for b in city.buildings} - {b.rect for b in changed.buildings}
        for obj in sim.objects:
            if obj.building is not None:
                assert obj.building.rect not in demolished


class TestTrailStats:
    def test_dwell_heavy_workload_detected(self, rng):
        histories = {
            oid: dwell_trail(rng, [(200, 200), (700, 700)], dwell_reports=40)
            for oid in range(10)
        }
        stats = trail_stats(histories)
        assert stats.object_count == 10
        assert stats.median_step < 10.0
        assert stats.dwell_step_fraction > 0.8
        assert stats.dwell_time_fraction > 0.6
        assert stats.regions_per_object == pytest.approx(2.0)
        assert stats.is_change_tolerant_friendly

    def test_pure_travel_workload_detected(self):
        histories = {
            oid: [((k * 300.0, 0.0), k * 20.0) for k in range(40)] for oid in range(5)
        }
        stats = trail_stats(histories)
        assert stats.dwell_step_fraction == 0.0
        assert stats.regions_per_object == 0.0
        assert not stats.is_change_tolerant_friendly

    def test_empty_histories(self):
        stats = trail_stats({})
        assert stats.object_count == 0
        assert stats.median_step == 0.0

    def test_city_simulator_output_is_friendly(self):
        """The substitute simulator must produce the movement shape the paper
        describes -- this is the validation the substitution rests on."""
        city = City.generate(seed=2, n_buildings=25)
        params = SimulationParams(
            n_objects=80, update_rate=4.0, n_history=110, n_updates=5, n_warmup_max=20
        )
        trace = CitySimulator(city, params, seed=3).run()
        stats = trail_stats(trace.histories(110))
        assert stats.is_change_tolerant_friendly
