"""Tests for the alternative mobility models (robustness substrate)."""

import math
import random

import pytest

from repro.citysim import City, CitySimulator
from repro.citysim.mobility import ObjectState
from repro.citysim.models import GaussianMarkovModel, WaypointModel, make_model
from repro.core.params import SimulationParams


@pytest.fixture(scope="module")
def city():
    return City.generate(seed=6, n_buildings=15)


def params(n=40):
    return SimulationParams(
        n_objects=n, update_rate=n / 20.0, n_history=20, n_updates=5, n_warmup_max=5
    )


class TestWaypointModel:
    def test_spawn_within_bounds(self, city):
        model = WaypointModel(city, random.Random(1))
        obj = model.spawn(0, now=0.0)
        assert city.bounds.contains_point(obj.position)
        assert obj.at_ground_level

    def test_pause_then_travel_cycle(self, city):
        model = WaypointModel(city, random.Random(2), pause_mean=100.0)
        obj = model.spawn(0, now=0.0)
        obj.dwell_until = 0.0
        model.step(obj, now=20.0, dt=20.0)
        assert obj.state == ObjectState.TRAVELING
        t = 20.0
        for _ in range(500):
            t += 20.0
            model.step(obj, now=t, dt=20.0)
            if obj.state != ObjectState.TRAVELING:
                break
        assert obj.state == ObjectState.IN_PARK  # arrived and pausing

    def test_positions_stay_in_bounds(self, city):
        model = WaypointModel(city, random.Random(3))
        obj = model.spawn(0, now=0.0)
        t = 0.0
        for _ in range(300):
            t += 20.0
            model.step(obj, now=t, dt=20.0)
            assert city.bounds.contains_point(obj.position)

    def test_rejects_negative_dt(self, city):
        model = WaypointModel(city, random.Random(4))
        obj = model.spawn(0, now=0.0)
        with pytest.raises(ValueError):
            model.step(obj, now=0.0, dt=-1.0)

    def test_runs_under_simulator(self, city):
        model = WaypointModel(city, random.Random(5))
        simulator = CitySimulator(city, params(), seed=5, model=model)
        trace = simulator.run()
        assert trace.min_samples() == 25


class TestGaussianMarkovModel:
    def test_rejects_bad_memory(self, city):
        with pytest.raises(ValueError):
            GaussianMarkovModel(city, random.Random(1), memory=1.0)

    def test_never_dwells(self, city):
        model = GaussianMarkovModel(city, random.Random(2))
        obj = model.spawn(0, now=0.0)
        assert obj.dwell_until == math.inf
        assert obj.state == ObjectState.TRAVELING

    def test_motion_is_velocity_correlated(self, city):
        """Consecutive displacement vectors must correlate positively."""
        model = GaussianMarkovModel(city, random.Random(3), memory=0.95)
        obj = model.spawn(0, now=0.0)
        displacements = []
        previous = obj.position
        t = 0.0
        for _ in range(200):
            t += 5.0
            model.step(obj, now=t, dt=5.0)
            displacements.append(
                (obj.position[0] - previous[0], obj.position[1] - previous[1])
            )
            previous = obj.position
        dots = [
            a[0] * b[0] + a[1] * b[1]
            for a, b in zip(displacements, displacements[1:])
        ]
        positive = sum(1 for d in dots if d > 0)
        assert positive / len(dots) > 0.6

    def test_reflection_keeps_in_bounds(self, city):
        model = GaussianMarkovModel(city, random.Random(4), mean_speed=30.0)
        obj = model.spawn(0, now=0.0)
        t = 0.0
        for _ in range(500):
            t += 20.0
            model.step(obj, now=t, dt=20.0)
            assert city.bounds.contains_point(obj.position)

    def test_runs_under_simulator(self, city):
        model = GaussianMarkovModel(city, random.Random(6))
        simulator = CitySimulator(city, params(), seed=6, model=model)
        trace = simulator.run()
        assert trace.min_samples() == 25

    def test_mines_fewer_regions_than_city_model(self, city):
        """The adversarial model must starve Phase 1 relative to the default."""
        from tests.citysim_shape import trail_stats

        counts = {}
        for name in ("city", "gauss_markov"):
            rng = random.Random(7)
            simulator = CitySimulator(
                city, params(60), seed=7, model=make_model(name, city, rng)
            )
            trace = simulator.run(n_samples=60)
            stats = trail_stats(trace.histories(60))
            counts[name] = stats.regions_per_object
        assert counts["gauss_markov"] < counts["city"]


class TestFactory:
    def test_known_models(self, city):
        rng = random.Random(0)
        from repro.citysim.mobility import MobilityModel

        assert isinstance(make_model("city", city, rng), MobilityModel)
        assert isinstance(make_model("waypoint", city, rng), WaypointModel)
        assert isinstance(make_model("gauss_markov", city, rng), GaussianMarkovModel)

    def test_unknown_model(self, city):
        with pytest.raises(ValueError):
            make_model("teleport", city, random.Random(0))
