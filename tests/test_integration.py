"""Integration tests: the full pipeline across modules, with oracles."""

import random

import pytest

from repro.citysim import City, CitySimulator
from repro.core.builder import CTRTreeBuilder
from repro.core.geometry import Rect
from repro.core.params import CTParams, SimulationParams
from repro.storage.pager import Pager
from repro.workload import QueryWorkload, SimulationDriver, UpdateStream
from repro.workload.driver import IndexKind, make_index
from tests.conftest import assert_verified, brute_force_range


@pytest.fixture(scope="module")
def workload():
    """One shared smoke-sized city simulation for all integration tests."""
    city = City.generate(seed=10, n_buildings=30)
    # The paper's history length (110 samples) matters: shorter histories
    # under-mine qs-regions and strand objects in buffers.
    params = SimulationParams(
        n_objects=150,
        update_rate=150 / 20.0,
        n_history=110,
        n_updates=12,
        n_warmup_max=20,
    )
    simulator = CitySimulator(city, params, seed=11)
    trace = simulator.run()
    return city, params, trace


class TestFullPipeline:
    def test_all_indexes_give_identical_query_answers(self, workload):
        """The four structures must agree with each other AND a brute-force
        oracle after replaying the same update stream."""
        city, params, trace = workload
        histories = trace.histories(params.n_history)
        current = trace.current_positions(params.n_history)
        stream = UpdateStream(trace, params.n_history)

        final_positions = dict(current)
        for record in stream:
            final_positions[record.oid] = record.point

        rng = random.Random(1)
        queries = [
            Rect(
                (rng.uniform(0, 800), rng.uniform(0, 800)),
                (rng.uniform(800, 1000), rng.uniform(800, 1000)),
            )
            for _ in range(15)
        ]

        answers = {}
        for kind in IndexKind.ALL:
            pager = Pager()
            index = make_index(kind, pager, city.bounds, histories=histories, query_rate=1.0)
            driver = SimulationDriver(index, pager, kind)
            driver.load(current)
            driver.run(stream, [])
            answers[kind] = [
                sorted(oid for oid, _ in index.range_search(q)) for q in queries
            ]
            assert_verified(index)

        oracle = [brute_force_range(final_positions, q) for q in queries]
        for kind, result in answers.items():
            assert result == oracle, f"{kind} disagrees with brute force"

    def test_ct_beats_rtree_on_update_heavy_mix(self, workload):
        """The paper's core claim at the update-heavy end: lazy structures
        (and CT in particular) need far fewer I/Os than the R-tree."""
        city, params, trace = workload
        histories = trace.histories(params.n_history)
        current = trace.current_positions(params.n_history)

        totals = {}
        for kind in (IndexKind.RTREE, IndexKind.CT):
            pager = Pager()
            index = make_index(kind, pager, city.bounds, histories=histories, query_rate=1.0)
            driver = SimulationDriver(index, pager, kind)
            driver.load(current)
            result = driver.run(UpdateStream(trace, params.n_history), [])
            totals[kind] = result.total_ios
        # At this smoke scale the margin is modest (the full effect needs
        # density; see benchmarks/bench_figure8.py) but must be clearly there.
        assert totals[IndexKind.CT] < 0.8 * totals[IndexKind.RTREE]

    def test_ct_queries_cost_more_than_lazy(self, workload):
        """The flip side (Figure 9): the CT-R-tree pays on queries."""
        city, params, trace = workload
        histories = trace.histories(params.n_history)
        current = trace.current_positions(params.n_history)
        query_ios = {}
        for kind in (IndexKind.LAZY, IndexKind.CT):
            pager = Pager()
            index = make_index(kind, pager, city.bounds, histories=histories, query_rate=1.0)
            driver = SimulationDriver(index, pager, kind)
            driver.load(current)
            queries = QueryWorkload(city.bounds, 1.0, 0.001, seed=9).take(80)
            result = driver.run([], queries)
            query_ios[kind] = result.query_ios
        assert query_ios[IndexKind.CT] > query_ios[IndexKind.LAZY]

    def test_builder_report_matches_tree(self, workload):
        city, params, trace = workload
        histories = trace.histories(params.n_history)
        builder = CTRTreeBuilder(CTParams(), query_rate=1.0)
        tree, report = builder.build(
            Pager(), city.bounds, histories, trace.current_positions(params.n_history)
        )
        assert report.phase3_regions == tree.region_count
        assert len(tree) == params.n_objects
        assert_verified(tree)

    def test_trace_roundtrip_preserves_experiment(self, workload, tmp_path):
        """Saving and loading the trace file must not change any result."""
        city, params, trace = workload
        path = tmp_path / "trace.csv"
        trace.save(path)
        from repro.citysim.trace import Trace

        reloaded = Trace.load(path)
        assert reloaded.histories(params.n_history) == trace.histories(params.n_history)
        original = list(UpdateStream(trace, params.n_history))
        roundtrip = list(UpdateStream(reloaded, params.n_history))
        assert original == roundtrip


class TestSharedPager:
    def test_two_indexes_share_one_pager(self, workload):
        """Indexes are independent even on a shared page store."""
        city, params, trace = workload
        pager = Pager()
        a = make_index(IndexKind.LAZY, pager, city.bounds)
        b = make_index(IndexKind.LAZY, pager, city.bounds)
        a.insert(1, (10.0, 10.0))
        b.insert(1, (900.0, 900.0))
        assert a.search_point((10.0, 10.0)) == [1]
        assert b.search_point((10.0, 10.0)) == []
