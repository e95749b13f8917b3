"""Unit tests for the end-to-end CT-R-tree builder pipeline."""

import pytest

from repro.core.builder import CTRTreeBuilder
from repro.core.geometry import Rect
from repro.core.params import CTParams
from repro.storage.iostats import IOCategory
from repro.storage.pager import Pager
from tests.conftest import assert_verified, dwell_trail

DOMAIN = Rect((0, 0), (1000, 1000))


@pytest.fixture
def histories(rng):
    spots = [(100, 100), (500, 500), (850, 200)]
    trails = {}
    for oid in range(12):
        route = [spots[oid % 3], spots[(oid + 1) % 3]]
        trails[oid] = dwell_trail(rng, route, dwell_reports=30)
    return trails


class TestMine:
    def test_mine_produces_regions_and_edges(self, histories):
        builder = CTRTreeBuilder(CTParams(), query_rate=1.0)
        graph, phase1, merges, t_max = builder.mine(histories, DOMAIN)
        assert phase1 >= graph.region_count  # merging only shrinks
        assert graph.region_count >= 1
        assert t_max > 0

    def test_shared_dwell_spots_merge_across_objects(self, histories):
        builder = CTRTreeBuilder(CTParams(), query_rate=1.0)
        graph, phase1, _merges, _ = builder.mine(histories, DOMAIN)
        # 12 objects x 2 dwells = ~24 phase-1 regions over only 3 spots.
        assert phase1 >= 20
        assert graph.region_count <= phase1 / 2

    def test_empty_histories(self):
        builder = CTRTreeBuilder()
        graph, phase1, merges, t_max = builder.mine({}, DOMAIN)
        assert phase1 == 0
        assert graph.region_count == 0
        assert t_max == 0.0


class TestBuild:
    def test_build_loads_current_positions(self, histories):
        builder = CTRTreeBuilder(CTParams(), query_rate=1.0)
        pager = Pager()
        current = {oid: trail[-1][0] for oid, trail in histories.items()}
        tree, report = builder.build(pager, DOMAIN, histories, current)
        assert len(tree) == 12
        assert report.object_count == 12
        assert report.phase3_regions == tree.region_count
        assert_verified(tree)

    def test_build_charges_build_category(self, histories):
        builder = CTRTreeBuilder()
        pager = Pager()
        current = {oid: trail[-1][0] for oid, trail in histories.items()}
        _tree, report = builder.build(pager, DOMAIN, histories, current)
        assert report.build_ios > 0
        assert pager.stats.total(IOCategory.BUILD) == report.build_ios
        assert pager.stats.total(IOCategory.UPDATE) == 0

    def test_build_without_current(self, histories):
        builder = CTRTreeBuilder()
        tree, _report = builder.build(Pager(), DOMAIN, histories)
        assert len(tree) == 0
        assert tree.region_count >= 1

    def test_build_on_empty_history_still_works(self):
        builder = CTRTreeBuilder()
        tree, report = builder.build(Pager(), DOMAIN, {}, {0: (5.0, 5.0)})
        assert len(tree) == 1
        assert tree.search_point((5.0, 5.0)) == [0]
        assert report.phase3_regions == 0

    def test_adaptive_flag_propagates(self, histories):
        builder = CTRTreeBuilder(adaptive=False)
        tree, _ = builder.build(Pager(), DOMAIN, histories)
        assert not tree.adaptive

    def test_report_counts_are_consistent(self, histories):
        builder = CTRTreeBuilder()
        _tree, report = builder.build(Pager(), DOMAIN, histories)
        assert report.phase2_regions >= report.phase3_regions
        assert report.phase1_regions >= report.phase2_regions
        assert report.traffic_merges == report.phase2_regions - report.phase3_regions
