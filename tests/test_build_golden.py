"""Golden CT-R-tree build: one fixed ``citysim`` trace, pinned bit for bit.

The construction pipeline is deterministic given a trace, and everything
downstream (page counts, snapshots, the paper's figures) inherits its output,
so a change to Phases 1-2 that claims to be output-preserving must reproduce
these constants exactly.  They were captured at the parent commit of the
change that introduced the column kernels (the per-sample Phase 1 and
per-pair Phase 2b loops), before any source edit.

The trace is sized so the unified Phase-2 graph exceeds 256 regions: below
that ``merge_by_density`` takes the exhaustive path and the grid kernel would
go untested.
"""

import hashlib
import json

import pytest

from repro.citysim import City, CitySimulator
from repro.core.builder import CTRTreeBuilder
from repro.core.params import SimulationParams
from repro.storage.pager import Pager
from repro.storage.snapshot import build_document

OBJECTS = 400
HISTORY = 60
REPORT_INTERVAL_S = 20.0

GOLDEN = {
    "phase1_regions": 483,
    "phase2_regions": 388,
    "phase3_regions": 385,
    "traffic_merges": 3,
    "build_ios": 4286,
}
GOLDEN_SNAPSHOT_SHA256 = "9714b7e88e1b37527252a9caea00d7050eeb5c6448d80314b06de201e3b294cb"
#: The work counters did not exist at the parent; pinned when introduced.
GOLDEN_DENSITY_TESTS = 40123
GOLDEN_DENSITY_CANDIDATE_SETS = 486


@pytest.fixture(scope="module")
def built():
    city = City.generate(seed=0, n_buildings=71, size=1000.0)
    params = SimulationParams(
        n_objects=OBJECTS,
        update_rate=OBJECTS / REPORT_INTERVAL_S,
        n_history=HISTORY,
        n_updates=1,
        n_warmup_max=60,
    )
    trace = CitySimulator(city, params, seed=1).run()
    builder = CTRTreeBuilder(query_rate=OBJECTS / REPORT_INTERVAL_S / 100.0)
    return builder.build(
        Pager(),
        city.bounds,
        trace.histories(HISTORY),
        trace.current_positions(HISTORY),
    )


def test_trace_is_large_enough_for_the_grid_path(built):
    _tree, report = built
    # Merging only shrinks the graph, so the unified graph Phase 2b started
    # from had at least this many regions.
    assert report.phase2_regions > 256
    assert report.density_candidate_sets > 0


def test_region_counts_and_build_io_match_the_parent(built):
    _tree, report = built
    assert {key: getattr(report, key) for key in GOLDEN} == GOLDEN


def test_snapshot_document_matches_the_parent_byte_for_byte(built):
    tree, _report = built
    document = json.dumps(build_document(tree, kind="ct"), sort_keys=True)
    assert hashlib.sha256(document.encode()).hexdigest() == GOLDEN_SNAPSHOT_SHA256


def test_work_counts_repeat_exactly(built):
    _tree, report = built
    assert report.density_tests == GOLDEN_DENSITY_TESTS
    assert report.density_candidate_sets == GOLDEN_DENSITY_CANDIDATE_SETS
