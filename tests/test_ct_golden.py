"""Golden CT-R-tree online run: updates and range queries, pinned bit for bit.

``test_build_golden.py`` pins what the CT-R-tree *build* produces; this
file pins what its *online* operations do next.  One fixed ``citysim``
trace loads a built tree, then replays every later report as an
``UpdateLoc`` with a range query after every 25th.  Each row pins the full
per-category I/O ledger, the lazy-hit and relocation counts, the sha256 of
the canonical range answers and of the ``save_index`` snapshot.

The 2-D row runs the tree the builder mined.  The 1-D and 3-D rows rebuild
the same qs-regions by projection (``x`` alone; ``(x, y)`` plus a third
coordinate derived from them) and replay the projected trace, so every
dimension-general fallback beside a 2-D fast path is pinned too.  The
constants were recorded before the update path was rewritten; a change
that claims to be output-preserving must reproduce them exactly.  The
UPDATE ledgers were re-based once, when a relocation stopped reading its
hash bucket a second time to repoint it: each row's update reads fell by
exactly its relocation count, and nothing else moved.
"""

import hashlib
import json

import pytest

from repro.citysim import City, CitySimulator
from repro.core.builder import CTRTreeBuilder
from repro.core.ctrtree import CTRTree
from repro.core.geometry import Rect
from repro.core.params import CTParams, SimulationParams
from repro.storage.iostats import IOCategory
from repro.storage.pager import Pager
from repro.storage.snapshot import build_document
from tests.conftest import assert_verified

OBJECTS = 300
HISTORY = 20
UPDATES = 8
REPORT_INTERVAL_S = 20.0
MAX_ENTRIES = 8
QUERY_EVERY = 25
QUERY_HALF_SIDE = 60.0

#: Appendix A thresholds sized for a 300-object, 160 s run: buffers convert
#: after one page, and every row converts, promotes or retires something.
CT_PARAMS = CTParams(t_list=1, t_buf_num=4, t_buf_time=20.0, t_remove=0.01)

GOLDEN = {
    1: {
        "ledger": {
            "build": {"reads": 2044, "writes": 1060, "total": 3104},
            "query": {"reads": 2600, "writes": 0, "total": 2600},
            "update": {"reads": 8257, "writes": 4111, "total": 12368},
        },
        "lazy_hits": 1748,
        "relocations": 652,
        "promotions": 2,
        "retirements": 32,
        "height": 3,
        "results_sha256": "aa9ad0c4b22a642834360e7415d599782d832cdc7d1224491ff370535b075974",
        "snapshot_sha256": "69a60d9c532eadb246efec4b3298bd95788e7afb88b99125465be21164c0295b",
    },
    2: {
        "ledger": {
            "build": {"reads": 2002, "writes": 1161, "total": 3163},
            "query": {"reads": 1428, "writes": 0, "total": 1428},
            "update": {"reads": 10646, "writes": 5346, "total": 15992},
        },
        "lazy_hits": 1155,
        "relocations": 1245,
        "promotions": 8,
        "retirements": 1,
        "height": 3,
        "results_sha256": "c458ba69cea3857c421ad4a5526dc1eed585a3461df06429c353c3a5fe5f301e",
        "snapshot_sha256": "f1f4769ad3e13ca744049f51aa493e1080b1d6ff9205e4e242fa877046c27f13",
    },
    3: {
        "ledger": {
            "build": {"reads": 1894, "writes": 1230, "total": 3124},
            "query": {"reads": 1337, "writes": 0, "total": 1337},
            "update": {"reads": 10230, "writes": 5265, "total": 15495},
        },
        "lazy_hits": 1103,
        "relocations": 1297,
        "promotions": 0,
        "retirements": 1,
        "height": 3,
        "results_sha256": "e2198c832621322f6d9b438a5f8a5bb8c18b3129269bd8059e21b461302fcf6b",
        "snapshot_sha256": "87978b57a338feb277dcc528ead504c66c758adaaf883bbf3ab00d85cc723024",
    },
}


def _z(point):
    """The 3-D rows' third coordinate: smooth in (x, y), so moves stay local."""
    return 0.5 * point[0] + 0.25 * point[1]


PROJECTIONS = {
    1: lambda p: (p[0],),
    2: lambda p: p,
    3: lambda p: (p[0], p[1], _z(p)),
}


def _project_rect(rect, dim):
    if dim == 1:
        return Rect((rect.lo[0],), (rect.hi[0],))
    if dim == 2:
        return rect
    return Rect(rect.lo + (_z(rect.lo),), rect.hi + (_z(rect.hi),))


@pytest.fixture(scope="module")
def trace_and_city():
    city = City.generate(seed=0, n_buildings=40, size=1000.0)
    params = SimulationParams(
        n_objects=OBJECTS,
        update_rate=OBJECTS / REPORT_INTERVAL_S,
        n_history=HISTORY,
        n_updates=UPDATES,
        n_warmup_max=60,
    )
    return CitySimulator(city, params, seed=2).run(), city


def _replay(dim, trace, city):
    project = PROJECTIONS[dim]
    load = {oid: project(p) for oid, p in trace.current_positions(HISTORY).items()}
    builder = CTRTreeBuilder(
        CT_PARAMS,
        query_rate=OBJECTS / REPORT_INTERVAL_S / 100.0,
        max_entries=MAX_ENTRIES,
    )
    pager = Pager()
    if dim == 2:
        tree, _report = builder.build(
            pager, city.bounds, trace.histories(HISTORY), load
        )
    else:
        template, _report = builder.build(
            Pager(), city.bounds, trace.histories(HISTORY), None
        )
        with pager.stats.category(IOCategory.BUILD):
            tree = CTRTree(
                pager,
                _project_rect(city.bounds, dim),
                [_project_rect(qs.rect, dim) for _, qs in template.iter_qs_entries()],
                ct_params=builder.params,
                max_entries=MAX_ENTRIES,
            )
            for oid, point in load.items():
                tree.insert(oid, point, now=trace.load_time(HISTORY))
    stats = pager.stats
    results = []
    expected = []
    for n, record in enumerate(trace.online_updates(HISTORY), start=1):
        point = project(record.point)
        with stats.category(IOCategory.UPDATE):
            tree.update(record.oid, load[record.oid], point, now=record.t)
        load[record.oid] = point
        if n % QUERY_EVERY == 0:
            lo = tuple(c - QUERY_HALF_SIDE for c in point)
            hi = tuple(c + QUERY_HALF_SIDE for c in point)
            query = Rect(lo, hi)
            with stats.category(IOCategory.QUERY):
                results.append(tree.range_search(query))
            expected.append(
                sorted(oid for oid, p in load.items() if query.contains_point(p))
            )
    return tree, pager, results, expected


@pytest.fixture(scope="module", params=[1, 2, 3], ids=["1d", "2d", "3d"])
def replayed(request, trace_and_city):
    dim = request.param
    tree, pager, results, expected = _replay(dim, *trace_and_city)
    document = json.dumps(build_document(tree, kind="ct"), sort_keys=True)
    answers = json.dumps(results, sort_keys=True)
    observed = {
        "ledger": pager.stats.to_dict(),
        "lazy_hits": tree.lazy_hits,
        "relocations": tree.relocations,
        "promotions": tree.adaptation.promotions,
        "retirements": tree.adaptation.retirements,
        "height": tree.height,
        "results_sha256": hashlib.sha256(answers.encode()).hexdigest(),
        "snapshot_sha256": hashlib.sha256(document.encode()).hexdigest(),
    }
    return {
        "dim": dim,
        "tree": tree,
        "results": results,
        "expected": expected,
        "observed": observed,
    }


def test_trace_exercises_every_path(replayed):
    tree = replayed["tree"]
    observed = replayed["observed"]
    assert tree.height >= 3
    assert observed["lazy_hits"] > 0 and observed["relocations"] > 0
    assert tree._buffer_trees, "no overflow buffer converted to an alpha-R-tree"
    assert tree.buffered_object_count() > 0
    assert observed["retirements"] > 0
    if replayed["dim"] == 2:
        assert observed["promotions"] > 0


def test_answers_and_structure_are_correct(replayed):
    tree = replayed["tree"]
    assert_verified(tree)
    got = [sorted(oid for oid, _ in found) for found in replayed["results"]]
    assert got == replayed["expected"]


def test_online_run_matches_the_parent(replayed):
    assert replayed["observed"] == GOLDEN[replayed["dim"]]
