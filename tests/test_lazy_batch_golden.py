"""The lazy-R-tree's I/O per update as a function of batch size, pinned.

A batch is applied page by page (``LazyRTree.apply_batch``): each page it
touches -- hash bucket, leaf, or a node an escapee's descent passes -- is
read at most once and written at most once.  The saving therefore grows
with the batch, and an unbatched run pays the paper's full price.  One
fixed ``citysim`` trace is replayed behind ``UpdateBuffer`` at three batch
sizes and unbuffered; the UPDATE ledgers are golden constants, so a refactor
that quietly falls back to one ``update`` call per pending entry fails here
(all four rows would read the unbatched figure) instead of in a benchmark.

A ledger does not say *where* an escapee landed, so every row also pins the
sha256 of the final ``save_index`` document (tree pages, hash pointers) and
of the answers to a fixed list of range queries.  Beside the four lazy rows,
an alpha-tree row pins the loose-MBR inflation, and 1-D and 3-D rows (the
same trace, projected as in ``test_ct_golden.py``) pin the dimension-general
code beside every 2-D fast path.  These digests were recorded before the
batch path was rewritten for speed, and held when the batch stopped
re-reading its pages (only the ledgers fell); an output-preserving change
must reproduce them exactly.  The unbatched row's ledger fell once more
when a relocating ``update`` stopped reading its hash bucket twice (one
read fewer per relocation, digests unchanged).  Two pooled rows (lazy and alpha over a
40-frame ``BufferPool``, recorded before the batch's page rule moved into
``repro.storage``) pin what a batch costs through a cache that evicts.
"""

import hashlib
import json
import random

import pytest

from repro.citysim import City, CitySimulator
from repro.core.geometry import Rect
from repro.core.params import SimulationParams
from repro.engine import FlushPolicy, UpdateBuffer, make_index
from repro.health import verify_index
from repro.storage import BufferPool
from repro.storage.iostats import IOCategory
from repro.storage.pager import Pager
from repro.storage.snapshot import build_document

OBJECTS = 1000
HISTORY = 3
UPDATES = 8
REPORT_INTERVAL_S = 20.0

#: batch size (0 = no buffer, ``index.update`` per report) -> UPDATE ledger.
GOLDEN = {
    0: {"reads": 19712, "writes": 11136},  # 3.856 per update
    16: {"reads": 11396, "writes": 9514},  # 2.614
    64: {"reads": 7121, "writes": 6802},  # 1.740
    256: {"reads": 2736, "writes": 2729},  # 0.683
}

#: (kind, dim, batch) -> digests of what the replay leaves behind.  The
#: 2-D lazy rows share GOLDEN's ledgers; the others pin their own.
DIGESTS = {
    ("lazy", 2, 0): {
        "lazy_hits": 6785,
        "relocations": 1215,
        "results_sha256": "82167b3a52db31bf9cd094cb698b44dd1355bb0e819686fd04ed155e3ee3ba68",
        "snapshot_sha256": "a4c9972fa6dce059ce11441c4bf9f0f4963258a4f46098998ad8c8bbb79101eb",
    },
    ("lazy", 2, 16): {
        "lazy_hits": 6786,
        "relocations": 1214,
        "results_sha256": "2c17302c42f2801a7630b88ec53f7cce1e4d0e773a67c0c8cea1a23ad1677ae5",
        "snapshot_sha256": "a931e6a8c10dd29ce4b8a3e75b33283af79db4b4edc05909747129a4cec2e018",
    },
    ("lazy", 2, 64): {
        "lazy_hits": 6783,
        "relocations": 1214,
        "results_sha256": "2c17302c42f2801a7630b88ec53f7cce1e4d0e773a67c0c8cea1a23ad1677ae5",
        "snapshot_sha256": "5a368b81ab0d508ac7dc8c86b02db93147bd43181356682f31ad04c5d5bdc7d5",
    },
    ("lazy", 2, 256): {
        "lazy_hits": 6702,
        "relocations": 1211,
        "results_sha256": "3b1d394ba0c156a373c0815f66dab8115651863de9759c8ef1079695daf7f8e6",
        "snapshot_sha256": "01789ce1df08ba6d46f33c84ae2fedc7fbb527aa62cc3eba31c329ef4755f4ee",
    },
    ("alpha", 2, 64): {
        "ledger": {"reads": 6938, "writes": 6477},
        "lazy_hits": 7164,
        "relocations": 833,
        "results_sha256": "f90982f02f64f667302d51588fe804120cc80fe06d2655a73ee53aca53c2f967",
        "snapshot_sha256": "7c519398ea4fa0d4c9118270a5c0c640092a116cca8c5bccfa04b39fc2d70eeb",
    },
    ("lazy", 1, 64): {
        "ledger": {"reads": 7803, "writes": 7321},
        "lazy_hits": 5893,
        "relocations": 2104,
        "results_sha256": "cc4691ced61909247a8f4e79c8cf0a6d7a1930f67ee17ccb6ddde3df7cf3a8cb",
        "snapshot_sha256": "d7bef861da30f6040e48b4b53543855087728bd82b533a03430b265c55b0714f",
    },
    ("lazy", 3, 64): {
        "ledger": {"reads": 6996, "writes": 6764},
        "lazy_hits": 6657,
        "relocations": 1340,
        "results_sha256": "ac99397b5b57aafb90fd6cb697d8cba4ec603afc7463269882026aff774fe259",
        "snapshot_sha256": "62c9eb6582dc9f48067ccc448cc0160bf4e80195cab3d826f78077806a51fd36",
    },
}

QUERIES = 40
QUERY_HALF_SIDE = 40.0


def _z(point):
    """The 3-D rows' third coordinate: smooth in (x, y), so moves stay local."""
    return 0.5 * point[0] + 0.25 * point[1]


PROJECTIONS = {
    1: lambda p: (p[0],),
    2: lambda p: p,
    3: lambda p: (p[0], p[1], _z(p)),
}


@pytest.fixture(scope="module")
def trace():
    city = City.generate(seed=0, n_buildings=71, size=1000.0)
    params = SimulationParams(
        n_objects=OBJECTS,
        update_rate=OBJECTS / REPORT_INTERVAL_S,
        n_history=HISTORY,
        n_updates=UPDATES,
        n_warmup_max=60,
    )
    return city, CitySimulator(city, params, seed=1).run()


def _replay(city, trace, batch, kind="lazy", dim=2, frames=0):
    """Replay the trace; with ``frames`` the index runs over a
    ``BufferPool`` of that many frames, flushed as the UPDATE phase ends."""
    project = PROJECTIONS[dim]
    pager = Pager()
    store = BufferPool(pager, capacity=frames) if frames else pager
    index = make_index(kind, store, city.bounds)
    positions = {
        oid: project(point) for oid, point in trace.current_positions(HISTORY).items()
    }
    with pager.stats.category(IOCategory.BUILD):
        for oid, point in positions.items():
            index.insert(oid, point, now=trace.load_time(HISTORY))
    buffer = UpdateBuffer(FlushPolicy(batch_size=batch)) if batch else None
    reports = 0
    with pager.stats.category(IOCategory.UPDATE):
        for record in trace.online_updates(HISTORY):
            point = project(record.point)
            if buffer is None:
                index.update(record.oid, positions[record.oid], point, now=record.t)
            else:
                buffer.put(record.oid, positions[record.oid], point, record.t)
                if len(buffer) >= batch:
                    buffer.flush(index, "size")
            positions[record.oid] = point
            reports += 1
        if buffer is not None:
            buffer.flush(index, "final")
        if frames:
            store.flush()
    # Index operations: a report superseded while it was pending never ran.
    applied = reports if buffer is None else buffer.stats.applied
    return index, pager.stats.counter(IOCategory.UPDATE), positions, reports, applied


def _queries(city, dim):
    """A fixed list of square range queries over the city, projected."""
    rng = random.Random(11)
    bounds = city.bounds
    out = []
    for _ in range(QUERIES):
        center = tuple(rng.uniform(l, h) for l, h in zip(bounds.lo, bounds.hi))
        center = PROJECTIONS[dim](center)
        out.append(
            Rect(
                tuple(c - QUERY_HALF_SIDE for c in center),
                tuple(c + QUERY_HALF_SIDE for c in center),
            )
        )
    return out


def _digests(city, index, dim):
    answers = json.dumps([index.range_search(q) for q in _queries(city, dim)])
    document = json.dumps(build_document(index), sort_keys=True)
    return {
        "lazy_hits": index.lazy_hits,
        "relocations": index.relocations,
        "results_sha256": hashlib.sha256(answers.encode()).hexdigest(),
        "snapshot_sha256": hashlib.sha256(document.encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def ledgers(trace):
    return {batch: _replay(*trace, batch) for batch in GOLDEN}


@pytest.mark.parametrize("batch", sorted(GOLDEN))
def test_update_ledger_is_golden(ledgers, batch):
    counter = ledgers[batch][1]
    assert {"reads": counter.reads, "writes": counter.writes} == GOLDEN[batch]


def test_ios_per_update_falls_with_batch_size(ledgers):
    per_update = {
        batch: counter.total / reports
        for batch, (_index, counter, _positions, reports, _applied) in ledgers.items()
    }
    assert per_update[0] > per_update[16] > per_update[64] > per_update[256]
    assert per_update[0] == pytest.approx(3.856, abs=5e-4)


@pytest.mark.parametrize("batch", sorted(GOLDEN))
def test_every_replay_ends_in_the_same_verified_state(trace, ledgers, batch):
    city = trace[0]
    index, _counter, positions, reports, applied = ledgers[batch]
    assert reports == OBJECTS * UPDATES
    assert sorted(index.range_search(city.bounds)) == sorted(positions.items())
    assert index.lazy_hits + index.relocations == applied
    assert verify_index(index).ok


def _row_id(row):
    return "%s-%dd-batch%d" % row


@pytest.fixture(scope="module", params=sorted(DIGESTS), ids=_row_id)
def digested(request, trace, ledgers):
    kind, dim, batch = request.param
    city = trace[0]
    if (kind, dim) == ("lazy", 2):
        replayed = ledgers[batch]
    else:
        replayed = _replay(*trace, batch, kind=kind, dim=dim)
    index, counter, positions, reports, applied = replayed
    observed = _digests(city, index, dim)
    observed["ledger"] = {"reads": counter.reads, "writes": counter.writes}
    return request.param, index, positions, applied, observed


def test_final_tree_and_answers_are_golden(digested):
    row, _index, _positions, _applied, observed = digested
    expected = dict(DIGESTS[row])
    expected.setdefault("ledger", GOLDEN.get(row[2]))
    assert observed == expected


def test_every_digested_row_is_correct(trace, digested):
    (_kind, dim, _batch), index, positions, applied, _observed = digested
    bounds = trace[0].bounds
    domain = Rect(PROJECTIONS[dim](bounds.lo), PROJECTIONS[dim](bounds.hi))
    assert sorted(index.range_search(domain)) == sorted(positions.items())
    assert index.lazy_hits + index.relocations == applied
    assert index.relocations > 0
    assert verify_index(index).ok


#: kind -> a batch-64 replay over ``BufferPool(pager, capacity=40)``: the
#: UPDATE ledger (the pool flushed as the phase ends) and the pool's
#: counters then, the load included.  The pool changes no decision, so the
#: tree and the answers must be the unpooled batch-64 row's.
POOLED = {
    "lazy": {
        "ledger": {"reads": 12448, "writes": 6841},
        "pool": {"hits": 5137, "misses": 12612, "evictions": 12673, "dirty_writebacks": 7006},
    },
    "alpha": {
        "ledger": {"reads": 11841, "writes": 6516},
        "pool": {"hits": 5247, "misses": 11998, "evictions": 12057, "dirty_writebacks": 6674},
    },
}
POOL_FRAMES = 40


@pytest.mark.parametrize("kind", sorted(POOLED))
def test_a_pooled_batch_is_golden(trace, kind):
    city = trace[0]
    index, counter, positions, _reports, applied = _replay(
        *trace, 64, kind=kind, frames=POOL_FRAMES
    )
    pool = index.pager
    assert isinstance(pool, BufferPool)
    observed = {
        "ledger": {"reads": counter.reads, "writes": counter.writes},
        "pool": {
            name: getattr(pool, name)
            for name in ("hits", "misses", "evictions", "dirty_writebacks")
        },
    }
    digests = _digests(city, index, 2)
    assert observed == POOLED[kind]
    unpooled = DIGESTS[(kind, 2, 64)]
    for field in ("lazy_hits", "relocations", "results_sha256", "snapshot_sha256"):
        assert digests[field] == unpooled[field], field
    assert sorted(index.range_search(city.bounds)) == sorted(positions.items())
    assert index.lazy_hits + index.relocations == applied
    assert verify_index(index).ok
