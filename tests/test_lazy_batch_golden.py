"""The lazy-R-tree's I/O per update as a function of batch size, pinned.

A batch is applied page by page (``LazyRTree.apply_batch``): one read per
hash bucket, one read and one write per touched leaf.  The saving therefore
grows with the batch, and an unbatched run pays the paper's full price.  One
fixed ``citysim`` trace is replayed behind ``UpdateBuffer`` at three batch
sizes and unbuffered; the UPDATE ledgers are golden constants, so a refactor
that quietly falls back to one ``update`` call per pending entry fails here
(all four rows would read the unbatched figure) instead of in a benchmark.
"""

import pytest

from repro.citysim import City, CitySimulator
from repro.core.params import SimulationParams
from repro.engine import FlushPolicy, UpdateBuffer, make_index
from repro.health import verify_index
from repro.storage.iostats import IOCategory
from repro.storage.pager import Pager

OBJECTS = 1000
HISTORY = 3
UPDATES = 8
REPORT_INTERVAL_S = 20.0

#: batch size (0 = no buffer, ``index.update`` per report) -> UPDATE ledger.
GOLDEN = {
    0: {"reads": 20927, "writes": 11136},  # 4.008 per update
    16: {"reads": 13871, "writes": 10102},  # 2.997
    64: {"reads": 10139, "writes": 7850},  # 2.249
    256: {"reads": 6248, "writes": 4341},  # 1.324
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


def _replay(city, trace, batch):
    pager = Pager()
    index = make_index("lazy", pager, city.bounds)
    positions = dict(trace.current_positions(HISTORY))
    with pager.stats.category(IOCategory.BUILD):
        for oid, point in positions.items():
            index.insert(oid, point, now=trace.load_time(HISTORY))
    buffer = UpdateBuffer(FlushPolicy(batch_size=batch)) if batch else None
    reports = 0
    with pager.stats.category(IOCategory.UPDATE):
        for record in trace.online_updates(HISTORY):
            if buffer is None:
                index.update(record.oid, positions[record.oid], record.point, now=record.t)
            else:
                buffer.put(record.oid, positions[record.oid], record.point, record.t)
                if len(buffer) >= batch:
                    buffer.flush(index, "size")
            positions[record.oid] = record.point
            reports += 1
        if buffer is not None:
            buffer.flush(index, "final")
    # Index operations: a report superseded while it was pending never ran.
    applied = reports if buffer is None else buffer.stats.applied
    return index, pager.stats.counter(IOCategory.UPDATE), positions, reports, applied


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
    assert per_update[0] == pytest.approx(4.008, abs=5e-4)


@pytest.mark.parametrize("batch", sorted(GOLDEN))
def test_every_replay_ends_in_the_same_verified_state(trace, ledgers, batch):
    city = trace[0]
    index, _counter, positions, reports, applied = ledgers[batch]
    assert reports == OBJECTS * UPDATES
    assert sorted(index.range_search(city.bounds)) == sorted(positions.items())
    assert index.lazy_hits + index.relocations == applied
    assert verify_index(index).ok
