"""Golden LSM-R-tree run: one fixed ``citysim`` trace, pinned bit for bit.

The LSM write path (memtable flush -> STR-packed run -> size-tiered merge)
is deterministic given a trace, and every page count, page id, ledger entry
and snapshot byte downstream inherits its output, so a change that claims
to be output-preserving must reproduce these constants exactly.  They were
captured at the parent commit of the change that moved flush and merge onto
numpy column kernels (the per-entry ``str_pack`` / ``_merge`` loops and the
filter-gated membership probes), before any source edit.

The script interleaves inserts, updates, deletes of flushed objects, range
and kNN reads, and is sized (memtable 32, ratio 3, at most 4 runs) so that
every branch of the compactor fires; ``test_trace_exercises_every_path``
asserts that it does, so the constants cannot go stale by the trace quietly
ceasing to reach a path.
"""

import hashlib
import json

import pytest

from repro.citysim import City, CitySimulator
from repro.core.geometry import Rect
from repro.core.params import SimulationParams
from repro.engine.registry import make_index
from repro.storage.iostats import IOCategory
from repro.storage.pager import Pager
from repro.storage.snapshot import build_document
from tests.conftest import assert_verified

OBJECTS = 400
HISTORY = 3
UPDATES = 6
REPORT_INTERVAL_S = 20.0
MEMTABLE = 32
SIZE_RATIO = 3
MAX_RUNS = 4

GOLDEN = {
    "update_reads": 1439,
    "update_writes": 1643,
    "query_reads": 5214,
    "query_writes": 0,
    "flushes": 93,
    "compaction": {
        "compactions": 76,
        "runs_merged": 164,
        "entries_rewritten": 20443,
        "pages_rewritten": 1317,
        "bytes_rewritten": 5394432,
        "tombstones_dropped": 6,
    },
    "run_sizes": [351, 380, 150, 392],
    "run_tombstones": [0, 8, 4, 8],
    "live": 393,
    "page_count": 83,
    "next_pid": 1750,
    "results_sha256": "1c34e273b59150c5d69e73231111684c7e23efcbada9eaba0fcc7c7b35cf2e38",
    "snapshot_sha256": "a1703a76b946fba6602152c76abe762ed10ea9c54c9e2c18e61f4c6578f99b79",
}


def _record_merges(index, events, tombstone_only):
    """Instance-level wrapper (the benchmark probes' technique): note what
    kind of window each merge takes, and every run that holds tombstones but
    no objects (each flush ends in a ``compact_step`` call, so every fresh
    run is seen here before a merge can swallow it)."""
    raw_step = index.compact_step

    def compact_step():
        tombstone_only.update(
            run.seq for run in index.runs if not len(run) and len(run.tombstones)
        )
        window = index.compaction_needed()
        if window is not None:
            tiers = {index._tier(run.size) for run in index.runs[window[0] : window[1]]}
            same_tier = len(tiers) == 1 and window[1] - window[0] >= SIZE_RATIO
            events.append(f"tier{min(tiers)}" if same_tier else "relief")
        return raw_step()

    index.compact_step = compact_step


@pytest.fixture(scope="module")
def replayed():
    city = City.generate(seed=0, n_buildings=71, size=1000.0)
    params = SimulationParams(
        n_objects=OBJECTS,
        update_rate=OBJECTS / REPORT_INTERVAL_S,
        n_history=HISTORY,
        n_updates=UPDATES,
        n_warmup_max=60,
    )
    trace = CitySimulator(city, params, seed=1).run()
    pager = Pager()
    index = make_index(
        "lsm",
        pager,
        city.bounds,
        lsm_memtable=MEMTABLE,
        lsm_size_ratio=SIZE_RATIO,
        lsm_max_runs=MAX_RUNS,
    )
    events = []
    tombstone_only = set()
    _record_merges(index, events, tombstone_only)
    stats = pager.stats
    positions = dict(trace.current_positions(HISTORY))
    deleted = set()
    with stats.category(IOCategory.BUILD):
        for n, (oid, point) in enumerate(positions.items(), start=1):
            index.insert(oid, point, now=trace.load_time(HISTORY))
            if n == MEMTABLE + 8:
                # A tombstone whose only older version sits in the bottom
                # run: the first tier-0 merge must drop it.
                victim = next(iter(positions))
                assert index.delete(victim, positions[victim])
                deleted.add(victim)

    results = []
    for n, record in enumerate(trace.online_updates(HISTORY), start=1):
        with stats.category(IOCategory.UPDATE):
            if record.oid in deleted:
                deleted.discard(record.oid)
                index.insert(record.oid, record.point, now=record.t)
            else:
                index.update(
                    record.oid, positions[record.oid], record.point, now=record.t
                )
            positions[record.oid] = record.point
            if n % 37 == 0:
                # Delete an object some run already holds (a real tombstone).
                victim = next(
                    oid
                    for oid in sorted(positions)
                    if oid not in deleted
                    and index.memtable.pending_for(oid) is None
                    and (oid * 7 + n) % 5 == 0
                )
                assert index.delete(victim, positions[victim], now=record.t)
                deleted.add(victim)
            if n % 500 == 0:
                # Drain pending versions, then flush deletes alone: a run
                # with tombstones and no tree contents.
                index.flush()
                victims = [
                    oid for oid in sorted(positions) if oid not in deleted
                ][n % 7 :: 101][:3]
                for victim in victims:
                    assert index.delete(victim, positions[victim], now=record.t)
                    deleted.add(victim)
                index.flush()
        with stats.category(IOCategory.QUERY):
            if n % 25 == 0:
                x, y = record.point
                rect = Rect((x - 60.0, y - 60.0), (x + 60.0, y + 60.0))
                results.append(index.range_search(rect))
            if n % 90 == 0:
                results.append(index.nearest(record.point, 5))

    live = {oid: p for oid, p in positions.items() if oid not in deleted}
    return {
        "index": index,
        "pager": pager,
        "events": events,
        "tombstone_only_runs": len(tombstone_only),
        "results": results,
        "live": live,
    }


@pytest.fixture(scope="module")
def observed(replayed):
    index = replayed["index"]
    pager = replayed["pager"]
    stats = pager.stats
    document = json.dumps(build_document(index, kind="lsm"), sort_keys=True)
    results = json.dumps(replayed["results"], sort_keys=True)
    return {
        "update_reads": stats.reads(IOCategory.UPDATE),
        "update_writes": stats.writes(IOCategory.UPDATE),
        "query_reads": stats.reads(IOCategory.QUERY),
        "query_writes": stats.writes(IOCategory.QUERY),
        "flushes": index.flushes,
        "compaction": index.compaction.to_dict(),
        "run_sizes": [len(run) for run in index.runs],
        "run_tombstones": [len(run.tombstones) for run in index.runs],
        "live": len(index),
        "page_count": pager.page_count,
        "next_pid": pager._next_pid,
        "results_sha256": hashlib.sha256(results.encode()).hexdigest(),
        "snapshot_sha256": hashlib.sha256(document.encode()).hexdigest(),
    }


def test_trace_exercises_every_path(replayed):
    index = replayed["index"]
    events = replayed["events"]
    assert index.flushes >= 30
    assert "tier0" in events and "tier1" in events and "relief" in events
    assert replayed["tombstone_only_runs"] >= 1
    assert index.compaction.tombstones_dropped >= 1
    assert any(len(run.tombstones) for run in index.runs)


def test_final_state_is_the_replayed_one(replayed):
    index = replayed["index"]
    assert dict(index.iter_objects()) == replayed["live"]
    assert_verified(index)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_matches_the_parent_bit_for_bit(observed, key):
    assert observed[key] == GOLDEN[key]

