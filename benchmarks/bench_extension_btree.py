"""Extension bench (paper Section 6): change tolerance in one dimension.

Three indexes over a stream of scalar sensor readings (drift around an
operating point, rare regime jumps):

* plain B+-tree -- every reading is a delete + re-insert;
* lazy B+-tree -- hash index on sensor id; in-leaf readings cost 3 I/Os;
* CT index -- a 1-D CT-R-tree whose qs-*intervals* are mined from reading
  history by the unmodified Phase-1/2/3 pipeline (the algorithms are
  dimension-agnostic).

Expected shape: the same story as Figure 8's update-heavy end, transplanted
to 1-D -- plain >> lazy >= CT on update I/O, with CT's tolerance set by the
mined operating intervals rather than by split-dependent leaf boundaries.
"""

import random

import pytest

from repro.btree import BPlusTree, LazyBPlusTree
from repro.core.builder import CTRTreeBuilder
from repro.core.geometry import Rect
from repro.core.params import CTParams
from repro.health import verify_index
from repro.storage.iostats import IOCategory
from repro.storage.pager import Pager
from benchmarks.conftest import save_result

N_SENSORS = 300
N_HISTORY = 110
N_ONLINE = 40
REGIMES = (5.0, 15.0, 25.0, 35.0)
DOMAIN_1D = Rect((-20.0,), (60.0,))


def simulate_readings(seed=0):
    """Per-sensor scalar trails: slow drift, 1% regime jumps."""
    rng = random.Random(seed)
    trails = {}
    for sid in range(N_SENSORS):
        regime = rng.choice(REGIMES)
        value = regime
        t = 0.0
        trail = []
        for _ in range(N_HISTORY + N_ONLINE):
            t += 20.0
            if rng.random() < 0.01:
                regime = rng.choice(REGIMES)
                value = regime
            value += rng.gauss(0, 0.05) + 0.05 * (regime - value)
            trail.append(((value,), t))
        trails[sid] = trail
    return trails


@pytest.fixture(scope="module")
def workload():
    trails = simulate_readings()
    histories = {sid: trail[:N_HISTORY] for sid, trail in trails.items()}
    current = {sid: trail[N_HISTORY - 1][0] for sid, trail in trails.items()}
    online = []
    for sid, trail in trails.items():
        for point, t in trail[N_HISTORY:]:
            online.append((t, sid, point))
    online.sort()
    return histories, current, online


def run_btree(cls, workload):
    histories, current, online = workload
    pager = Pager()
    tree = cls(pager)
    positions = {}
    with pager.stats.category(IOCategory.BUILD):
        for sid, point in current.items():
            tree.insert(sid, point[0])
            positions[sid] = point[0]
    with pager.stats.category(IOCategory.UPDATE):
        for _t, sid, point in online:
            tree.update(sid, positions[sid], point[0])
            positions[sid] = point[0]
    with pager.stats.category(IOCategory.QUERY):
        for low in range(-10, 50, 3):
            tree.range_search(float(low), float(low) + 3.0)
    return tree, pager


def run_ct(workload):
    histories, current, online = workload
    pager = Pager()
    params = CTParams(t_dist=2.0, t_rate=0.05, t_time=300.0, t_area=4.0)
    builder = CTRTreeBuilder(params, query_rate=0.1)
    tree, _report = builder.build(pager, DOMAIN_1D, histories)
    positions = {}
    with pager.stats.category(IOCategory.BUILD):
        for sid, point in current.items():
            tree.insert(sid, point)
            positions[sid] = point
    with pager.stats.category(IOCategory.UPDATE):
        for t, sid, point in online:
            tree.update(sid, positions[sid], point, now=t)
            positions[sid] = point
    with pager.stats.category(IOCategory.QUERY):
        for low in range(-10, 50, 3):
            tree.range_search(Rect((float(low),), (float(low) + 3.0,)))
    return tree, pager


@pytest.fixture(scope="module")
def results(workload):
    plain_tree, plain_pager = run_btree(BPlusTree, workload)
    lazy_tree, lazy_pager = run_btree(LazyBPlusTree, workload)
    ct_tree, ct_pager = run_ct(workload)
    return {
        "B+-tree": (plain_tree, plain_pager),
        "lazy B+-tree": (lazy_tree, lazy_pager),
        "CT (1-D)": (ct_tree, ct_pager),
    }


def test_extension_table(benchmark, results, workload):
    _histories, _current, online = workload
    lines = [
        "Extension: 1-D sensor-value indexing (Section 6 future work)",
        f"{N_SENSORS} sensors, {len(online)} readings",
        f"{'index':<14} {'update I/O':>12} {'query I/O':>10} {'lazy %':>8}",
    ]
    for name, (tree, pager) in results.items():
        lazy_hits = getattr(tree, "lazy_hits", None)
        lazy_pct = f"{100 * lazy_hits / len(online):.0f}%" if lazy_hits is not None else "-"
        lines.append(
            f"{name:<14} {pager.stats.total(IOCategory.UPDATE):>12,} "
            f"{pager.stats.total(IOCategory.QUERY):>10,} {lazy_pct:>8}"
        )
    save_result("extension_btree", "\n".join(lines))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_lazy_beats_plain(results):
    """Lazy helps, but only partially: 300 sensors packed into 4 operating
    regimes make B+-leaf intervals razor-thin, so even tiny drift crosses a
    separator about half the time.  (This is exactly the 1-D version of
    Figure 11's density argument -- and why CT's mined intervals win.)"""
    plain = results["B+-tree"][1].stats.total(IOCategory.UPDATE)
    lazy = results["lazy B+-tree"][1].stats.total(IOCategory.UPDATE)
    assert lazy < 0.85 * plain


def test_ct_beats_lazy_decisively(results):
    lazy = results["lazy B+-tree"][1].stats.total(IOCategory.UPDATE)
    ct = results["CT (1-D)"][1].stats.total(IOCategory.UPDATE)
    assert ct < 0.7 * lazy


def test_ct_interval_tolerance_holds(results, workload):
    _histories, _current, online = workload
    ct_tree, ct_pager = results["CT (1-D)"]
    assert ct_tree.lazy_hits / len(online) > 0.8
    lazy = results["lazy B+-tree"][1].stats.total(IOCategory.UPDATE)
    ct = ct_pager.stats.total(IOCategory.UPDATE)
    assert ct < 1.3 * lazy  # competitive with (typically beating) lazy

    # Results must agree across structures: same sensors in 14-16 degrees.
    ct_hits = sorted(oid for oid, _ in ct_tree.range_search(Rect((14.0,), (16.0,))))
    lazy_hits_ids = sorted(
        oid for oid, _ in results["lazy B+-tree"][0].range_search(14.0, 16.0)
    )
    assert ct_hits == lazy_hits_ids


def test_all_structures_valid(results):
    for name, (tree, _pager) in results.items():
        report = verify_index(tree)
        assert report.ok, f"{name}: {report.summary()}"
