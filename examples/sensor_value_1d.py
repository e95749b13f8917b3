"""Change-tolerant indexing in one dimension (paper Section 6, future work).

A value index over a single scalar -- here, temperature -- under a firehose
of readings. Three structures race:

* a paged **B+-tree**: every reading is a delete + re-insert;
* a **lazy B+-tree**: the paper's Figure-1 hash index transplanted to 1-D;
* a **1-D CT index**: the CT-R-tree itself (the pipeline is
  dimension-agnostic), whose Phase 1 mines quasi-static *intervals* --
  operating ranges -- from each sensor's reading history.

The 1-D case sharpens the paper's density argument: hundreds of sensors
share a few operating regimes, so B+-leaf intervals are razor-thin and even
lazy updates cross separators constantly; the mined intervals tolerate all
the drift.

Run:  python examples/sensor_value_1d.py
"""

import random

from repro import BPlusTree, CTParams, CTRTreeBuilder, LazyBPlusTree, Pager, Rect
from repro.health import verify_index
from repro.storage import IOCategory

N_SENSORS = 250
N_HISTORY, N_ONLINE = 110, 50
REGIMES = (5.0, 15.0, 25.0, 35.0)
DOMAIN = Rect((-20.0,), (60.0,))


def simulate(seed=1):
    rng = random.Random(seed)
    trails = {}
    for sid in range(N_SENSORS):
        regime = rng.choice(REGIMES)
        value, t, trail = regime, 0.0, []
        for _ in range(N_HISTORY + N_ONLINE):
            t += 20.0
            if rng.random() < 0.01:  # a front moves through
                regime = rng.choice(REGIMES)
                value = regime
            value += rng.gauss(0, 0.05) + 0.05 * (regime - value)
            trail.append(((value,), t))
        trails[sid] = trail
    return trails


def main():
    trails = simulate()
    histories = {sid: trail[:N_HISTORY] for sid, trail in trails.items()}
    current = {sid: trail[N_HISTORY - 1][0] for sid, trail in trails.items()}
    online = sorted(
        (t, sid, point)
        for sid, trail in trails.items()
        for point, t in trail[N_HISTORY:]
    )
    print(f"{N_SENSORS} sensors, {len(online):,} online readings\n")

    rows = []

    for name, make in (("B+-tree", BPlusTree), ("lazy B+-tree", LazyBPlusTree)):
        pager = Pager()
        tree = make(pager)
        values = {}
        with pager.stats.category(IOCategory.BUILD):
            for sid, (value,) in current.items():
                tree.insert(sid, value)
                values[sid] = value
        with pager.stats.category(IOCategory.UPDATE):
            for _t, sid, (value,) in online:
                tree.update(sid, values[sid], value)
                values[sid] = value
        rows.append((name, pager.stats.total(IOCategory.UPDATE),
                     getattr(tree, "lazy_hits", None)))

    pager = Pager()
    params = CTParams(t_dist=2.0, t_rate=0.05, t_time=300.0, t_area=4.0)
    ct, report = CTRTreeBuilder(params, query_rate=0.1).build(
        pager, DOMAIN, histories, current
    )
    positions = dict(current)
    with pager.stats.category(IOCategory.UPDATE):
        for t, sid, point in online:
            ct.update(sid, positions[sid], point, now=t)
            positions[sid] = point
    rows.append(("CT (1-D)", pager.stats.total(IOCategory.UPDATE), ct.lazy_hits))
    print(f"CT pipeline mined {report.phase3_regions} operating intervals "
          f"(from {report.phase1_regions} raw dwells)\n")

    print(f"{'index':<14} {'update I/O':>12} {'in-place %':>11}")
    print("-" * 39)
    for name, ios, lazy in rows:
        pct = f"{100 * lazy / len(online):.0f}%" if lazy is not None else "-"
        print(f"{name:<14} {ios:>12,} {pct:>11}")

    # The structures agree on value queries.
    band = sorted(oid for oid, _ in ct.range_search(Rect((14.0,), (16.0,))))
    print(f"\nsensors currently reading 14-16 degC: {len(band)}")
    assert verify_index(ct).ok


if __name__ == "__main__":
    main()
