"""Sensor streams: change-tolerant indexing beyond moving objects.

The paper's introduction motivates qs-regions with sensor data too:
"Consider temperature and pressure sensors ... for most of the time the
variation in these parameters is not rapid.  However, during evenings or
during special events like thunderstorms, they can change rapidly.  They
finally settle around their new values."

Here each "object" is a sensor and its "location" is the point
(temperature, pressure).  Readings drift slowly around a per-site operating
point; occasionally a weather front sweeps a group of sensors to a new
operating point.  The CT-R-tree mines the operating points as qs-regions, so
the firehose of readings becomes mostly 3-I/O in-place updates, while range
queries ("which sensors currently read 20-25 degC and 990-1000 hPa?") still
work.

Run:  python examples/sensor_network.py
"""

import random

from repro import CTParams, CTRTreeBuilder, LazyRTree, Pager, Rect
from repro.health import verify_index
from repro.storage import IOCategory
from repro.workload import SimulationDriver
from repro.citysim.trace import TraceRecord

#: Domain: temperature -20..60 degC (x), pressure 940..1060 hPa (y).
DOMAIN = Rect((-20.0, 940.0), (60.0, 1060.0))

#: Climate regimes a sensor can settle in: (temp, pressure) operating points.
REGIMES = [(5.0, 1020.0), (15.0, 1005.0), (25.0, 995.0), (35.0, 975.0)]


def simulate_sensor(rng, n_samples, interval=20.0):
    """One sensor's reading history: drift around a regime, rare fronts."""
    regime = rng.choice(REGIMES)
    temp, pressure = regime
    trail = []
    t = 0.0
    for _ in range(n_samples):
        t += interval
        if rng.random() < 0.01:  # a front arrives: jump to a new regime
            regime = rng.choice(REGIMES)
            temp, pressure = regime
        # Slow drift around the regime's operating point.
        temp += rng.gauss(0, 0.15) + 0.05 * (regime[0] - temp)
        pressure += rng.gauss(0, 0.4) + 0.05 * (regime[1] - pressure)
        trail.append(((temp, pressure), t))
    return trail


def main():
    rng = random.Random(99)
    n_sensors = 400
    n_history, n_online = 110, 60

    print(f"simulating {n_sensors} sensors, {n_history + n_online} readings each...")
    trails = {sid: simulate_sensor(rng, n_history + n_online) for sid in range(n_sensors)}
    histories = {sid: trail[:n_history] for sid, trail in trails.items()}
    current = {sid: trail[n_history - 1][0] for sid, trail in trails.items()}

    # Thresholds in sensor units: a qs-region is a few degrees / hPa wide,
    # held for at least five minutes.
    params = CTParams(t_dist=4.0, t_rate=0.2, t_time=300.0, t_area=50.0)

    pager = Pager()
    builder = CTRTreeBuilder(params, query_rate=0.5)
    tree, report = builder.build(pager, DOMAIN, histories, current)
    print(
        f"mined {report.phase3_regions} operating regions "
        f"(from {report.phase1_regions} raw dwell rectangles)"
    )

    # Replay the online readings against CT-R-tree and lazy-R-tree.
    online = []
    for sid, trail in trails.items():
        for point, t in trail[n_history:]:
            online.append(TraceRecord(oid=sid, point=point, t=t))
    online.sort(key=lambda r: r.t)

    driver = SimulationDriver(tree, pager, "ct")
    driver.adopt(current)
    ct_result = driver.run(online, [])

    lazy_pager = Pager()
    lazy = LazyRTree(lazy_pager)
    lazy_driver = SimulationDriver(lazy, lazy_pager, "lazy")
    lazy_driver.load(current)
    lazy_result = lazy_driver.run(online, [])

    print(f"\n{len(online):,} readings ingested:")
    print(
        f"  CT-R-tree  : {ct_result.update_ios:>8,} I/Os "
        f"({100 * tree.lazy_hits / len(online):.0f}% in-place)"
    )
    print(
        f"  lazy-R-tree: {lazy_result.update_ios:>8,} I/Os "
        f"({100 * lazy.lazy_hits / len(online):.0f}% in-place)"
    )

    # A value-range query over the *current* readings.
    with pager.stats.category(IOCategory.QUERY):
        cool_and_high = tree.range_search(Rect((0.0, 1000.0), (18.0, 1060.0)))
    print(
        f"\nsensors currently reading 0-18 degC and >=1000 hPa: "
        f"{len(cool_and_high)} (query cost "
        f"{pager.stats.total(IOCategory.QUERY)} I/Os)"
    )
    assert verify_index(tree).ok


if __name__ == "__main__":
    main()
