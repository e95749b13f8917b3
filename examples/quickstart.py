"""Quickstart: build a CT-R-tree from update history and use it.

The sixty-second tour of the public API:

1. collect per-object location trails (here: a tiny synthetic commuter
   pattern -- home, office, and the road between them);
2. run the CT-R-tree builder, which mines quasi-static regions from the
   trails (paper Figure 3), merges them by resident density and inter-region
   traffic (Figures 4-5, Equation 6), and assembles the index;
3. use the index: constant-I/O in-region updates, range queries, deletes --
   while the I/O ledger shows what each phase cost.

Run:  python examples/quickstart.py
"""

import random

from repro import CTParams, CTRTreeBuilder, Pager, Rect
from repro.health import verify_index


def commuter_trail(rng, home, office, reports_per_dwell=40, interval=20.0):
    """One object's day: jitter at home, drive to the office, jitter there."""
    trail = []
    t = 0.0
    for leg, (cx, cy) in enumerate((home, office)):
        if leg:  # a fast hop between the dwells, sampled mid-flight
            t += interval
            trail.append((((home[0] + office[0]) / 2, (home[1] + office[1]) / 2), t))
        for _ in range(reports_per_dwell):
            t += interval
            trail.append(((cx + rng.gauss(0, 2), cy + rng.gauss(0, 2)), t))
    return trail


def main():
    rng = random.Random(7)
    domain = Rect((0, 0), (1000, 1000))

    # -- 1. history: 50 commuters between a few homes and offices ----------
    homes = [(150, 150), (150, 850), (850, 150)]
    offices = [(500, 500), (850, 850)]
    histories = {
        oid: commuter_trail(rng, rng.choice(homes), rng.choice(offices))
        for oid in range(50)
    }
    current = {oid: trail[-1][0] for oid, trail in histories.items()}

    # -- 2. build ------------------------------------------------------------
    pager = Pager()  # the paged store; every page touch is counted
    builder = CTRTreeBuilder(CTParams(), query_rate=1.0)
    tree, report = builder.build(pager, domain, histories, current)
    print(f"built: {tree}")
    print(
        f"mining: {report.phase1_regions} raw regions -> "
        f"{report.phase3_regions} qs-regions "
        f"({report.build_ios} build I/Os)"
    )

    # -- 3. use ---------------------------------------------------------------
    # An in-region move costs 3 page I/Os: hash read, page read, page write.
    before = (pager.stats.reads(), pager.stats.writes())
    oid = 0
    x, y = current[oid]
    tree.update(oid, (x, y), (x + 1.0, y + 1.0))
    after = (pager.stats.reads(), pager.stats.writes())
    print(
        f"in-region update: {after[0] - before[0]} reads, "
        f"{after[1] - before[1]} writes (lazy hits so far: {tree.lazy_hits})"
    )

    # A cross-region move relocates the object.
    tree.update(oid, (x + 1.0, y + 1.0), (999.0, 5.0))
    print(f"after a long move: relocations={tree.relocations}")

    # Range queries work like any R-tree.
    near_center = tree.range_search(Rect((450, 450), (550, 550)))
    print(f"objects near the office block: {sorted(o for o, _ in near_center)[:10]}")

    tree.delete(oid)
    print(f"after delete: {len(tree)} objects, index still valid: {verify_index(tree).ok}")

    print(f"\nI/O ledger: {pager.stats}")


if __name__ == "__main__":
    main()
