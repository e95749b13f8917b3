#!/usr/bin/env python
"""Geometry micro-benchmark: the Rect hot-path kernels.

Times the four predicates every R-tree descent funnels through --
``intersects``, ``union``, ``enlargement``, ``contains_point`` -- through
the :class:`~repro.core.geometry.Rect` methods and, for ``intersects`` and
``enlargement``, through the flat-tuple kernels per-entry loops use
(``rect_intersects``, ``rect_enlargement``), over a fixed-seed pair set.
The kernel and method paths perform identical floating-point operations,
so this also cross-checks that the fast paths agree bit-for-bit with the
objects they replace.

Two more sections:

* **node scans** (:func:`run_node_scan_bench`): whole-node intersect-all
  and choose-subtree over the packed node layout
  (:class:`~repro.rtree.node.SoAEntries`) versus a per-entry loop over a
  ``list[Entry]`` (one flat-tuple kernel call per entry, what a node scan
  cost before entries were packed), at fanout-scale and vectorized-scale
  node sizes.  Results are asserted identical per query before anything
  is timed.
* **dispatch RTT** (:func:`run_dispatch_bench`): per-``("ping", token)``
  round-trip through real shard worker processes, over the pipe transport
  and over the shared-memory mailbox.

Importable: :func:`run_geometry_bench` & co. return the result dicts that
``bench_regression.py`` embeds under the ``geometry`` / ``soa`` keys of
``BENCH_driver.json``.  Wall clocks are hardware-dependent and exist for
trend-watching; only the agreement checks are asserted.

Usage::

    PYTHONPATH=src python benchmarks/bench_geometry.py [--pairs 4096]
        [--repeat 5] [--pings 200] [--skip-dispatch] [--out geometry.json]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.geometry import (  # noqa: E402
    Rect,
    rect_enlargement,
    rect_intersects,
)

DOMAIN = 1000.0


def make_pairs(
    n_pairs: int, seed: int = 0
) -> List[Tuple[Rect, Rect, Tuple[float, float]]]:
    """Fixed-seed (rect, rect, point) triples spanning hits and misses."""
    rng = random.Random(seed)
    out = []
    for _ in range(n_pairs):
        ax = rng.uniform(0.0, DOMAIN - 60.0)
        ay = rng.uniform(0.0, DOMAIN - 60.0)
        a = Rect((ax, ay), (ax + rng.uniform(1.0, 60.0), ay + rng.uniform(1.0, 60.0)))
        # Half the partners land near a (overlap likely), half anywhere.
        if rng.random() < 0.5:
            bx = ax + rng.uniform(-40.0, 40.0)
            by = ay + rng.uniform(-40.0, 40.0)
        else:
            bx = rng.uniform(0.0, DOMAIN - 60.0)
            by = rng.uniform(0.0, DOMAIN - 60.0)
        bx = max(0.0, bx)
        by = max(0.0, by)
        b = Rect((bx, by), (bx + rng.uniform(1.0, 60.0), by + rng.uniform(1.0, 60.0)))
        point = (rng.uniform(0.0, DOMAIN), rng.uniform(0.0, DOMAIN))
        out.append((a, b, point))
    return out


def _best_of(fn: Callable[[], int], repeat: int) -> Tuple[float, int]:
    """(best wall-clock seconds, ops per pass) over ``repeat`` passes."""
    best = float("inf")
    ops = 0
    for _ in range(repeat):
        t0 = perf_counter()
        ops = fn()
        elapsed = perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best, ops


def run_geometry_bench(n_pairs: int = 4096, repeat: int = 5) -> Dict[str, object]:
    """Time the hot-path predicates; returns the bench-JSON ``geometry`` dict."""
    pairs = make_pairs(n_pairs)

    def method_intersects() -> int:
        count = 0
        for a, b, _ in pairs:
            if a.intersects(b):
                count += 1
        return len(pairs)

    def kernel_intersects() -> int:
        fast = rect_intersects
        count = 0
        for a, b, _ in pairs:
            if fast(a.lo, a.hi, b.lo, b.hi):
                count += 1
        return len(pairs)

    def method_contains() -> int:
        count = 0
        for a, _, point in pairs:
            if a.contains_point(point):
                count += 1
        return len(pairs)

    def method_union() -> int:
        for a, b, _ in pairs:
            a.union(b)
        return len(pairs)

    def method_enlargement() -> int:
        for a, b, _ in pairs:
            a.enlargement(b)
        return len(pairs)

    def kernel_enlargement() -> int:
        fast = rect_enlargement
        for a, b, _ in pairs:
            fast(a.lo, a.hi, b.lo, b.hi, a.area)
        return len(pairs)

    timed: Dict[str, Dict[str, Callable[[], int]]] = {
        "intersects": {"method": method_intersects, "kernel": kernel_intersects},
        "contains_point": {"method": method_contains},
        "union": {"method": method_union},
        "enlargement": {"method": method_enlargement, "kernel": kernel_enlargement},
    }
    result: Dict[str, object] = {"n_pairs": n_pairs, "repeat": repeat, "ops": {}}
    ops_out: Dict[str, Dict[str, float]] = {}
    for name, variants in timed.items():
        entry: Dict[str, float] = {}
        for variant, fn in variants.items():
            seconds, ops = _best_of(fn, repeat)
            entry[f"{variant}_ns_per_op"] = seconds / ops * 1e9
        ops_out[name] = entry
    result["ops"] = ops_out
    return result


# -- whole-node scan micro-bench (packed columns vs per-entry loop) --------


def _per_entry_intersecting(entries, qlo, qhi) -> List[int]:
    """Intersect-all as one flat-tuple kernel call per ``Entry``."""
    inter = rect_intersects
    out = []
    for i, entry in enumerate(entries):
        rect = entry.rect
        if inter(rect.lo, rect.hi, qlo, qhi):
            out.append(i)
    return out


def _per_entry_choose(entries, rlo, rhi) -> int:
    """Guttman's choose-subtree as one flat-tuple kernel call per ``Entry``
    (least enlargement, then least area, first index wins ties)."""
    enlargement_of = rect_enlargement
    best = -1
    best_enl = float("inf")
    best_area = float("inf")
    for i, entry in enumerate(entries):
        rect = entry.rect
        area = rect.area
        enl = enlargement_of(rect.lo, rect.hi, rlo, rhi, area)
        if enl < best_enl or (enl == best_enl and area < best_area):
            best = i
            best_enl = enl
            best_area = area
    return best


def _make_node(n: int, seed: int):
    """The same entries packed and as a ``list[Entry]``, plus probe rects."""
    from repro.rtree.node import Entry, SoAEntries

    rng = random.Random(seed)
    soa = SoAEntries()
    entries = []
    for child in range(n):
        x = rng.uniform(0.0, DOMAIN - 80.0)
        y = rng.uniform(0.0, DOMAIN - 80.0)
        rect = Rect(
            (x, y),
            (x + rng.uniform(1.0, 80.0), y + rng.uniform(1.0, 80.0)),
        )
        soa.append(Entry(rect, child))
        entries.append(Entry(rect, child))
    queries = []
    for _ in range(64):
        qx = rng.uniform(0.0, DOMAIN - 120.0)
        qy = rng.uniform(0.0, DOMAIN - 120.0)
        queries.append(
            Rect(
                (qx, qy),
                (qx + rng.uniform(5.0, 120.0), qy + rng.uniform(5.0, 120.0)),
            )
        )
    return soa, entries, queries


def run_node_scan_bench(
    sizes: Tuple[int, ...] = (20, 256), repeat: int = 5, seed: int = 11
) -> Dict[str, object]:
    """Whole-node scans, packed vs per-entry loop; asserts identical results.

    ``n=20`` is real fanout (the pure-Python scan path), ``n=256`` is the
    vectorized regime the CI gate watches.  ``vectorized`` records whether
    the largest size reaches the numpy scan path (``NP_SCAN_MIN``).
    """
    from repro.core.geometry import NP_SCAN_MIN

    out: Dict[str, object] = {
        "repeat": repeat,
        "vectorized": max(sizes) >= NP_SCAN_MIN,
        "sizes": {},
    }
    for n in sizes:
        soa, entries, queries = _make_node(n, seed)
        # Agreement first: a wrong scan must never be timed.
        for q in queries:
            if soa.intersecting_indices(q.lo, q.hi) != _per_entry_intersecting(
                entries, q.lo, q.hi
            ):
                raise AssertionError(f"intersect-all disagrees at n={n}")
            if soa.choose_subtree(q.lo, q.hi) != _per_entry_choose(
                entries, q.lo, q.hi
            ):
                raise AssertionError(f"choose-subtree disagrees at n={n}")

        def soa_intersect() -> int:
            scan = soa.intersecting_indices
            for q in queries:
                scan(q.lo, q.hi)
            return len(queries)

        def per_entry_intersect() -> int:
            for q in queries:
                _per_entry_intersecting(entries, q.lo, q.hi)
            return len(queries)

        def soa_choose() -> int:
            choose = soa.choose_subtree
            for q in queries:
                choose(q.lo, q.hi)
            return len(queries)

        def per_entry_choose() -> int:
            for q in queries:
                _per_entry_choose(entries, q.lo, q.hi)
            return len(queries)

        entry: Dict[str, object] = {"agree": True}
        for name, soa_fn, per_entry_fn in (
            ("intersect_all", soa_intersect, per_entry_intersect),
            ("choose_subtree", soa_choose, per_entry_choose),
        ):
            soa_s, ops = _best_of(soa_fn, repeat)
            per_entry_s, _ = _best_of(per_entry_fn, repeat)
            entry[name] = {
                "soa_ns_per_scan": soa_s / ops * 1e9,
                "per_entry_ns_per_scan": per_entry_s / ops * 1e9,
                "speedup": per_entry_s / soa_s if soa_s > 0 else float("inf"),
            }
        out["sizes"][str(n)] = entry
    return out


# -- PR 10: NP_SCAN_MIN crossover sweep ------------------------------------


def run_scan_crossover_sweep(
    sizes: Tuple[int, ...] = (8, 16, 24, 32, 48, 64, 96, 128, 192, 256),
    repeat: int = 7,
    seed: int = 23,
) -> Dict[str, object]:
    """Where does the numpy scan engine overtake the pure-Python loop?

    Times ``node_intersecting_indices`` twice per node size -- once with
    the numpy path forced (``NP_SCAN_MIN`` pinned to 1) and once with the
    scalar loop forced (pinned past every size) -- and reports the
    smallest size where the numpy path wins.  The shipped ``NP_SCAN_MIN``
    should sit at or just above that crossover; DESIGN.md section 12
    records the measured value per host class.
    """
    import repro.core.geometry as geometry

    out: Dict[str, object] = {
        "current_threshold": geometry.NP_SCAN_MIN,
        "repeat": repeat,
        "sizes": {},
        "measured_crossover": None,
    }
    rng = random.Random(seed)
    saved = geometry.NP_SCAN_MIN
    crossover = None
    try:
        for n in sizes:
            from array import array

            los = (array("d"), array("d"))
            his = (array("d"), array("d"))
            for _ in range(n):
                x = rng.uniform(0.0, DOMAIN - 80.0)
                y = rng.uniform(0.0, DOMAIN - 80.0)
                los[0].append(x)
                los[1].append(y)
                his[0].append(x + rng.uniform(1.0, 80.0))
                his[1].append(y + rng.uniform(1.0, 80.0))
            queries = []
            for _ in range(256):
                qx = rng.uniform(0.0, DOMAIN - 120.0)
                qy = rng.uniform(0.0, DOMAIN - 120.0)
                queries.append(
                    (
                        (qx, qy),
                        (qx + rng.uniform(5.0, 120.0), qy + rng.uniform(5.0, 120.0)),
                    )
                )

            def scan_all() -> int:
                scan = geometry.node_intersecting_indices
                for qlo, qhi in queries:
                    scan(los, his, qlo, qhi)
                return len(queries)

            geometry.NP_SCAN_MIN = 1  # force the numpy engine
            np_s, ops = _best_of(scan_all, repeat)
            geometry.NP_SCAN_MIN = max(sizes) + 1  # force the scalar loop
            py_s, _ = _best_of(scan_all, repeat)
            out["sizes"][str(n)] = {
                "numpy_ns_per_scan": np_s / ops * 1e9,
                "python_ns_per_scan": py_s / ops * 1e9,
                "numpy_wins": np_s < py_s,
            }
            if crossover is None and np_s < py_s:
                crossover = n
    finally:
        geometry.NP_SCAN_MIN = saved
    out["measured_crossover"] = crossover
    return out


# -- PR 7: worker dispatch round-trip (pipe / shm) --------------------------


def run_dispatch_bench(n_pings: int = 200, warmup: int = 20) -> Dict[str, object]:
    """Per-ping RTT through real shard workers, one per transport.

    Modes that cannot run on the host (no fork, no /dev/shm) record
    ``None`` with a reason instead of failing the bench.
    """
    import multiprocessing as mp
    import statistics

    from repro.engine.registry import IndexOptions
    from repro.parallel.shm import shm_available
    from repro.parallel.workers import ProcessWorker

    region = Rect((0.0, 0.0), (DOMAIN, DOMAIN))
    options = IndexOptions(max_entries=20)

    def time_worker(worker) -> Dict[str, float]:
        try:
            ready = worker.result()
            assert ready.get("ok"), ready
            for i in range(warmup):
                worker.submit(("ping", i))
                worker.result()
            samples = []
            for i in range(n_pings):
                t0 = perf_counter()
                worker.submit(("ping", i))
                resp = worker.result()
                samples.append(perf_counter() - t0)
                assert resp["ok"] and resp["pong"] == i
            return {
                "median_us": statistics.median(samples) * 1e6,
                "mean_us": statistics.fmean(samples) * 1e6,
                "p90_us": sorted(samples)[int(len(samples) * 0.9)] * 1e6,
            }
        finally:
            worker.close()

    out: Dict[str, object] = {"n_pings": n_pings, "modes": {}}
    out["modes"]["process_pipe"] = time_worker(
        ProcessWorker("rtree", 0, region, options, transport="pipe")
    )
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    if shm_available(mp.get_context(method)):
        out["modes"]["process_shm"] = time_worker(
            ProcessWorker("rtree", 0, region, options, transport="shm")
        )
    else:
        out["modes"]["process_shm"] = None
        out["shm_unavailable_reason"] = (
            "needs fork start method and a writable /dev/shm"
        )
    return out


# -- agreement checks (run in the tier-1 suite; timings are not asserted) --


def test_node_scans_agree_with_per_entry_loop() -> None:
    for n in (0, 1, 7, 20, 64, 200):
        soa, entries, queries = _make_node(n, seed=n + 40)
        for q in queries:
            assert soa.intersecting_indices(q.lo, q.hi) == _per_entry_intersecting(
                entries, q.lo, q.hi
            )
            assert soa.choose_subtree(q.lo, q.hi) == _per_entry_choose(
                entries, q.lo, q.hi
            )
            assert soa.containing_point_indices(q.lo) == [
                i for i, e in enumerate(entries) if e.rect.contains_point(q.lo)
            ]
        expected = Rect.union_all(e.rect for e in entries) if entries else None
        assert soa.union_rect() == expected


def test_kernels_agree_with_methods() -> None:
    pairs = make_pairs(512, seed=7)
    for a, b, point in pairs:
        assert rect_intersects(a.lo, a.hi, b.lo, b.hi) == a.intersects(b)
        assert rect_enlargement(a.lo, a.hi, b.lo, b.hi, a.area) == a.enlargement(b)
        union = a.union(b)
        assert union.lo == tuple(min(x, y) for x, y in zip(a.lo, b.lo))
        assert union.hi == tuple(max(x, y) for x, y in zip(a.hi, b.hi))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=4096)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--pings", type=int, default=200)
    parser.add_argument(
        "--skip-dispatch", action="store_true",
        help="skip the worker round-trip section (spawns processes)",
    )
    parser.add_argument("--out", default=None, metavar="JSON")
    args = parser.parse_args(argv)

    result = run_geometry_bench(args.pairs, args.repeat)
    for name, entry in result["ops"].items():
        parts = ", ".join(f"{k[:-10]} {v:8.1f} ns/op" for k, v in entry.items())
        print(f"  {name:<15} {parts}")

    node_scan = run_node_scan_bench(repeat=args.repeat)
    result["node_scan"] = node_scan
    for n, entry in node_scan["sizes"].items():
        for op in ("intersect_all", "choose_subtree"):
            row = entry[op]
            print(
                f"  node[{n:>3}] {op:<15} soa {row['soa_ns_per_scan']:8.1f} "
                f"per-entry {row['per_entry_ns_per_scan']:8.1f} ns/scan "
                f"({row['speedup']:.2f}x)"
            )

    crossover = run_scan_crossover_sweep(repeat=args.repeat)
    result["scan_crossover"] = crossover
    for n, row in crossover["sizes"].items():
        marker = "np" if row["numpy_wins"] else "py"
        print(
            f"  scan[{n:>3}] numpy {row['numpy_ns_per_scan']:8.1f} "
            f"python {row['python_ns_per_scan']:8.1f} ns/scan  <- {marker}"
        )
    print(
        f"  crossover: numpy wins from n={crossover['measured_crossover']} "
        f"(shipped NP_SCAN_MIN={crossover['current_threshold']})"
    )

    if not args.skip_dispatch:
        dispatch = run_dispatch_bench(n_pings=args.pings)
        result["dispatch"] = dispatch
        for mode, row in dispatch["modes"].items():
            if row is None:
                print(f"  rtt[{mode}] unavailable")
            else:
                print(
                    f"  rtt[{mode:<12}] median {row['median_us']:7.1f} us  "
                    f"p90 {row['p90_us']:7.1f} us"
                )

    if args.out:
        Path(args.out).write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
