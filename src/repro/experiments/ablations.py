"""Ablations: the design choices DESIGN.md calls out, measured one by one.

These go beyond the paper's own figures and quantify *why* the CT-R-tree
behaves as it does:

* ``secondary_index`` -- the hash index of Figure 1 (traditional R-tree vs
  lazy-R-tree) at the baseline mix: how much of the win is just lazy updates;
* ``merge_phases`` -- CT-R-tree built from raw Phase-1 regions vs after
  Phase-2 density merging vs the full pipeline: what the merging buys;
* ``t_list`` -- the linked-list -> alpha-R-tree conversion threshold;
* ``split_policy`` -- linear / quadratic / R* splits under the lazy-R-tree;
* ``buffer_pool`` -- an LRU cache under the lazy-R-tree and the CT-R-tree:
  does the CT advantage survive caching;
* ``bulk_loading`` -- STR packing vs repeated insertion for the initial load.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.builder import CTRTreeBuilder
from repro.core.ctrtree import CTRTree
from repro.core.params import CTParams
from repro.core.qsregion import identify_qs_regions_batch
from repro.experiments.harness import (
    ExperimentResult,
    WorkloadBundle,
    build_workload,
    ratio_controls,
    run_index_on,
)
from repro.rtree.bulk import str_pack
from repro.rtree.lazy import LazyRTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.iostats import IOCategory
from repro.storage.pager import Pager
from repro.engine import IndexKind, make_index
from repro.workload import QueryWorkload, SimulationDriver, UpdateStream

BASELINE_RATIO = 100.0


def _controls(bundle: WorkloadBundle, ratio: float = BASELINE_RATIO):
    duration = bundle.update_stream().duration
    return ratio_controls(bundle.scale, duration, ratio)


def run_secondary_index(scale: str = "small", seed: int = 0) -> ExperimentResult:
    bundle = build_workload(scale, seed)
    skip, query_rate = _controls(bundle)
    result = ExperimentResult(
        title=f"Ablation: secondary hash index (scale={scale})",
        columns=["index", "update I/O", "query I/O", "total I/O", "I/O per update"],
    )
    for kind in (IndexKind.RTREE, IndexKind.LAZY):
        run_ = run_index_on(kind, bundle, skip=skip, query_rate=query_rate)
        result.add(
            **{
                "index": IndexKind.LABELS[kind],
                "update I/O": run_.result.update_ios,
                "query I/O": run_.result.query_ios,
                "total I/O": run_.result.total_ios,
                "I/O per update": run_.result.ios_per_update,
            }
        )
    result.notes.append("Section 2.1: lazy in-MBR updates cost a constant 3 I/Os")
    return result


def run_merge_phases(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """CT-R-tree with the merging pipeline truncated after each phase."""
    bundle = build_workload(scale, seed)
    skip, query_rate = _controls(bundle)
    params = CTParams()
    histories = bundle.histories()
    current = bundle.current()

    def run_with_regions(regions, label: str, result: ExperimentResult) -> None:
        pager = Pager()
        with pager.stats.category(IOCategory.BUILD):
            tree = CTRTree(pager, bundle.domain, regions, ct_params=params)
            for oid, point in current.items():
                tree.insert(oid, point)
        driver = SimulationDriver(tree, pager, label)
        driver.adopt(current)
        stream = bundle.update_stream(skip=skip)
        queries = QueryWorkload(
            bundle.domain, query_rate, 0.001, seed=99
        ).between(*stream.time_span())
        run_result = driver.run(stream, queries)
        result.add(
            **{
                "pipeline": label,
                "qs-regions": tree.region_count,
                "update I/O": run_result.update_ios,
                "query I/O": run_result.query_ios,
                "total I/O": run_result.total_ios,
            }
        )

    result = ExperimentResult(
        title=f"Ablation: qs-region merging phases (scale={scale})",
        columns=["pipeline", "qs-regions", "update I/O", "query I/O", "total I/O"],
    )

    phase1_regions = [
        region
        for regions in identify_qs_regions_batch(
            list(histories.values()), params, list(histories)
        )
        for region in regions
    ]
    run_with_regions(phase1_regions, "phase 1 only", result)

    builder = CTRTreeBuilder(params, query_rate=query_rate)
    graph, _count, _merges, _tmax = builder.mine(histories, bundle.domain)
    run_with_regions(graph.regions(), "full pipeline (1+2+3)", result)
    result.notes.append(
        "phase 2/3 merging trades region count for chain locality and fewer "
        "overlapping candidates per insert"
    )
    return result


def run_t_list(
    scale: str = "small", seed: int = 0, values: Sequence[int] = (1, 2, 4, 8, 16)
) -> ExperimentResult:
    bundle = build_workload(scale, seed)
    skip, query_rate = _controls(bundle)
    result = ExperimentResult(
        title=f"Ablation: T_list conversion threshold (scale={scale})",
        columns=["t_list", "update I/O", "query I/O", "total I/O"],
    )
    for value in values:
        params = CTParams(t_list=value)
        run_ = run_index_on(
            IndexKind.CT, bundle, skip=skip, query_rate=query_rate, ct_params=params
        )
        result.add(
            **{
                "t_list": value,
                "update I/O": run_.result.update_ios,
                "query I/O": run_.result.query_ios,
                "total I/O": run_.result.total_ios,
            }
        )
    return result


def run_split_policy(scale: str = "small", seed: int = 0) -> ExperimentResult:
    bundle = build_workload(scale, seed)
    skip, query_rate = _controls(bundle)
    result = ExperimentResult(
        title=f"Ablation: split policy under the lazy-R-tree (scale={scale})",
        columns=["split", "update I/O", "query I/O", "total I/O"],
    )
    stream = bundle.update_stream(skip=skip)
    variants = [
        ("linear", {}),
        ("quadratic", {}),
        ("rstar", {}),
        ("rstar + forced reinsert", {"forced_reinsert": 0.3}),
    ]
    for split, extra in variants:
        pager = Pager()
        tree = LazyRTree(pager, split=split.split(" ")[0], **extra)
        driver = SimulationDriver(tree, pager, f"lazy-{split}")
        driver.load(bundle.current())
        queries = QueryWorkload(
            bundle.domain, query_rate, 0.001, seed=99
        ).between(*stream.time_span())
        run_result = driver.run(stream, queries)
        result.add(
            **{
                "split": split,
                "update I/O": run_result.update_ios,
                "query I/O": run_result.query_ios,
                "total I/O": run_result.total_ios,
            }
        )
    return result


def run_buffer_pool(
    scale: str = "small", seed: int = 0, capacity: int = 256
) -> ExperimentResult:
    """Does the CT-R-tree's advantage survive an LRU cache?"""
    bundle = build_workload(scale, seed)
    skip, query_rate = _controls(bundle)
    result = ExperimentResult(
        title=f"Ablation: LRU buffer pool, {capacity} frames (scale={scale})",
        columns=["index", "cache", "total I/O", "hit rate"],
    )
    for kind in (IndexKind.LAZY, IndexKind.CT):
        for cached in (False, True):
            pager = Pager()
            store = BufferPool(pager, capacity=capacity) if cached else pager
            index = make_index(
                kind,
                store,  # type: ignore[arg-type]
                bundle.domain,
                histories=bundle.histories() if kind == IndexKind.CT else None,
                query_rate=query_rate,
            )
            driver = SimulationDriver(index, store, kind)  # type: ignore[arg-type]
            driver.load(bundle.current())
            stream = bundle.update_stream(skip=skip)
            queries = QueryWorkload(
                bundle.domain, query_rate, 0.001, seed=99
            ).between(*stream.time_span())
            run_result = driver.run(stream, queries)
            result.add(
                **{
                    "index": IndexKind.LABELS[kind],
                    "cache": "LRU" if cached else "none",
                    "total I/O": run_result.total_ios,
                    "hit rate": store.hit_rate if cached else 0.0,
                }
            )
    return result


def run_bulk_loading(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """STR packing vs repeated insertion for the initial load of a lazy tree."""
    bundle = build_workload(scale, seed)
    current = bundle.current()
    result = ExperimentResult(
        title=f"Ablation: bulk loading the initial positions (scale={scale})",
        columns=["method", "build I/O", "leaf pages", "query I/O (100 queries)"],
    )
    for method in ("repeated insertion", "STR packing"):
        pager = Pager()
        tree = LazyRTree(pager)
        with pager.stats.category(IOCategory.BUILD):
            if method == "STR packing":
                str_pack(tree.tree, list(current.items()))
                tree.hash.set_many(
                    (entry.child, leaf.pid)
                    for leaf in tree.tree.iter_leaves()
                    for entry in leaf.entries
                )
            else:
                for oid, point in current.items():
                    tree.insert(oid, point)
        build_io = pager.stats.total(IOCategory.BUILD)
        queries = QueryWorkload(bundle.domain, 1.0, 0.001, seed=99).take(100)
        with pager.stats.category(IOCategory.QUERY):
            for query in queries:
                tree.range_search(query.rect)
        result.add(
            **{
                "method": method,
                "build I/O": build_io,
                "leaf pages": sum(1 for _ in tree.tree.iter_leaves()),
                "query I/O (100 queries)": pager.stats.total(IOCategory.QUERY),
            }
        )
    return result


def run_mobility_models(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Robustness of the CT-R-tree to the movement model.

    The city model is the paper's premise (dwell/travel); random waypoint
    has dwells but no shared buildings; Gauss-Markov never dwells at all --
    the adversarial case where the CT-R-tree should degrade gracefully
    toward lazy-R-tree behaviour, not collapse.
    """
    from repro.citysim import City, CitySimulator
    from repro.citysim.models import make_model
    from repro.citysim.trace import Trace
    from repro.experiments.scales import get_scale
    import random as random_module

    preset = get_scale(scale)
    result = ExperimentResult(
        title=f"Ablation: mobility models (scale={scale})",
        columns=[
            "model",
            "qs-regions",
            "lazy-R-tree I/O",
            "CT-R-tree I/O",
            "CT lazy %",
        ],
    )
    for model_name in ("city", "waypoint", "gauss_markov"):
        city = City.generate(seed=seed, n_buildings=preset.n_buildings)
        rng = random_module.Random(seed + 1)
        simulator = CitySimulator(
            city,
            preset.simulation_params(),
            seed=seed + 1,
            report_interval=preset.report_interval,
            model=make_model(model_name, city, rng),
        )
        trace: Trace = simulator.run()
        histories = trace.histories(preset.n_history)
        current = trace.current_positions(preset.n_history)
        stream = UpdateStream(trace, preset.n_history)
        row: Dict[str, object] = {"model": model_name}
        for kind in (IndexKind.LAZY, IndexKind.CT):
            pager = Pager()
            index = make_index(
                kind,
                pager,
                city.bounds,
                histories=histories if kind == IndexKind.CT else None,
                query_rate=preset.base_update_rate / 100.0,
            )
            driver = SimulationDriver(index, pager, kind)
            driver.load(current)
            run_result = driver.run(stream, [])
            label = "lazy-R-tree I/O" if kind == IndexKind.LAZY else "CT-R-tree I/O"
            row[label] = run_result.update_ios
            if kind == IndexKind.CT:
                row["qs-regions"] = index.region_count  # type: ignore[attr-defined]
                row["CT lazy %"] = 100.0 * index.lazy_hits / max(run_result.n_updates, 1)
        result.add(**row)
    result.notes.append(
        "gauss_markov is the adversarial no-dwell case: few qs-regions, "
        "CT should track (not beat) the lazy-R-tree"
    )
    return result


def run(scale: str = "small", seed: int = 0) -> Dict[str, ExperimentResult]:
    return {
        "secondary_index": run_secondary_index(scale, seed),
        "merge_phases": run_merge_phases(scale, seed),
        "t_list": run_t_list(scale, seed),
        "split_policy": run_split_policy(scale, seed),
        "buffer_pool": run_buffer_pool(scale, seed),
        "bulk_loading": run_bulk_loading(scale, seed),
        "mobility_models": run_mobility_models(scale, seed),
    }


def main(scale: str = "small") -> None:
    for result in run(scale).values():
        print(result)
        print()


if __name__ == "__main__":
    import sys

    main(sys.argv[1] if len(sys.argv) > 1 else "small")
