"""The end-to-end CT-R-tree construction pipeline (Section 3.1).

Glues the four phases together:

1. :func:`~repro.core.qsregion.identify_qs_regions_batch` over all objects'
   trails at once;
2. :func:`~repro.core.update_graph.build_update_graph` (chain graphs,
   resident-density merging, graph union, edge-weight scaling);
3. :func:`~repro.core.graph_merge.merge_by_traffic` (Equation 6);
4. a :class:`~repro.core.ctrtree.CTRTree` over the surviving qs-regions,
   loaded with the objects' current positions.

All construction I/O is charged to ``IOCategory.BUILD`` -- the paper treats
index construction as an offline process and excludes it from the online
update/query measurements ("the time required to generate the CT-R-tree ...
is usually less than ten minutes.  Also, since this process can be done in an
offline fashion, it does not interrupt the processing of online updates").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.ctrtree import CTRTree
from repro.core.geometry import Point, Rect
from repro.core.graph_merge import merge_by_traffic
from repro.core.params import CTParams
from repro.core.qsregion import TrailSample, identify_qs_regions_batch, trail_duration
from repro.core.update_graph import UpdateGraph, build_update_graph
from repro.hashindex import HashIndex
from repro.obs.metrics import get_registry
from repro.storage.iostats import IOCategory
from repro.storage.pager import Pager


@dataclass
class BuildReport:
    """What the pipeline did, for experiment logs and tests."""

    object_count: int
    phase1_regions: int
    phase2_regions: int
    phase3_regions: int
    traffic_merges: int
    t_max: float
    build_reads: int
    build_writes: int
    #: Wall-clock seconds per construction phase (phase1_qs_mining,
    #: phase2_graph, phase3_traffic_merge, phase4_tree_load).
    phase_timings: Dict[str, float] = field(default_factory=dict)
    #: Phase-2b work counts (``merge_by_density``'s grid path on the unified
    #: graph): candidate sets built and candidate pairs tested.  They repeat
    #: exactly for a trace, so the build's growth shows without a clock.
    density_candidate_sets: int = 0
    density_tests: int = 0

    @property
    def build_ios(self) -> int:
        return self.build_reads + self.build_writes

    def to_dict(self) -> Dict[str, object]:
        return {
            "object_count": self.object_count,
            "phase1_regions": self.phase1_regions,
            "phase2_regions": self.phase2_regions,
            "phase3_regions": self.phase3_regions,
            "traffic_merges": self.traffic_merges,
            "t_max": self.t_max,
            "build_reads": self.build_reads,
            "build_writes": self.build_writes,
            "build_ios": self.build_ios,
            "phase_timings": dict(self.phase_timings),
            "density_candidate_sets": self.density_candidate_sets,
            "density_tests": self.density_tests,
        }


class CTRTreeBuilder:
    """History -> CT-R-tree, with the paper's thresholds.

    Args:
        ct_params: Phase-1/Equation-6/adaptation thresholds.
        query_rate: the anticipated query arrival rate ``r_q`` (Equation 6).
        max_entries: page fan-out (``N_entry``).
        split: structural split policy.
        exhaustive: candidate generation for Phase-2 merging on the unified
            graph (None = auto by size; see ``merge_by_density``).
        adaptive: enable Appendix-A adaptation on the produced tree.
    """

    def __init__(
        self,
        ct_params: Optional[CTParams] = None,
        *,
        query_rate: float = 50.0,
        max_entries: int = 20,
        split: str = "quadratic",
        exhaustive: Optional[bool] = None,
        adaptive: bool = True,
    ) -> None:
        self.params = ct_params if ct_params is not None else CTParams()
        self.query_rate = query_rate
        self.max_entries = max_entries
        self.split = split
        self.exhaustive = exhaustive
        self.adaptive = adaptive
        #: Wall-clock seconds per phase of the most recent mine()/build().
        self.last_phase_timings: Dict[str, float] = {}

    # -- phases 1-3 ---------------------------------------------------------

    def mine(
        self,
        histories: Mapping[int, Sequence[TrailSample]],
        domain: Rect,
    ) -> Tuple[UpdateGraph, int, int, float]:
        """Run Phases 1-3; returns (graph, phase1 count, traffic merges, t_max).

        Each phase is a timed span: wall-clock seconds land in
        ``self.last_phase_timings`` and (when enabled) the metrics registry.
        Construction is offline, so the few ``perf_counter`` calls are free
        relative to the work they bracket.
        """
        registry = get_registry()
        timings = self.last_phase_timings = {}

        t0 = perf_counter()
        per_object = identify_qs_regions_batch(
            list(histories.values()), self.params, list(histories)
        )
        phase1_count = sum(len(regions) for regions in per_object)
        t_max = max((trail_duration(t) for t in histories.values()), default=0.0)
        timings["phase1_qs_mining"] = perf_counter() - t0

        t0 = perf_counter()
        graph = build_update_graph(
            per_object, self.params.t_area, t_max, exhaustive=self.exhaustive
        )
        timings["phase2_graph"] = perf_counter() - t0

        t0 = perf_counter()
        traffic_merges = merge_by_traffic(
            graph, self.query_rate, domain.area, self.params
        )
        timings["phase3_traffic_merge"] = perf_counter() - t0

        for phase, seconds in timings.items():
            registry.record_duration(f"build.{phase}_s", seconds)
        registry.inc("build.phase2.density_candidate_sets", graph.density_candidate_sets)
        registry.inc("build.phase2.density_tests", graph.density_tests)
        return graph, phase1_count, traffic_merges, t_max

    # -- phase 4 ---------------------------------------------------------------

    def build(
        self,
        pager: Pager,
        domain: Rect,
        histories: Mapping[int, Sequence[TrailSample]],
        current: Optional[Mapping[int, Point]] = None,
        hash_index: Optional[HashIndex] = None,
    ) -> Tuple[CTRTree, BuildReport]:
        """Mine qs-regions from ``histories`` and load ``current`` positions.

        The paper's protocol: "The first N_hist - 1 records are used to
        generate an R-tree composed of qs-regions.  The N_hist-th sample is
        then inserted to the R-tree to produce the CT-R-tree" -- pass the
        first samples as ``histories`` and the last as ``current``.
        """
        stats = pager.stats
        before = stats.counter(IOCategory.BUILD)
        with stats.category(IOCategory.BUILD):
            graph, phase1_count, traffic_merges, t_max = self.mine(histories, domain)
            phase2_count = graph.region_count + traffic_merges  # pre-Phase-3 count
            t0 = perf_counter()
            tree = CTRTree(
                pager,
                domain,
                graph.regions(),
                ct_params=self.params,
                max_entries=self.max_entries,
                split=self.split,
                hash_index=hash_index,
                adaptive=self.adaptive,
            )
            if current:
                for obj_id, point in current.items():
                    tree.insert(obj_id, point)
            self.last_phase_timings["phase4_tree_load"] = perf_counter() - t0
            get_registry().record_duration(
                "build.phase4_tree_load_s",
                self.last_phase_timings["phase4_tree_load"],
            )
        after = stats.counter(IOCategory.BUILD)

        report = BuildReport(
            object_count=len(histories),
            phase1_regions=phase1_count,
            phase2_regions=phase2_count,
            phase3_regions=graph.region_count,
            traffic_merges=traffic_merges,
            t_max=t_max,
            build_reads=after.reads - before.reads,
            build_writes=after.writes - before.writes,
            phase_timings=dict(self.last_phase_timings),
            density_candidate_sets=graph.density_candidate_sets,
            density_tests=graph.density_tests,
        )
        return tree, report
