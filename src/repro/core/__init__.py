"""Core library: geometry, parameters, and the change-tolerant index.

The CT-R-tree pipeline (paper Section 3) lives here:

* :mod:`repro.core.qsregion` -- Phase 1, mining quasi-static regions from
  object trail histories (Figure 3);
* :mod:`repro.core.update_graph` -- Phase 2, per-object chain graphs and
  resident-density merging, unified into the update graph (Figure 4);
* :mod:`repro.core.graph_merge` -- Phase 3, traffic-driven merging
  (Equation 6);
* :mod:`repro.core.ctrtree` -- Phase 4, the structural R-tree over
  qs-regions plus the dynamic operations of Section 3.2;
* :mod:`repro.core.adaptive` -- Appendix A, online adaptation to changing
  traffic patterns;
* :mod:`repro.core.builder` -- the end-to-end history -> CT-R-tree pipeline.
"""

from repro.core.geometry import Point, Rect, square_at
from repro.core.params import CTParams, SimulationParams, format_table1
from repro.core.qsregion import (
    QSRegion,
    TrailSample,
    identify_qs_regions,
    identify_qs_regions_batch,
    trail_duration,
)
from repro.core.update_graph import UpdateGraph, build_update_graph, merge_by_density
from repro.core.graph_merge import merge_by_traffic
from repro.core.overflow import DataPage, NodeBuffer, QSEntry
from repro.core.ctrtree import CTNode, CTRTree
from repro.core.adaptive import AdaptationManager
from repro.core.builder import BuildReport, CTRTreeBuilder

__all__ = [
    "Point",
    "Rect",
    "square_at",
    "CTParams",
    "SimulationParams",
    "format_table1",
    "QSRegion",
    "TrailSample",
    "identify_qs_regions",
    "identify_qs_regions_batch",
    "trail_duration",
    "UpdateGraph",
    "build_update_graph",
    "merge_by_density",
    "merge_by_traffic",
    "DataPage",
    "NodeBuffer",
    "QSEntry",
    "CTNode",
    "CTRTree",
    "AdaptationManager",
    "BuildReport",
    "CTRTreeBuilder",
]
