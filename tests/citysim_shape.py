"""Movement-shape statistics: is a trace change-tolerant-friendly?

The CT-R-tree's premise (paper Section 2) is a specific movement shape:
long confined dwells punctuated by short fast transitions.  This helper
quantifies that shape for a trace -- the distributional contract the City
Simulator substitute is checked against (``tests/test_simulator.py``) and
that any rewrite of the simulator must keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.params import CTParams
from repro.core.qsregion import TrailSample, identify_qs_regions_batch


@dataclass
class TrailStats:
    """Movement-shape statistics over a set of trails."""

    object_count: int
    sample_count: int
    #: Median distance between consecutive reports (metres).
    median_step: float
    #: 90th-percentile step -- the travel regime.
    p90_step: float
    #: Fraction of steps below ``dwell_step`` (the confined regime).
    dwell_step_fraction: float
    #: Fraction of total time covered by Phase-1 qs-regions.
    dwell_time_fraction: float
    #: Mean qs-regions per object.
    regions_per_object: float

    @property
    def is_change_tolerant_friendly(self) -> bool:
        """Heuristic: most steps confined, most time inside qs-regions."""
        return self.dwell_step_fraction > 0.6 and self.dwell_time_fraction > 0.5


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def trail_stats(
    histories: Mapping[int, Sequence[TrailSample]],
    params: CTParams = None,
    dwell_step: float = 15.0,
) -> TrailStats:
    """Measure the dwell/travel shape of ``histories``.

    Args:
        histories: per-object trails.
        params: thresholds for the qs-region mining pass (Table-1 defaults).
        dwell_step: step length (metres) below which a report counts as
            confined movement.
    """
    if params is None:
        params = CTParams()
    steps = []
    total_time = 0.0
    dwell_time = 0.0
    region_count = 0
    sample_count = 0
    mined = identify_qs_regions_batch(list(histories.values()), params)
    for trail, regions in zip(histories.values(), mined):
        sample_count += len(trail)
        for (p1, _t1), (p2, _t2) in zip(trail, trail[1:]):
            steps.append(math.dist(p1, p2))
        if len(trail) >= 2:
            total_time += trail[-1][1] - trail[0][1]
        region_count += len(regions)
        dwell_time += sum(region.dwell_time for region in regions)

    steps.sort()
    n_objects = len(histories)
    return TrailStats(
        object_count=n_objects,
        sample_count=sample_count,
        median_step=_percentile(steps, 0.5),
        p90_step=_percentile(steps, 0.9),
        dwell_step_fraction=(
            sum(1 for s in steps if s < dwell_step) / len(steps) if steps else 0.0
        ),
        dwell_time_fraction=(dwell_time / total_time) if total_time > 0 else 0.0,
        regions_per_object=(region_count / n_objects) if n_objects else 0.0,
    )
