"""What one workload run hands the command line."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from . import spec
from .inputs import Inputs


@dataclass
class Outcome:
    workload: str
    #: Every end-to-end metric that exists on the workload (untraced pass).
    end_to_end: Dict[str, float]
    #: Per-layer metrics this run produced.  A layer the workload bypasses
    #: is absent here and reported as 0.
    layers: Dict[str, float]
    #: Sample count behind each latency family (update / query / knn).
    samples: Dict[str, int]
    attempted: int
    failed: int
    #: Failed checks that are not single ops (final state, verify, budget).
    problems: List[str] = field(default_factory=list)
    #: Worth telling, not wrong (e.g. the stream ended before the window).
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def keep_applicable(workload: str, metrics: Dict[str, float]) -> Dict[str, float]:
    """Only the end-to-end metrics declared for ``workload``."""
    wanted = {m.name for m in spec.END_TO_END if spec.applies(m, workload)}
    return {name: value for name, value in metrics.items() if name in wanted}


def untraced_layers(
    inputs: Inputs, end_to_end: Dict[str, float], verify_s: float, violations: int
) -> Dict[str, float]:
    """The per-layer figures that need no tracing: the input cost, the
    post-run verify, and the workload-specific end-to-end metrics (which
    the manifest can only carry under the ``bench`` layer)."""
    layers = {
        "citysim.generate_s": inputs.generate_s,
        "citysim.records": float(inputs.records),
        "health.verify_s": verify_s,
        "health.violations": float(violations),
    }
    for metric in spec.SPECIFIC_END_TO_END:
        if metric.name in end_to_end:
            layers[f"bench.{metric.name}"] = end_to_end[metric.name]
    return layers
