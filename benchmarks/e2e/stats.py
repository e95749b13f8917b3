"""The percentiles the benchmark reports.

One rule governs every latency figure: a percentile is nearest-rank over
the raw samples and is refused unless at least ``MIN_BEYOND`` samples lie
beyond it -- a p99 over 300 samples is three outliers, not a measurement.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: Samples that must lie strictly beyond a percentile's rank.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(
    sorted_samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> float:
    """Nearest-rank ``q``-th percentile of an ascending sample.

    Raises :class:`TooFewSamples` when fewer than ``min_beyond`` samples
    lie beyond the rank, so a workload that shrank below what its tail
    metric needs fails loudly instead of reporting noise.
    """
    n = len(sorted_samples)
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    rank = max(1, math.ceil(q / 100.0 * n))
    if n == 0 or n - rank < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {max(0, n - rank)} beyond it; "
            f"need {min_beyond}"
        )
    return sorted_samples[rank - 1]


def latency_ms(
    samples_s: Sequence[float],
    quantiles: Sequence[float],
    min_beyond: int = MIN_BEYOND,
) -> Dict[float, float]:
    """``{q: milliseconds}`` for each requested percentile of ``samples_s``."""
    ordered = sorted(samples_s)
    return {q: percentile(ordered, q, min_beyond) * 1e3 for q in quantiles}
