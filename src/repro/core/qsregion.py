"""Phase 1: identifying quasi-static regions from object trail histories.

Implements the algorithm of the paper's Figure 3.  A trail is scanned in
time order while an MBR grows to enclose successive samples; the MBR stops
growing -- and is *frozen* as a qs-region if it qualifies -- when both

* its diameter (diagonal) exceeds ``T_dist`` (Equation 1), and
* its diameter growth rate exceeds ``T_rate`` (Equation 2),

signalling that "the object has started moving faster and thus should not be
considered as lying in a qs-region".  The frozen MBR qualifies when the
object dwelled in it longer than ``T_time`` and its area is under ``T_area``;
otherwise it is discarded (singleton rectangles like 'a'-'d' in Figure 2(a),
or sprawling ones whose dead space would hurt queries).

One deliberate deviation, documented here and in DESIGN.md: Figure 3's step
3(B)(a) tests ``A_i(j,k) < T_area`` -- the area *including* the sample that
broke the growth conditions -- although the rectangle actually frozen is
``B_i(j,k-1)``.  We test the area of the frozen rectangle itself, which is
the self-consistent reading (the paper's k-indexed area is, with high
likelihood, a typo).  We also finalize the rectangle still growing when the
trail ends; the paper's pseudo-code simply drops it, losing the (frequent)
final dwell of every object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.geometry import Point, Rect, column_areas
from repro.core.params import CTParams

#: One trail record: a location and its timestamp (``(x_ik, y_ik, t_ik)``).
TrailSample = Tuple[Point, float]


@dataclass
class QSRegion:
    """A quasi-static region mined from one object's trail (``B_il``).

    Attributes:
        rect: the frozen bounding rectangle.
        dwell_time: total time the object spent inside (``tau_il``).
        object_id: owner of the trail this region came from (None after
            cross-object merging).
        order: position within the owner's qs-region sequence, used to wire
            the Phase-2 chain graph.
    """

    rect: Rect
    dwell_time: float
    object_id: Optional[int] = None
    order: int = 0
    #: Object ids whose trails contributed to this region (grows as regions
    #: merge in Phases 2-3).
    sources: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.dwell_time < 0:
            raise ValueError("dwell_time must be non-negative")
        if not self.sources and self.object_id is not None:
            self.sources = [self.object_id]

    @property
    def area(self) -> float:
        return self.rect.area

    def resident_density(self, epsilon: float = 1e-9) -> float:
        """Dwell time per unit area (the Phase-2 merge criterion).

        Degenerate rectangles (a perfectly still object) get ``epsilon``
        area so their density is large but finite.
        """
        return self.dwell_time / max(self.rect.area, epsilon)


def identify_qs_regions(
    trail: Sequence[TrailSample],
    params: CTParams,
    object_id: Optional[int] = None,
) -> List[QSRegion]:
    """Segment one object's trail into qs-regions (Figure 3).

    Args:
        trail: samples ordered by increasing timestamp.
        params: the thresholds ``t_dist``/``t_rate``/``t_time``/``t_area``.
        object_id: attached to the produced regions for Phase 2.

    Returns:
        The object's qs-regions in time order.
    """
    return identify_qs_regions_batch([trail], params, [object_id])[0]


def identify_qs_regions_batch(
    trails: Sequence[Sequence[TrailSample]],
    params: CTParams,
    object_ids: Optional[Sequence[Optional[int]]] = None,
) -> List[List[QSRegion]]:
    """Figure 3 over many trails at once: one vector step per sample index.

    Every trail's growing MBR advances together -- running bounds, diagonal,
    growth rate and the freeze-or-restart decision are columns over the
    objects -- and Python objects are built only for the rectangles that
    freeze.  Each column operation is the IEEE operation the per-sample
    recurrence performs, in the same order (comparisons select the bounds;
    squares and side products accumulate in dimension order), so the result
    does not depend on how many trails share a batch.

    Args:
        trails: one sample sequence per object, each ordered by
            non-decreasing timestamp; lengths may differ.
        params: the Phase-1 thresholds.
        object_ids: owner per trail (default: no owner).

    Returns:
        Per trail, its qs-regions in time order.
    """
    n = len(trails)
    out: List[List[QSRegion]] = [[] for _ in range(n)]
    lengths = np.fromiter((len(trail) for trail in trails), np.intp, n)
    total = int(lengths.sum())
    if total == 0:
        return out
    if object_ids is None:
        object_ids = [None] * n

    # Pack the ragged trails into (objects, samples[, dim]) columns; slots
    # past a trail's end are never read (every step is masked by length).
    dim = len(next(trail for trail in trails if len(trail))[0][0])
    coords = np.fromiter(
        chain.from_iterable(point for trail in trails for point, _ in trail),
        np.float64,
    )
    if dim == 0 or coords.size != total * dim:
        raise ValueError("trail points must share one positive dimension")
    steps = int(lengths.max())
    filled = np.arange(steps) < lengths[:, None]
    points = np.zeros((n, steps, dim))
    points[filled] = coords.reshape(total, dim)
    times = np.zeros((n, steps))
    times[filled] = np.fromiter(
        (time for trail in trails for _, time in trail), np.float64, total
    )
    if np.any((times[:, 1:] < times[:, :-1]) & filled[:, 1:]):
        raise ValueError("trail samples must be ordered by non-decreasing time")

    # Steps 1-2: each MBR starts as its trail's first sample.  ``diag`` is
    # the diagonal of the current MBR (0 for a point), ``window_start`` the
    # timestamp of the oldest sample inside it (t_j).
    lo = points[:, 0].copy()
    hi = points[:, 0].copy()
    diag = np.zeros(n)
    window_start = times[:, 0].copy()
    prev_time = times[:, 0].copy()

    frozen_rows, frozen_lo, frozen_hi, frozen_dwell = [], [], [], []

    def freeze(rows: np.ndarray) -> None:
        """Keep the current MBR of ``rows`` where it qualifies as a qs-region."""
        dwell = prev_time[rows] - window_start[rows]
        keep = (dwell > params.t_time) & (
            column_areas(hi[rows] - lo[rows]) < params.t_area
        )
        rows = rows[keep]
        if len(rows):
            frozen_rows.append(rows)
            frozen_lo.append(lo[rows])
            frozen_hi.append(hi[rows])
            frozen_dwell.append(dwell[keep])

    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, steps):
            active = filled[:, k]
            point = points[:, k]
            time = times[:, k]
            # Step 3(A): the MBR expanded to the k-th sample.
            new_lo = np.where(point < lo, point, lo)
            new_hi = np.where(point > hi, point, hi)
            side = new_hi[:, 0] - new_lo[:, 0]
            squares = side * side
            for d in range(1, dim):
                side = new_hi[:, d] - new_lo[:, d]
                squares = squares + side * side
            new_diag = np.sqrt(squares)
            dt = time - prev_time
            growth_rate = np.where(dt > 0, (new_diag - diag) / dt, np.inf)
            stop = active & (new_diag > params.t_dist) & (growth_rate > params.t_rate)
            # Step 3(B): stop growing; freeze or discard B(j, k-1), then
            # restart from the sample that broke the growth.
            freeze(np.flatnonzero(stop))
            grow = (active & ~stop)[:, None]
            stop_col = stop[:, None]
            lo = np.where(stop_col, point, np.where(grow, new_lo, lo))
            hi = np.where(stop_col, point, np.where(grow, new_hi, hi))
            diag = np.where(stop, 0.0, np.where(active, new_diag, diag))
            window_start = np.where(stop, time, window_start)
            prev_time = np.where(active, time, prev_time)

    # Finalize the rectangles still growing when their histories end.
    freeze(np.flatnonzero(lengths > 0))

    if not frozen_rows:
        return out
    # Frozen rectangles were collected step by step; a stable sort by trail
    # restores each trail's time order.  ``tolist`` keeps numpy scalars out
    # of the regions.
    rows = np.concatenate(frozen_rows)
    by_trail = np.argsort(rows, kind="stable")
    for row, low, high, dwell in zip(
        rows[by_trail].tolist(),
        np.concatenate(frozen_lo)[by_trail].tolist(),
        np.concatenate(frozen_hi)[by_trail].tolist(),
        np.concatenate(frozen_dwell)[by_trail].tolist(),
    ):
        regions = out[row]
        regions.append(
            QSRegion(
                rect=Rect._make(tuple(low), tuple(high)),
                dwell_time=dwell,
                object_id=object_ids[row],
                order=len(regions),
            )
        )
    return out


def trail_duration(trail: Sequence[TrailSample]) -> float:
    """Duration of a trail (``t_i,|Hi| - t_i,1``); 0 for empty/singleton trails."""
    if len(trail) < 2:
        return 0.0
    return trail[-1][1] - trail[0][1]
