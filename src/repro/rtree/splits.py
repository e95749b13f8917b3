"""Node split policies.

Guttman's linear and quadratic splits [7] and the R*-style split [paper's
"Other structures such as R*-trees use a slightly more complicated decision
process to determine the split", Section 2.2].  Each policy is a pure
function over a list of entries (anything with a ``rect`` attribute),
returning two groups that both respect the minimum fill; the caller wires the
groups back into pages.

The CT-R-tree reuses these for its structural skeleton, so the policies are
deliberately agnostic about what an entry's ``child`` means.

SoA boundary: every R-tree node stores its entries packed in one
struct-of-arrays container (``SoAEntries``); only the CT-R-tree's
structural nodes keep a plain entry list.  The quadratic split -- every
R-tree's default, and the O(n²) PickSeeds / PickNext area arithmetic that
dominates node splits on the build path and the relocation tail -- has a
column form, :func:`quadratic_split_columns`: ``RTree`` hands it a packed
node's coordinate columns, gets two row-index lists back and gathers both
groups from the columns (``SoAEntries.take``), with no ``Entry`` or
``Rect`` per entry.  :func:`quadratic_split` runs the same 2-D kernel over
entry lists (the CT-R-tree's list nodes) and keeps the per-entry ``Rect``
loop as the generic-dimension fallback.  The linear and R* policies have
no column form: the R-tree materializes the node into real
:class:`Entry` objects (one stable, area-cached ``Rect`` per entry,
``SoAEntries.materialize``) for them and packs the returned groups back.
No policy is handed live ``EntryView`` proxies: a view's ``rect`` builds
a fresh ``Rect`` per access and is tied to buffers the caller is about to
overwrite.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

from repro.core.geometry import Columns, Rect

E = TypeVar("E")  # any object with a .rect attribute

SplitResult = Tuple[List[E], List[E]]
SplitFn = Callable[[Sequence[E], int], SplitResult]


def _validate(entries: Sequence[E], min_entries: int) -> None:
    if len(entries) < 2:
        raise ValueError("cannot split fewer than two entries")
    if min_entries < 1:
        raise ValueError("min_entries must be at least 1")
    if len(entries) < 2 * min_entries:
        raise ValueError(
            f"{len(entries)} entries cannot satisfy min fill {min_entries} on both sides"
        )


def quadratic_split(entries: Sequence[E], min_entries: int) -> SplitResult:
    """Guttman's quadratic split: seed with the most wasteful pair, then
    repeatedly assign the entry with the largest preference difference.

    Runs the 2-D kernel when the entries are 2-D, the generic per-entry
    loop otherwise; both yield the same groups."""
    _validate(entries, min_entries)
    rects = [entry.rect for entry in entries]
    if rects[0].dim == 2:
        keep, move = _quadratic_2d([r.lo + r.hi for r in rects], min_entries)
    else:
        keep, move = _quadratic_nd(rects, min_entries)
    return [entries[i] for i in keep], [entries[i] for i in move]


def quadratic_split_columns(
    los: Columns, his: Columns, min_entries: int
) -> Tuple[List[int], List[int]]:
    """:func:`quadratic_split` over packed coordinate columns (one float
    column per dimension per bound, as ``SoAEntries`` stores them),
    returning the two groups as row-index lists."""
    n = len(los[0]) if los else 0
    _validate(range(n), min_entries)
    if len(los) == 2:
        return _quadratic_2d(
            list(zip(los[0], los[1], his[0], his[1])), min_entries
        )
    rects = [
        Rect._make(tuple(c[i] for c in los), tuple(c[i] for c in his))
        for i in range(n)
    ]
    return _quadratic_nd(rects, min_entries)


def _quadratic_2d(
    boxes: List[Tuple[float, float, float, float]], min_entries: int
) -> Tuple[List[int], List[int]]:
    """The 2-D quadratic split over ``(lx, ly, hx, hy)`` boxes.

    Every comparison and float operation is the one :meth:`Rect.union` /
    :attr:`Rect.area` would make, in the same order (unions select with
    ``a if a <= b else b`` / ``a if a >= b else b``, areas are
    ``(hx - lx) * (hy - ly)``), so the groups are exactly those of the
    per-entry loop that :func:`_quadratic_nd` still runs.
    """
    areas = [(hx - lx) * (hy - ly) for lx, ly, hx, hy in boxes]

    # PickSeeds: the pair whose combined rectangle wastes the most area;
    # the first pair when no waste compares greater than -inf.
    worst = -math.inf
    seed_a, seed_b = 0, 1
    for i, (lxi, lyi, hxi, hyi) in enumerate(boxes):
        area_i = areas[i]
        for j in range(i + 1, len(boxes)):
            lxj, lyj, hxj, hyj = boxes[j]
            waste = (
                ((hxi if hxi >= hxj else hxj) - (lxi if lxi <= lxj else lxj))
                * ((hyi if hyi >= hyj else hyj) - (lyi if lyi <= lyj else lyj))
                - area_i
                - areas[j]
            )
            if waste > worst:
                worst = waste
                seed_a, seed_b = i, j

    group_a = [seed_a]
    group_b = [seed_b]
    remaining = [
        (k,) + box for k, box in enumerate(boxes) if k != seed_a and k != seed_b
    ]
    alx, aly, ahx, ahy = boxes[seed_a]
    blx, bly, bhx, bhy = boxes[seed_b]
    area_a = areas[seed_a]
    area_b = areas[seed_b]

    while remaining:
        # If one group must take everything left to reach the minimum, do so.
        if len(group_a) + len(remaining) == min_entries:
            group_a.extend(row[0] for row in remaining)
            break
        if len(group_b) + len(remaining) == min_entries:
            group_b.extend(row[0] for row in remaining)
            break

        # PickNext: entry with the greatest enlargement difference.
        best_pos = 0
        best_diff = -1.0
        for pos, (_k, lx, ly, hx, hy) in enumerate(remaining):
            d_a = (
                ((ahx if ahx >= hx else hx) - (alx if alx <= lx else lx))
                * ((ahy if ahy >= hy else hy) - (aly if aly <= ly else ly))
                - area_a
            )
            d_b = (
                ((bhx if bhx >= hx else hx) - (blx if blx <= lx else lx))
                * ((bhy if bhy >= hy else hy) - (bly if bly <= ly else ly))
                - area_b
            )
            diff = abs(d_a - d_b)
            if diff > best_diff:
                best_diff = diff
                best_pos = pos
        k, lx, ly, hx, hy = remaining.pop(best_pos)
        ua = (
            alx if alx <= lx else lx,
            aly if aly <= ly else ly,
            ahx if ahx >= hx else hx,
            ahy if ahy >= hy else hy,
        )
        ub = (
            blx if blx <= lx else lx,
            bly if bly <= ly else ly,
            bhx if bhx >= hx else hx,
            bhy if bhy >= hy else hy,
        )
        union_a = (ua[2] - ua[0]) * (ua[3] - ua[1])
        union_b = (ub[2] - ub[0]) * (ub[3] - ub[1])
        d_a = union_a - area_a
        d_b = union_b - area_b
        # Resolve ties by smaller area, then smaller group -- the tuple
        # comparison ``(area_a, len_a) <= (area_b, len_b)`` spelt out.
        if d_a < d_b or (
            d_a == d_b
            and (
                len(group_a) <= len(group_b)
                if area_a == area_b
                else area_a <= area_b
            )
        ):
            group_a.append(k)
            alx, aly, ahx, ahy = ua
            area_a = union_a
        else:
            group_b.append(k)
            blx, bly, bhx, bhy = ub
            area_b = union_b

    return group_a, group_b


def _quadratic_nd(
    rects: Sequence[Rect], min_entries: int
) -> Tuple[List[int], List[int]]:
    """The generic-dimension quadratic split over ``Rect`` objects; the
    reference the 2-D kernel mirrors."""
    # PickSeeds: the pair whose combined rectangle wastes the most area.
    worst = -math.inf
    seed_a, seed_b = 0, 1
    for i in range(len(rects)):
        rect_i = rects[i]
        for j in range(i + 1, len(rects)):
            rect_j = rects[j]
            waste = rect_i.union(rect_j).area - rect_i.area - rect_j.area
            if waste > worst:
                worst = waste
                seed_a, seed_b = i, j

    group_a = [seed_a]
    group_b = [seed_b]
    remaining = [k for k in range(len(rects)) if k != seed_a and k != seed_b]
    mbr_a = rects[seed_a]
    mbr_b = rects[seed_b]

    while remaining:
        if len(group_a) + len(remaining) == min_entries:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) == min_entries:
            group_b.extend(remaining)
            break

        best_pos = 0
        best_diff = -1.0
        for pos, k in enumerate(remaining):
            d_a = mbr_a.union(rects[k]).area - mbr_a.area
            d_b = mbr_b.union(rects[k]).area - mbr_b.area
            diff = abs(d_a - d_b)
            if diff > best_diff:
                best_diff = diff
                best_pos = pos
        k = remaining.pop(best_pos)
        rect = rects[k]
        d_a = mbr_a.union(rect).area - mbr_a.area
        d_b = mbr_b.union(rect).area - mbr_b.area
        if d_a < d_b or (
            d_a == d_b
            and (mbr_a.area, len(group_a)) <= (mbr_b.area, len(group_b))
        ):
            group_a.append(k)
            mbr_a = mbr_a.union(rect)
        else:
            group_b.append(k)
            mbr_b = mbr_b.union(rect)

    return group_a, group_b


def linear_split(entries: Sequence[E], min_entries: int) -> SplitResult:
    """Guttman's linear split: seeds are the pair with the greatest normalized
    separation along any dimension; the rest are assigned by least enlargement."""
    _validate(entries, min_entries)
    remaining = list(entries)
    dim = remaining[0].rect.dim

    best_separation = -1.0
    seed_a = 0
    seed_b = 1 if len(remaining) > 1 else 0
    for axis in range(dim):
        highest_lo = max(range(len(remaining)), key=lambda i: remaining[i].rect.lo[axis])
        lowest_hi = min(range(len(remaining)), key=lambda i: remaining[i].rect.hi[axis])
        if highest_lo == lowest_hi:
            continue
        width = (
            max(e.rect.hi[axis] for e in remaining)
            - min(e.rect.lo[axis] for e in remaining)
        )
        if width <= 0:
            continue
        separation = (
            remaining[highest_lo].rect.lo[axis] - remaining[lowest_hi].rect.hi[axis]
        ) / width
        if separation > best_separation:
            best_separation = separation
            seed_a, seed_b = lowest_hi, highest_lo

    if seed_a == seed_b:  # fully overlapping input; any two distinct seeds do
        seed_a, seed_b = 0, 1

    group_a = [remaining[seed_a]]
    group_b = [remaining[seed_b]]
    for index in sorted((seed_a, seed_b), reverse=True):
        remaining.pop(index)
    mbr_a = group_a[0].rect
    mbr_b = group_b[0].rect

    for index, entry in enumerate(remaining):
        left = len(remaining) - index
        # Force-fill a group that needs every remaining entry to reach the
        # minimum; otherwise assign by least enlargement.
        if len(group_a) + left == min_entries:
            group_a.extend(remaining[index:])
            return group_a, group_b
        if len(group_b) + left == min_entries:
            group_b.extend(remaining[index:])
            return group_a, group_b
        d_a = mbr_a.union(entry.rect).area - mbr_a.area
        d_b = mbr_b.union(entry.rect).area - mbr_b.area
        choose_a = d_a < d_b or (d_a == d_b and len(group_a) <= len(group_b))
        if choose_a:
            group_a.append(entry)
            mbr_a = mbr_a.union(entry.rect)
        else:
            group_b.append(entry)
            mbr_b = mbr_b.union(entry.rect)

    return group_a, group_b


def rstar_split(entries: Sequence[E], min_entries: int) -> SplitResult:
    """R*-style split: choose the axis with the least total margin over all
    candidate distributions, then the distribution with the least overlap
    (ties broken by combined area)."""
    _validate(entries, min_entries)
    items = list(entries)
    dim = items[0].rect.dim
    total = len(items)
    max_k = total - min_entries  # split points: min_entries .. max_k

    def distributions(axis: int) -> List[Tuple[List[E], List[E]]]:
        candidates = []
        for sort_key in (
            lambda e: (e.rect.lo[axis], e.rect.hi[axis]),
            lambda e: (e.rect.hi[axis], e.rect.lo[axis]),
        ):
            ordered = sorted(items, key=sort_key)
            for k in range(min_entries, max_k + 1):
                candidates.append((ordered[:k], ordered[k:]))
        return candidates

    best_axis = 0
    best_margin = float("inf")
    for axis in range(dim):
        margin_sum = 0.0
        for left, right in distributions(axis):
            margin_sum += Rect.union_all(e.rect for e in left).margin
            margin_sum += Rect.union_all(e.rect for e in right).margin
        if margin_sum < best_margin:
            best_margin = margin_sum
            best_axis = axis

    best_split: SplitResult = ([], [])
    best_key = (float("inf"), float("inf"))
    for left, right in distributions(best_axis):
        mbr_left = Rect.union_all(e.rect for e in left)
        mbr_right = Rect.union_all(e.rect for e in right)
        key = (mbr_left.overlap_area(mbr_right), mbr_left.area + mbr_right.area)
        if key < best_key:
            best_key = key
            best_split = (list(left), list(right))
    return best_split


SPLIT_POLICIES: Dict[str, SplitFn] = {
    "linear": linear_split,
    "quadratic": quadratic_split,
    "rstar": rstar_split,
}
