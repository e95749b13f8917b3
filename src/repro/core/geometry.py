"""Points and (minimum bounding) rectangles.

The paper develops the CT-R-tree in two dimensions but notes the algorithms
"are applicable to the general case of any multidimensional data"
(Section 3.1.1).  :class:`Rect` is therefore dimension-agnostic: a pair of
coordinate tuples ``lo``/``hi``.  Rectangles are closed (boundary points are
contained) and immutable; every operation returns a new rectangle.

This module is the innermost hot path of the whole system: every
choose-subtree descent, split evaluation and query fan-out funnels through
``intersects``/``enlargement``/``union``/``contains_point``.  The methods
therefore carry unrolled 2-D fast paths (the evaluated workloads are 2-D; the
n-D general case falls through to the original loops), ``area`` is computed
once and cached (rectangles are immutable), and the module exposes
**flat-tuple kernels** (:func:`rect_intersects`, :func:`rect_enlargement`)
operating directly on ``lo``/``hi`` tuples so per-entry loops skip method
dispatch.  All fast paths perform the same floating-point operations in
the same order as the generic paths, so results are bit-identical.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as _np

#: A point is a tuple of coordinates, e.g. ``(x, y)``.
Point = Tuple[float, ...]


def finite(coords: Iterable[float]) -> bool:
    """Whether every coordinate is a finite float: not NaN, not an
    infinity, not a number too large for a float (an int like
    ``10**400``).  Each coordinate is tested on its own, so huge values
    that cancel out cannot hide."""
    try:
        return all(map(math.isfinite, coords))
    except OverflowError:  # an int too large for a float
        return False


def check_point(oid: int, point: Sequence[float], dim: int = 0) -> None:
    """Refuse a point no tree can hold: ``ValueError`` unless every
    coordinate is :func:`finite` and, when ``dim`` is non-zero (the tree
    has a dimension), there are exactly ``dim`` of them.

    Called where an index's ``insert`` / ``update`` is entered, before any
    page is read or changed: a move found out only at re-insertion would
    already have taken the object out of its leaf.
    """
    if not finite(point):
        raise ValueError(
            f"object {oid}'s point has a coordinate that is not a finite float: "
            f"{point!r:.200}"
        )
    if dim and len(point) != dim:
        raise ValueError(
            f"dimension mismatch: the tree is {dim}-D, "
            f"object {oid}'s point {point!r:.200} is {len(point)}-D"
        )


class Rect:
    """An axis-aligned hyper-rectangle ``[lo[i], hi[i]]`` in each dimension.

    Used for MBRs, qs-regions, and range queries alike.
    """

    __slots__ = ("lo", "hi", "_area")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]) -> None:
        if len(lo) != len(hi):
            raise ValueError(f"dimension mismatch: lo={lo!r} hi={hi!r}")
        if not lo:
            raise ValueError("rectangles must have at least one dimension")
        for low, high in zip(lo, hi):
            if low > high:
                raise ValueError(f"degenerate bounds: lo={lo!r} hi={hi!r}")
        self.lo: Point = tuple(float(c) for c in lo)
        self.hi: Point = tuple(float(c) for c in hi)
        self._area: Optional[float] = None

    @classmethod
    def _make(cls, lo: Point, hi: Point) -> "Rect":
        """Trusted constructor: ``lo``/``hi`` are already canonical float
        tuples with ``lo[i] <= hi[i]`` (coordinates taken from existing
        rectangles).  Skips validation on the combination hot paths."""
        rect = object.__new__(cls)
        rect.lo = lo
        rect.hi = hi
        rect._area = None
        return rect

    def __getstate__(self) -> Tuple[Point, Point]:
        # The cached area is derived state; keep pickles minimal and
        # canonical.
        return (self.lo, self.hi)

    def __setstate__(self, state: Tuple[Point, Point]) -> None:
        self.lo, self.hi = state
        self._area = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_point(cls, point: Sequence[float]) -> "Rect":
        """The degenerate rectangle containing exactly ``point``."""
        return cls(point, point)

    @classmethod
    def from_points(cls, points: Iterable[Sequence[float]]) -> "Rect":
        """The minimum bounding rectangle of a non-empty point set."""
        iterator = iter(points)
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("cannot bound an empty point set") from None
        lo = list(first)
        hi = list(first)
        for point in iterator:
            for i, coord in enumerate(point):
                if coord < lo[i]:
                    lo[i] = coord
                elif coord > hi[i]:
                    hi[i] = coord
        return cls(lo, hi)

    @classmethod
    def union_all(cls, rects: Iterable["Rect"]) -> "Rect":
        """The minimum bounding rectangle of a non-empty set of rectangles."""
        iterator = iter(rects)
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("cannot bound an empty rectangle set") from None
        lo = list(first.lo)
        hi = list(first.hi)
        for rect in iterator:
            for i in range(len(lo)):
                if rect.lo[i] < lo[i]:
                    lo[i] = rect.lo[i]
                if rect.hi[i] > hi[i]:
                    hi[i] = rect.hi[i]
        return cls(lo, hi)

    # -- scalar measures ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> Tuple[float, ...]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def area(self) -> float:
        """Hyper-volume (area in 2-D); zero for degenerate rectangles.

        Computed once and cached -- rectangles are immutable and the R-tree's
        choose-subtree ties on area, so the same rectangle's area is read
        many times per descent.
        """
        result = self._area
        if result is None:
            lo = self.lo
            hi = self.hi
            if len(lo) == 2:
                result = (hi[0] - lo[0]) * (hi[1] - lo[1])
            else:
                result = 1.0
                for low, high in zip(lo, hi):
                    result *= high - low
            self._area = result
        return result

    @property
    def margin(self) -> float:
        """Sum of side lengths (the R*-tree split criterion uses this)."""
        return sum(self.sides)

    @property
    def diagonal(self) -> float:
        """Euclidean diagonal -- the "diameter" ``d_i(j,k)`` of Equation 1."""
        return math.sqrt(sum(side * side for side in self.sides))

    @property
    def center(self) -> Point:
        return tuple((l + h) / 2.0 for l, h in zip(self.lo, self.hi))

    # -- predicates ----------------------------------------------------------

    def contains_point(self, point: Sequence[float]) -> bool:
        lo = self.lo
        hi = self.hi
        if len(lo) == 2 and len(point) == 2:
            return lo[0] <= point[0] <= hi[0] and lo[1] <= point[1] <= hi[1]
        return len(point) == len(lo) and all(
            l <= c <= h for l, c, h in zip(lo, point, hi)
        )

    def contains_rect(self, other: "Rect") -> bool:
        slo = self.lo
        shi = self.hi
        olo = other.lo
        ohi = other.hi
        if len(slo) == 2 and len(olo) == 2:
            return (
                slo[0] <= olo[0]
                and ohi[0] <= shi[0]
                and slo[1] <= olo[1]
                and ohi[1] <= shi[1]
            )
        return all(
            sl <= ol and oh <= sh for sl, ol, oh, sh in zip(slo, olo, ohi, shi)
        )

    def intersects(self, other: "Rect") -> bool:
        """True when the closed rectangles share at least a boundary point."""
        slo = self.lo
        shi = self.hi
        olo = other.lo
        ohi = other.hi
        if len(slo) == 2 and len(olo) == 2:
            return (
                slo[0] <= ohi[0]
                and olo[0] <= shi[0]
                and slo[1] <= ohi[1]
                and olo[1] <= shi[1]
            )
        return all(
            sl <= oh and ol <= sh for sl, oh, ol, sh in zip(slo, ohi, olo, shi)
        )

    # -- combination -----------------------------------------------------------

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlap rectangle, or None when disjoint."""
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(l > h for l, h in zip(lo, hi)):
            return None
        return Rect._make(lo, hi)

    def overlap_area(self, other: "Rect") -> float:
        overlap = self.intersection(other)
        return overlap.area if overlap is not None else 0.0

    def union(self, other: "Rect") -> "Rect":
        slo = self.lo
        shi = self.hi
        olo = other.lo
        ohi = other.hi
        if len(slo) == 2 and len(olo) == 2:
            return Rect._make(
                (
                    slo[0] if slo[0] <= olo[0] else olo[0],
                    slo[1] if slo[1] <= olo[1] else olo[1],
                ),
                (
                    shi[0] if shi[0] >= ohi[0] else ohi[0],
                    shi[1] if shi[1] >= ohi[1] else ohi[1],
                ),
            )
        return Rect._make(
            tuple(min(a, b) for a, b in zip(slo, olo)),
            tuple(max(a, b) for a, b in zip(shi, ohi)),
        )

    def union_point(self, point: Sequence[float]) -> "Rect":
        """The MBR expanded (if necessary) to include ``point``."""
        if self.contains_point(point):
            return self
        return Rect(
            tuple(min(l, c) for l, c in zip(self.lo, point)),
            tuple(max(h, c) for h, c in zip(self.hi, point)),
        )

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to cover ``other`` (Guttman's ChooseLeaf)."""
        slo = self.lo
        shi = self.hi
        olo = other.lo
        ohi = other.hi
        if len(slo) == 2 and len(olo) == 2:
            lo0 = slo[0] if slo[0] <= olo[0] else olo[0]
            lo1 = slo[1] if slo[1] <= olo[1] else olo[1]
            hi0 = shi[0] if shi[0] >= ohi[0] else ohi[0]
            hi1 = shi[1] if shi[1] >= ohi[1] else ohi[1]
            return (hi0 - lo0) * (hi1 - lo1) - self.area
        return self.union(other).area - self.area

    def enlargement_point(self, point: Sequence[float]) -> float:
        return self.union_point(point).area - self.area

    def inflated(self, alpha: float) -> "Rect":
        """Each side scaled by ``1 + alpha`` about the center.

        This is the alpha-tree's "loose MBR" expansion (Section 2.2): when an
        MBR must grow, grow it by a fraction ``alpha`` beyond the minimum so
        boundary objects get leeway to move without leaving it.
        """
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        half = alpha / 2.0
        return Rect(
            tuple(l - (h - l) * half for l, h in zip(self.lo, self.hi)),
            tuple(h + (h - l) * half for l, h in zip(self.lo, self.hi)),
        )

    def min_distance(self, point: Sequence[float]) -> float:
        """Euclidean distance from ``point`` to the nearest point of the
        rectangle (0 when inside).  The lower bound used by best-first
        nearest-neighbour search."""
        total = 0.0
        for low, coord, high in zip(self.lo, point, self.hi):
            if coord < low:
                delta = low - coord
            elif coord > high:
                delta = coord - high
            else:
                continue
            total += delta * delta
        return math.sqrt(total)

    def translated(self, offset: Sequence[float]) -> "Rect":
        return Rect(
            tuple(l + d for l, d in zip(self.lo, offset)),
            tuple(h + d for h, d in zip(self.hi, offset)),
        )

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Rect({list(self.lo)}, {list(self.hi)})"


# -- flat-tuple kernels --------------------------------------------------
#
# The R-tree descent loops (choose-subtree, range search, find-leaf) touch
# every entry of every visited node; going through ``Rect`` methods costs an
# attribute lookup plus a bound-method call per test.  These module-level
# kernels take the ``lo``/``hi`` tuples directly so the descent loops pay one
# global lookup per *node* (hoisted into a local) instead of per entry.  Each
# performs exactly the floating-point operations of the corresponding method,
# so switching a call site never changes results.


def rect_intersects(alo: Point, ahi: Point, blo: Point, bhi: Point) -> bool:
    """``Rect(alo, ahi).intersects(Rect(blo, bhi))`` without the objects."""
    if len(alo) == 2:
        return (
            alo[0] <= bhi[0]
            and blo[0] <= ahi[0]
            and alo[1] <= bhi[1]
            and blo[1] <= ahi[1]
        )
    return all(
        al <= bh and bl <= ah for al, bh, bl, ah in zip(alo, bhi, blo, ahi)
    )


def rect_area(lo: Point, hi: Point) -> float:
    """Hyper-volume of the rectangle ``[lo, hi]``."""
    if len(lo) == 2:
        return (hi[0] - lo[0]) * (hi[1] - lo[1])
    result = 1.0
    for low, high in zip(lo, hi):
        result *= high - low
    return result


def column_areas(sides):
    """:func:`rect_area` over a ``(rows, dim)`` array of side lengths.

    Side products accumulate in dimension order, one row-wise multiply per
    dimension, so every row gets exactly the double ``rect_area`` /
    ``Rect.area`` computes for it.
    """
    areas = sides[:, 0]
    for d in range(1, sides.shape[1]):
        areas = areas * sides[:, d]
    return areas


def rect_enlargement(
    alo: Point, ahi: Point, blo: Point, bhi: Point, a_area: float
) -> float:
    """Area growth of ``[alo, ahi]`` (own area ``a_area``) to cover
    ``[blo, bhi]`` -- the choose-subtree kernel."""
    if len(alo) == 2:
        lo0 = alo[0] if alo[0] <= blo[0] else blo[0]
        lo1 = alo[1] if alo[1] <= blo[1] else blo[1]
        hi0 = ahi[0] if ahi[0] >= bhi[0] else bhi[0]
        hi1 = ahi[1] if ahi[1] >= bhi[1] else bhi[1]
        return (hi0 - lo0) * (hi1 - lo1) - a_area
    lo = tuple(min(a, b) for a, b in zip(alo, blo))
    hi = tuple(max(a, b) for a, b in zip(ahi, bhi))
    return rect_area(lo, hi) - a_area


# -- whole-node buffer kernels -------------------------------------------
#
# Node entries are packed in a struct-of-arrays layout: one ``array('d')``
# column per dimension per bound (``los[d]``, ``his[d]``) plus a parallel
# ``array('q')`` child/object-id column.  The kernels below scan a *whole
# node* per call instead of dispatching per entry.  Two engines back each
# kernel:
#
# * a pure-Python column loop (``zip`` over the 2-D columns runs at C speed
#   for iteration; only the comparisons are interpreted), always available;
# * a numpy path over zero-copy ``frombuffer`` views, used when the node is
#   large enough (``NP_SCAN_MIN``) that vectorization beats the ~µs fixed
#   cost of array setup.  At R-tree fanout (<= 20 entries) the Python loop
#   wins; the numpy path pays off on bulk scans (>= ~64 entries).
#
# Bit-identical contract: every kernel performs the same IEEE-754
# comparisons/arithmetic as the per-entry ``Rect`` methods, in an order that
# yields identical results — including NaN semantics.  The numpy
# choose-subtree path falls back to the scalar loop whenever a NaN reaches
# the tie-breaking reduction, which is also what licenses its use of
# ``np.minimum``/``np.maximum`` for the union bounds: they propagate NaN
# where the scalar ``a if a <= b else b`` select would not, but every input
# NaN that makes them differ also poisons ``enl`` and routes the scan to
# the scalar loop before the divergence is observable.

#: Minimum column length before the numpy scan engine engages.  Below this
#: the pure-Python loop is faster (measured on the dev container: numpy
#: overtakes between 32 and 64 entries for intersect-all scans).
NP_SCAN_MIN = 64

#: Float columns: one ``array('d')`` (or any buffer of doubles) per dimension.
Columns = Sequence[Sequence[float]]


def _np_mask_2d(los: Columns, his: Columns, qlo: Point, qhi: Point):
    """Boolean intersect mask over 2-D columns via zero-copy numpy views."""
    l0 = _np.frombuffer(los[0])
    l1 = _np.frombuffer(los[1])
    h0 = _np.frombuffer(his[0])
    h1 = _np.frombuffer(his[1])
    mask = l0 <= qhi[0]
    mask &= qlo[0] <= h0
    mask &= l1 <= qhi[1]
    mask &= qlo[1] <= h1
    return mask


def node_intersecting_indices(
    los: Columns, his: Columns, qlo: Point, qhi: Point
) -> List[int]:
    """Indices of entries whose rect intersects ``[qlo, qhi]``.

    Per entry this evaluates exactly :func:`rect_intersects` (node rect
    first, query second), so index sets match a per-entry method loop —
    NaN coordinates fail the comparisons in both paths alike.
    """
    if len(los) == 2:
        n = len(los[0])
        if n >= NP_SCAN_MIN:
            return _np.flatnonzero(_np_mask_2d(los, his, qlo, qhi)).tolist()
        ql0, ql1 = qlo[0], qlo[1]
        qh0, qh1 = qhi[0], qhi[1]
        return [
            i
            for i, (l0, l1, h0, h1) in enumerate(
                zip(los[0], los[1], his[0], his[1])
            )
            if l0 <= qh0 and ql0 <= h0 and l1 <= qh1 and ql1 <= h1
        ]
    dims = range(len(los))
    return [
        i
        for i in range(len(los[0]) if los else 0)
        if all(los[d][i] <= qhi[d] and qlo[d] <= his[d][i] for d in dims)
    ]


def node_intersecting_children(
    children: Sequence[int], los: Columns, his: Columns, qlo: Point, qhi: Point
) -> List[int]:
    """Child ids of entries intersecting ``[qlo, qhi]``, in entry order.

    The branch-descent kernel: equivalent to pushing ``entry.child`` for
    every entry passing :func:`rect_intersects`.
    """
    if len(los) == 2:
        n = len(los[0])
        if n >= NP_SCAN_MIN:
            return [
                children[i]
                for i in _np.flatnonzero(
                    _np_mask_2d(los, his, qlo, qhi)
                ).tolist()
            ]
        ql0, ql1 = qlo[0], qlo[1]
        qh0, qh1 = qhi[0], qhi[1]
        return [
            c
            for c, l0, l1, h0, h1 in zip(
                children, los[0], los[1], his[0], his[1]
            )
            if l0 <= qh0 and ql0 <= h0 and l1 <= qh1 and ql1 <= h1
        ]
    return [
        children[i] for i in node_intersecting_indices(los, his, qlo, qhi)
    ]


def node_containing_point_indices(
    los: Columns, his: Columns, point: Sequence[float]
) -> List[int]:
    """Indices of entries whose rect contains ``point`` (closed bounds).

    Per entry this is exactly :meth:`Rect.contains_point`.
    """
    if len(los) == 2 and len(point) == 2:
        p0, p1 = point[0], point[1]
        n = len(los[0])
        if n >= NP_SCAN_MIN:
            l0 = _np.frombuffer(los[0])
            l1 = _np.frombuffer(los[1])
            h0 = _np.frombuffer(his[0])
            h1 = _np.frombuffer(his[1])
            mask = l0 <= p0
            mask &= p0 <= h0
            mask &= l1 <= p1
            mask &= p1 <= h1
            return _np.flatnonzero(mask).tolist()
        return [
            i
            for i, (l0, l1, h0, h1) in enumerate(
                zip(los[0], los[1], his[0], his[1])
            )
            if l0 <= p0 <= h0 and l1 <= p1 <= h1
        ]
    dims = range(len(los))
    return [
        i
        for i in range(len(los[0]) if los else 0)
        if all(los[d][i] <= point[d] <= his[d][i] for d in dims)
    ]


def node_points_in(
    children: Sequence[int], los: Columns, qlo: Point, qhi: Point
) -> List[Tuple[int, Point]]:
    """Leaf range-scan: ``(child, point)`` for every point entry inside
    ``[qlo, qhi]``, in entry order.

    Leaf entries are degenerate rects, so only the ``lo`` columns are
    consulted: per entry this is ``Rect(qlo, qhi).contains_point(lo)``.
    """
    if len(los) == 2:
        ql0, ql1 = qlo[0], qlo[1]
        qh0, qh1 = qhi[0], qhi[1]
        n = len(los[0])
        if n >= NP_SCAN_MIN:
            x = _np.frombuffer(los[0])
            y = _np.frombuffer(los[1])
            mask = ql0 <= x
            mask &= x <= qh0
            mask &= ql1 <= y
            mask &= y <= qh1
            xs, ys = los[0], los[1]
            return [
                (children[i], (xs[i], ys[i]))
                for i in _np.flatnonzero(mask).tolist()
            ]
        return [
            (c, (x, y))
            for c, x, y in zip(children, los[0], los[1])
            if ql0 <= x <= qh0 and ql1 <= y <= qh1
        ]
    dims = range(len(los))
    out: List[Tuple[int, Point]] = []
    for i in range(len(los[0]) if los else 0):
        point = tuple(los[d][i] for d in dims)
        if all(qlo[d] <= point[d] <= qhi[d] for d in dims):
            out.append((children[i], point))
    return out


def node_choose_subtree(
    los: Columns, his: Columns, rlo: Point, rhi: Point
) -> int:
    """Index of the entry needing least enlargement to cover ``[rlo, rhi]``,
    ties broken by smaller area then lower index (Guttman's ChooseLeaf).

    Performs per entry exactly the operations of a per-entry loop:
    ``rect_area`` for the entry's own area, :func:`rect_enlargement` for the
    growth, and the ``enl < best or (enl == best and area < best_area)``
    comparison chain.  Returns ``-1`` when no entry wins (empty node, or
    NaN poisoning every comparison) — callers treat that as the historical
    ``best is None`` error case.
    """
    if len(los) != 2:
        return _choose_subtree_nd(los, his, rlo, rhi)
    n = len(los[0])
    if n >= NP_SCAN_MIN:
        l0 = _np.frombuffer(los[0])
        l1 = _np.frombuffer(los[1])
        h0 = _np.frombuffer(his[0])
        h1 = _np.frombuffer(his[1])
        # errstate: python-float arithmetic on the scalar path overflows
        # and NaNs silently; the vectorized twin must not warn where the
        # reference stays quiet.
        with _np.errstate(all="ignore"):
            area = (h0 - l0) * (h1 - l1)
            # minimum/maximum propagate NaN where the scalar conditional
            # select would pick the non-NaN operand — but any NaN that
            # makes them differ also reaches ``enl`` (a NaN coordinate
            # poisons ``area``; a NaN query bound poisons every union
            # extent), so ``best_enl`` goes NaN and the scalar loop takes
            # over before the divergence can be observed.  One ufunc per
            # bound instead of compare+where halves the per-scan call
            # count on these overhead-dominated small arrays.
            u0 = _np.minimum(l0, rlo[0])
            u1 = _np.minimum(l1, rlo[1])
            v0 = _np.maximum(h0, rhi[0])
            v1 = _np.maximum(h1, rhi[1])
            enl = (v0 - u0) * (v1 - u1) - area
            # A NaN anywhere in enl propagates through min(); a NaN in
            # area always poisons enl (x - NaN), so one reduction covers
            # both.
            best_enl = enl.min()
        if best_enl == best_enl:
            cand = _np.flatnonzero(enl == best_enl)
            if len(cand) == 1:
                return int(cand[0])
            # First index achieving the minimal area among minimal
            # enlargement — argmin returns the first occurrence, matching
            # the scalar first-wins update rule.
            return int(cand[int(area[cand].argmin())])
        # NaN reached the tie-break: fall through to the scalar loop, whose
        # comparison-by-comparison behaviour is the contract.
    rl0, rl1 = rlo[0], rlo[1]
    rh0, rh1 = rhi[0], rhi[1]
    best = -1
    best_enl = math.inf
    best_area = math.inf
    for i, (l0, l1, h0, h1) in enumerate(zip(los[0], los[1], his[0], his[1])):
        area = (h0 - l0) * (h1 - l1)
        u0 = l0 if l0 <= rl0 else rl0
        u1 = l1 if l1 <= rl1 else rl1
        v0 = h0 if h0 >= rh0 else rh0
        v1 = h1 if h1 >= rh1 else rh1
        enl = (v0 - u0) * (v1 - u1) - area
        if enl < best_enl or (enl == best_enl and area < best_area):
            best = i
            best_enl = enl
            best_area = area
    return best


def _choose_subtree_nd(
    los: Columns, his: Columns, rlo: Point, rhi: Point
) -> int:
    """Generic-dimension choose-subtree: a loop of the flat-tuple kernels."""
    dims = range(len(los))
    best = -1
    best_enl = math.inf
    best_area = math.inf
    for i in range(len(los[0]) if los else 0):
        lo = tuple(los[d][i] for d in dims)
        hi = tuple(his[d][i] for d in dims)
        area = rect_area(lo, hi)
        enl = rect_enlargement(lo, hi, rlo, rhi, area)
        if enl < best_enl or (enl == best_enl and area < best_area):
            best = i
            best_enl = enl
            best_area = area
    return best


def node_union(los: Columns, his: Columns) -> Optional[Rect]:
    """Tight MBR of all entries, or ``None`` for an empty node.

    ``min``/``max`` over an ``array('d')`` run at C speed and use the same
    keep-first-replace-on-strict-compare rule as :meth:`Rect.union_all`
    (``min`` replaces when ``v < acc``; ``union_all`` replaces when
    ``rect.lo[i] < lo[i]``), so results — including NaN propagation — are
    identical to unioning the per-entry rects.
    """
    if not los or not len(los[0]):
        return None
    return Rect(tuple(min(c) for c in los), tuple(max(c) for c in his))


def node_min_distances(
    los: Columns, his: Columns, point: Sequence[float]
) -> List[float]:
    """Per entry, :meth:`Rect.min_distance` from ``point``: the best-first
    kNN bound of every child of a branch node, in entry order.

    The 2-D loop squares and sums the out-of-range deltas in the order the
    method does (x then y, skipping in-range axes), so each bound is the
    method's double -- NaN coordinates count as in range in both.
    """
    if len(los) == 2 and len(point) == 2:
        p0, p1 = point[0], point[1]
        sqrt = math.sqrt
        out = []
        for l0, l1, h0, h1 in zip(los[0], los[1], his[0], his[1]):
            if p0 < l0:
                delta = l0 - p0
                total = delta * delta
            elif p0 > h0:
                delta = p0 - h0
                total = delta * delta
            else:
                total = 0.0
            if p1 < l1:
                delta = l1 - p1
                total += delta * delta
            elif p1 > h1:
                delta = p1 - h1
                total += delta * delta
            out.append(sqrt(total))
        return out
    dims = range(len(los))
    return [
        Rect._make(
            tuple(los[d][i] for d in dims), tuple(his[d][i] for d in dims)
        ).min_distance(point)
        for i in range(len(los[0]) if los else 0)
    ]


def node_point_distances(los: Columns, point: Sequence[float]) -> List[float]:
    """Per (leaf, point) entry, ``math.dist(point, entry_point)`` in entry
    order -- only the ``lo`` columns are read, as for :func:`node_points_in`.

    The 2-D loop calls ``math.hypot`` on the coordinate differences:
    ``math.dist`` is that same correctly-rounded norm of the absolute
    differences, so every distance is bit-identical to it.
    """
    if len(los) == 2 and len(point) == 2:
        p0, p1 = point[0], point[1]
        hypot = math.hypot
        return [hypot(p0 - x, p1 - y) for x, y in zip(los[0], los[1])]
    dist = math.dist
    return [dist(point, coords) for coords in zip(*los)]


def square_at(center: Sequence[float], side: float) -> Rect:
    """The axis-aligned square (hyper-cube) of side ``side`` centered at ``center``.

    Range queries in the paper "have the shape of a square, with central point
    chosen randomly within the city area" (Section 4.1).
    """
    if side < 0:
        raise ValueError(f"side must be non-negative, got {side}")
    half = side / 2.0
    return Rect(tuple(c - half for c in center), tuple(c + half for c in center))
