"""Span recording for the traced run: who called whom, for how long.

A span is ``(name, start, end, parent, op)``.  Spans of one thread nest
strictly, so a span's *self time* is its duration minus the durations of
its direct children; summed over every span, self times equal the time
covered by top-level spans exactly, which is what lets the per-layer
budget add up to the measured window.

Totals (count, inclusive seconds, self seconds) are aggregated for every
op; the full span tree is kept for every ``keep_every``-th op and written
out as JSON lines when the run ends.  One recorder serves one thread.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional


class SpanTotals:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("count", "total_s", "self_s", "durations")

    def __init__(self, keep_durations: bool) -> None:
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0
        #: Per-span durations, kept only for names that need a percentile.
        self.durations: Optional[List[float]] = [] if keep_durations else None


class SpanRecorder:
    """Records nested spans on one thread.

    Args:
        keep_every: keep the whole span tree of every n-th op.
        keep_durations: span names whose individual durations are kept.
        clock: injectable for the self-time arithmetic tests.
    """

    def __init__(
        self,
        keep_every: int = 100,
        keep_durations: Iterable[str] = (),
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self.on = False
        self.keep_every = keep_every
        self.clock = clock
        self.totals: Dict[str, SpanTotals] = {}
        self.kept: List[dict] = []
        self.op_index = -1
        self.op_kind = ""
        self._keep_durations = frozenset(keep_durations)
        self._keeping = False
        self._next_id = 0
        # Open spans, innermost last: [name, start, child seconds, span id].
        self._stack: List[list] = []

    def begin_op(self, index: int, kind: str = "") -> None:
        """Spans recorded from here on belong to op ``index``."""
        self.op_index = index
        self.op_kind = kind
        self._keeping = index % self.keep_every == 0

    def push(self, name: str) -> None:
        self._next_id += 1
        frame = [name, 0.0, 0.0, self._next_id]
        self._stack.append(frame)
        frame[1] = self.clock()

    def pop(self) -> float:
        """Close the innermost span; returns its duration."""
        end = self.clock()
        name, start, child_s, span_id = self._stack.pop()
        duration = end - start
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = SpanTotals(name in self._keep_durations)
        totals.count += 1
        totals.total_s += duration
        totals.self_s += duration - child_s
        if totals.durations is not None:
            totals.durations.append(duration)
        parent = None
        if self._stack:
            outer = self._stack[-1]
            outer[2] += duration
            parent = outer[3]
        if self._keeping:
            self.kept.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": self.op_index,
                }
            )
        return duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` bracketed by a span called ``name`` while recording is on."""

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            self.push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- reading the totals ------------------------------------------------

    def count(self, name: str) -> int:
        totals = self.totals.get(name)
        return totals.count if totals else 0

    def total_s(self, name: str) -> float:
        totals = self.totals.get(name)
        return totals.total_s if totals else 0.0

    def self_s(self, *prefixes: str) -> float:
        """Summed self time of every span whose name starts with a prefix."""
        return sum(
            totals.self_s
            for name, totals in self.totals.items()
            if name.startswith(prefixes)
        )

    def mean_s(self, name: str) -> float:
        totals = self.totals.get(name)
        return totals.total_s / totals.count if totals and totals.count else 0.0

    def all_self_s(self) -> float:
        return sum(totals.self_s for totals in self.totals.values())


def merge_totals(recorders: Iterable[SpanRecorder]) -> SpanRecorder:
    """One recorder holding the summed totals and kept spans of several
    (the serve workloads run one recorder per connection thread)."""
    merged = SpanRecorder()
    for thread, recorder in enumerate(recorders):
        for name, totals in recorder.totals.items():
            into = merged.totals.get(name)
            if into is None:
                into = merged.totals[name] = SpanTotals(totals.durations is not None)
            into.count += totals.count
            into.total_s += totals.total_s
            into.self_s += totals.self_s
            if into.durations is not None and totals.durations is not None:
                into.durations.extend(totals.durations)
        # Span ids are per recorder; the thread number keeps them apart.
        merged.kept.extend({**span, "thread": thread} for span in recorder.kept)
    return merged


def write_jsonl(path: Path, spans: Iterable[dict]) -> int:
    """Write kept spans one JSON object per line; returns how many."""
    path.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, separators=(",", ":")))
            handle.write("\n")
            written += 1
    return written
