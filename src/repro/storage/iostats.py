"""Per-category page-I/O accounting.

The paper's evaluation separates the page I/Os incurred by *queries* from
those incurred by *dynamic updates* (Figures 8-13 all plot one or both).
:class:`IOStats` keeps one :class:`IOCounter` per category and lets callers
scope a block of work to a category with :meth:`IOStats.category`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional


class IOCategory:
    """Well-known accounting categories used by the experiment harness."""

    QUERY = "query"
    UPDATE = "update"
    BUILD = "build"
    OTHER = "other"

    ALL = (QUERY, UPDATE, BUILD, OTHER)


@dataclass
class IOCounter:
    """Read/write page counts for one category."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def copy(self) -> "IOCounter":
        return IOCounter(self.reads, self.writes)

    def __add__(self, other: "IOCounter") -> "IOCounter":
        return IOCounter(self.reads + other.reads, self.writes + other.writes)

    def __sub__(self, other: "IOCounter") -> "IOCounter":
        """Counter delta; raises rather than silently going negative.

        Deltas (``after - before``) are how the driver and builder attribute
        I/O to a phase; a negative component means the counters were reset
        between the two snapshots and the attribution is garbage.
        """
        reads = self.reads - other.reads
        writes = self.writes - other.writes
        if reads < 0 or writes < 0:
            raise ValueError(
                f"IOCounter delta went negative ({reads}r/{writes}w): the "
                "counters were reset between snapshots, so this delta is "
                "meaningless"
            )
        return IOCounter(reads, writes)

    def to_dict(self) -> Dict[str, int]:
        return {"reads": self.reads, "writes": self.writes, "total": self.total}


class IOStats:
    """Accumulates page reads and writes, attributed to the active category.

    The active category is managed as a stack so nested scopes compose:

    >>> stats = IOStats()
    >>> with stats.category(IOCategory.UPDATE):
    ...     stats.record_read()
    >>> stats.reads(IOCategory.UPDATE)
    1

    Work performed outside any scope is attributed to ``IOCategory.OTHER``.

    A charge is one attribute increment on :attr:`_active`, the counter the
    top of the stack resolves to.  It is re-resolved whenever that can
    change -- a scope opens or closes, or the ledger is reset -- never per
    charge.  Until a category is first charged it resolves to an
    :class:`_Unlisted` stand-in, so reports still list only categories that
    were charged or asked for by name.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, IOCounter] = {}
        self._stack = [IOCategory.OTHER]
        self._resolve()

    def _resolve(self) -> None:
        """Point :attr:`_active` at the counter the stack top charges."""
        name = self._stack[-1]
        counter = self._counters.get(name)
        self._active = counter if counter is not None else _Unlisted(self, name)

    # -- recording -------------------------------------------------------

    def record_read(self, count: int = 1) -> None:
        self._active.reads += count

    def record_write(self, count: int = 1) -> None:
        self._active.writes += count

    def charge(self, name: str, reads: int, writes: int) -> None:
        """Credit ``reads``/``writes`` directly to category ``name``.

        Reconciliation hook for parallel execution: shard workers account
        I/O into private ledgers and report deltas back; the coordinator
        charges those deltas here, single-threaded, so the shared ledger
        never sees concurrent mutation.
        """
        if reads < 0 or writes < 0:
            raise ValueError(f"cannot charge negative I/O ({reads}r/{writes}w)")
        counter = self._counter(name)
        counter.reads += reads
        counter.writes += writes

    @contextmanager
    def category(self, name: str) -> Iterator[None]:
        """Attribute all I/O inside the block to ``name``."""
        self._stack.append(name)
        self._resolve()
        try:
            yield
        finally:
            self._stack.pop()
            self._resolve()

    @property
    def active_category(self) -> str:
        return self._stack[-1]

    # -- reporting -------------------------------------------------------

    def _counter(self, name: str) -> IOCounter:
        counter = self._counters.get(name)
        if counter is None:
            counter = IOCounter()
            self._counters[name] = counter
        return counter

    def counter(self, name: str) -> IOCounter:
        """A copy of the counter for ``name`` (zero if never touched)."""
        return self._counter(name).copy()

    def live(self, name: str) -> IOCounter:
        """The **mutable** counter for ``name``, updated in place.

        For per-event delta tracking in hot loops: reading ``live(cat).total``
        before and after an operation avoids the copy that :meth:`counter`
        makes.  Callers must not mutate the returned counter.
        """
        return self._counter(name)

    def reads(self, name: Optional[str] = None) -> int:
        if name is not None:
            return self._counter(name).reads
        return sum(c.reads for c in self._counters.values())

    def writes(self, name: Optional[str] = None) -> int:
        if name is not None:
            return self._counter(name).writes
        return sum(c.writes for c in self._counters.values())

    def total(self, name: Optional[str] = None) -> int:
        return self.reads(name) + self.writes(name)

    def snapshot(self) -> Dict[str, IOCounter]:
        """An immutable view of all counters at this instant."""
        return {name: counter.copy() for name, counter in self._counters.items()}

    def to_dict(self) -> Dict[str, Dict[str, int]]:
        """All counters as JSON-ready plain data, sorted by category."""
        return {
            name: counter.to_dict()
            for name, counter in sorted(self._counters.items())
        }

    def reset(self) -> None:
        self._counters.clear()
        self._resolve()

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={counter.reads}r/{counter.writes}w"
            for name, counter in sorted(self._counters.items())
        )
        return f"IOStats({parts})"


class _Unlisted:
    """The resolved counter of a category nothing has charged yet.

    It reads as zero, so ``+= n`` hands its setter exactly ``n``.  The first
    charge lists the category's real counter in the ledger, adds ``n`` to it
    and makes it the ledger's resolved counter; every later charge in the
    scope is a plain increment on that counter.
    """

    __slots__ = ("_stats", "_name")

    def __init__(self, stats: IOStats, name: str) -> None:
        self._stats = stats
        self._name = name

    def _list(self) -> IOCounter:
        stats = self._stats
        counter = stats._counter(self._name)
        if stats._active is self:
            stats._active = counter
        return counter

    def _add_reads(self, count: int) -> None:
        self._list().reads += count

    def _add_writes(self, count: int) -> None:
        self._list().writes += count

    reads = property(lambda self: 0, _add_reads)
    writes = property(lambda self: 0, _add_writes)
