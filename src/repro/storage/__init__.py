"""Paged storage substrate with I/O accounting.

Every index structure in this repository (R-tree, lazy-R-tree, alpha-tree,
CT-R-tree, secondary hash index) is built on the :class:`Pager`, so the
page-I/O counts reported by the experiments are charged identically across
structures -- the methodology of the paper's evaluation (Section 4.1), which
measures "the number of page I/Os for reads and writes of both dynamic
updates and queries".
"""

from repro.storage.iostats import IOCategory, IOCounter, IOStats
from repro.storage.page import Page, PageId
from repro.storage.pager import PageEpoch, PageNotAllocatedError, Pager
from repro.storage.buffer_pool import BufferPool

__all__ = [
    "IOCategory",
    "IOCounter",
    "IOStats",
    "Page",
    "PageEpoch",
    "PageId",
    "Pager",
    "PageNotAllocatedError",
    "BufferPool",
]

# Snapshot persistence lives in repro.storage.snapshot; imported lazily by
# callers to avoid a circular import (it references the index types).
