"""repro.lsm -- a memtable + immutable-run LSM layer over the R-tree family.

The fifth registry kind (``lsm``): the coalescing
:class:`~repro.engine.buffer.UpdateBuffer` is the memtable, flushes bulk-load
immutable run R-trees via STR packing, a size-tiered compactor merges runs
under a ratio trigger, and queries fan out newest-run-first with per-run
sorted oid columns and tombstone/superseded-oid suppression.  Per-update cost is
O(memtable) -- independent of the total object count -- which is the design
point of "An Update-intensive LSM-based R-tree Index" (PAPERS.md).
"""

from repro.lsm.run import Run, build_run
from repro.lsm.tree import LSMConfig, LSMRTree

__all__ = ["Run", "build_run", "LSMConfig", "LSMRTree"]
