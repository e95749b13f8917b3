"""Structural probes: the shape of an index as JSON-ready numbers.

``tree_stats`` walks a paged tree **uncharged** (via ``Pager.inspect``) and
reports the quantities the paper's analysis reasons about -- height, node
count, fanout distribution, MBR dead space -- plus the CT-R-tree's own
structural inventory (qs-region count, chain pages, overflow buffers).

The walker is duck-typed: anything exposing ``pager``, ``root_pid``,
``height`` and ``max_entries`` with R-tree-style nodes (``level``,
``entries``, ``is_leaf``) qualifies, which covers the traditional R-tree,
the lazy-R-tree, the alpha-tree, and the CT-R-tree's structural tree.
"""

from __future__ import annotations

from typing import Dict, List


def _dead_space(node) -> float:
    """1 - (summed child area / covering area), clamped to [0, 1].

    A cheap proxy for the wasted volume a query pays for: child overlap can
    push the summed area past the cover, in which case dead space clamps to
    zero rather than going negative.
    """
    tight = node.tight_mbr()
    if tight is None:
        return 0.0
    cover = tight.area
    if cover <= 0.0:
        return 0.0
    covered = sum(entry.rect.area for entry in node.entries)
    return max(0.0, min(1.0, 1.0 - covered / cover))


def tree_stats(index) -> Dict[str, object]:
    """Shape statistics for a paged tree index.

    Returns a plain dict (JSON-ready) with at least ``height``, ``size``,
    ``node_count``, ``leaf_count``, ``entry_count``, ``fanout`` (min/max/
    mean), ``fanout_hist`` and ``mbr_dead_space_ratio``.  CT-R-trees
    additionally report ``qs_region_count``, ``chain_pages``,
    ``buffered_objects`` and ``buffer_trees``; the lazy-R-tree reports its
    ``lazy_hits``/``relocations`` tallies.
    """
    if hasattr(index, "inner") and hasattr(index, "health_state"):
        # The health layer's self-healing wrapper: probe whatever structure
        # is currently serving (post-cutover that is the rebuilt shadow).
        return tree_stats(index.inner)
    collect = getattr(index, "collect_tree_stats", None)
    if collect is not None:
        # An index that gathers its own probes: the sharded router (each
        # shard probed wherever it lives) and the LSM-R-tree (per run).
        return collect()
    outer = index
    if not hasattr(index, "root_pid") and hasattr(index, "tree"):
        # Wrapper indexes (the lazy-R-tree) delegate the paged tree itself.
        index = index.tree
    pager = index.pager
    is_ct = hasattr(index, "iter_qs_entries")

    node_count = 0
    leaf_count = 0
    entry_count = 0
    fills: List[int] = []
    fanout_hist: Dict[str, int] = {}
    dead_spaces: List[float] = []
    chain_pages = 0

    stack = [index.root_pid]
    while stack:
        node = pager.inspect(stack.pop())
        node_count += 1
        fill = len(node.entries)
        entry_count += fill
        fills.append(fill)
        fanout_hist[str(fill)] = fanout_hist.get(str(fill), 0) + 1
        if node.is_leaf:
            leaf_count += 1
            # R-tree leaves hold degenerate (point) rectangles -- dead space
            # is vacuously ~1 there, so only region-bearing leaves (the
            # CT-R-tree's qs-region level) contribute to the ratio.
            if is_ct and node.entries:
                dead_spaces.append(_dead_space(node))
            for entry in node.entries:
                chain = getattr(entry, "chain", None)
                if chain is not None:
                    chain_pages += len(chain)
        else:
            if node.entries:
                dead_spaces.append(_dead_space(node))
            stack.extend(entry.child for entry in node.entries)

    stats: Dict[str, object] = {
        "height": index.height,
        "size": len(index),
        "node_count": node_count,
        "leaf_count": leaf_count,
        "internal_count": node_count - leaf_count,
        "entry_count": entry_count,
        "max_entries": index.max_entries,
        "fanout": {
            "min": min(fills) if fills else 0,
            "max": max(fills) if fills else 0,
            "mean": sum(fills) / len(fills) if fills else 0.0,
        },
        "fanout_hist": dict(sorted(fanout_hist.items(), key=lambda kv: int(kv[0]))),
        "avg_fill": (
            sum(fills) / (len(fills) * index.max_entries) if fills else 0.0
        ),
        "mbr_dead_space_ratio": (
            sum(dead_spaces) / len(dead_spaces) if dead_spaces else 0.0
        ),
    }

    if is_ct:
        stats["qs_region_count"] = index.region_count
        stats["chain_pages"] = chain_pages
        stats["buffered_objects"] = index.buffered_object_count()
        stats["buffer_trees"] = len(getattr(index, "_buffer_trees", {}))

    for tally in ("lazy_hits", "relocations"):
        value = getattr(outer, tally, None)
        if value is not None:
            stats[tally] = value

    return stats


def aggregate_shard_stats(per_shard, index) -> Dict[str, object]:
    """Aggregate per-shard probe dicts over a sharded engine: sums what
    adds (sizes, node/entry counts, tally counters), maxes what does not
    (height), and keeps the per-shard breakdown so skew -- the failure
    mode of a static partition -- stays visible."""
    sizes = [int(s.get("size", 0)) for s in per_shard]
    aggregated: Dict[str, object] = {
        "sharded": True,
        "kind": getattr(index, "kind", "?"),
        "n_shards": len(per_shard),
        "size": sum(sizes),
        "height": max((int(s.get("height", 0)) for s in per_shard), default=0),
        "node_count": sum(int(s.get("node_count", 0)) for s in per_shard),
        "leaf_count": sum(int(s.get("leaf_count", 0)) for s in per_shard),
        "entry_count": sum(int(s.get("entry_count", 0)) for s in per_shard),
        "cross_shard_moves": getattr(index, "cross_shard_moves", 0),
        "shard_sizes": sizes,
        "shard_skew": (
            max(sizes) / (sum(sizes) / len(sizes)) if sizes and sum(sizes) else 0.0
        ),
        "shards": per_shard,
    }
    for tally in ("lazy_hits", "relocations"):
        if any(tally in s for s in per_shard):
            aggregated[tally] = sum(int(s.get(tally, 0)) for s in per_shard)
    if any("qs_region_count" in s for s in per_shard):
        aggregated["qs_region_count"] = sum(
            int(s.get("qs_region_count", 0)) for s in per_shard
        )
    return aggregated
