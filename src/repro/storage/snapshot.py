"""Snapshot persistence: save and load indexes without pickle.

The pager and every page type serialize to a explicit, versioned JSON
document -- the moving-object database can be checkpointed and reopened
(e.g. the paper's offline rebuild runs "in background ... once the
rebuilding is completed, the new index is used immediately": building in one
process and shipping a snapshot to another is exactly this).

Format (version 1): one JSON object with

* ``kind``: the registry tag the generic :func:`save_index`/:func:`load_index`
  dispatch on (``rtree``/``lazy``/``alpha``/``ct``/``sharded``);
* ``pager``: page size, next page id, and every live page tagged by type;
* ``index``: structure-specific metadata (root page, counters, parameters,
  hash directory, buffer-tree table ...).

A sharded engine snapshots as **one** versioned document embedding one
sub-document per shard plus the partition geometry and the object->shard
routing table.  Only data is stored -- never code -- so snapshots are safe
to exchange.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.core.ctrtree import CTNode, CTRTree
from repro.core.geometry import Rect
from repro.core.overflow import DataPage, NodeBuffer, QSEntry
from repro.core.params import CTParams
from repro.engine.sharded import Shard, ShardedIndex
from repro.hashindex.hashindex import BucketPage, HashIndex
from repro.lsm.run import Run
from repro.lsm.tree import LSMConfig, LSMRTree
from repro.rtree.alpha import AlphaTree
from repro.rtree.lazy import LazyRTree
from repro.rtree.node import Entry, RTreeNode
from repro.rtree.rtree import RTree
from repro.storage.page import Page
from repro.storage.pager import Pager

FORMAT_VERSION = 1


class SnapshotError(ValueError):
    """Raised for malformed or incompatible snapshot documents."""


# -- rectangle / entry encoding ------------------------------------------------


def _enc_rect(rect: Optional[Rect]):
    if rect is None:
        return None
    return [list(rect.lo), list(rect.hi)]


def _dec_rect(data) -> Optional[Rect]:
    if data is None:
        return None
    return Rect(tuple(data[0]), tuple(data[1]))


def _enc_owner(owner):
    return list(owner)


def _dec_owner(data):
    return tuple(data)


# -- page encoding -----------------------------------------------------------


def _encode_page(page: Page) -> Dict:
    if isinstance(page, CTNode):
        return {
            "type": "ct_node",
            "level": page.level,
            "parent": page.parent,
            "mbr": _enc_rect(page.mbr),
            "buffer": {
                "kind": page.buffer.kind,
                "pages": list(page.buffer.pages),
                "fills": list(page.buffer.fills),
            },
            "entries": [
                {
                    "rect": _enc_rect(e.rect),
                    "region_id": e.region_id,
                    "chain": list(e.chain),
                    "fills": list(e.fills),
                    "removals": e.removals,
                    "window_start": e.window_start,
                }
                if isinstance(e, QSEntry)
                else {"rect": _enc_rect(e.rect), "child": e.child}
                for e in page.entries
            ],
        }
    if isinstance(page, RTreeNode):
        # ``iter_packed`` reads the struct-of-arrays columns directly (no
        # per-entry Rect/view allocation).  ``array('d')`` round-trips the
        # exact doubles that built it and ``array('q')`` yields plain ints,
        # so the document holds the same floats and ints the entries did.
        return {
            "type": "rtree_node",
            "level": page.level,
            "parent": page.parent,
            "mbr": _enc_rect(page.mbr),
            "tag": page.tag,
            "entries": [
                {"rect": [list(lo), list(hi)], "child": child}
                for lo, hi, child in page.entries.iter_packed()
            ],
        }
    if isinstance(page, DataPage):
        return {
            "type": "data_page",
            "capacity": page.capacity,
            "owner": _enc_owner(page.owner),
            "tolerance": _enc_rect(page.tolerance),
            "records": {str(oid): list(pt) for oid, pt in page.records.items()},
        }
    if isinstance(page, BucketPage):
        return {"type": "bucket_page", "slots": list(page.slots)}
    raise SnapshotError(f"cannot snapshot page type {type(page).__name__}")


def _decode_page(data: Dict) -> Page:
    kind = data.get("type")
    if kind == "ct_node":
        node = CTNode(level=data["level"])
        node.parent = data["parent"]
        node.mbr = _dec_rect(data["mbr"])
        buf = NodeBuffer()
        buf.kind = data["buffer"]["kind"]
        buf.pages = list(data["buffer"]["pages"])
        buf.fills = list(data["buffer"]["fills"])
        node.buffer = buf
        for raw in data["entries"]:
            if "region_id" in raw:
                qs = QSEntry(_dec_rect(raw["rect"]), raw["region_id"], raw["window_start"])
                qs.chain = list(raw["chain"])
                qs.fills = list(raw["fills"])
                qs.removals = raw["removals"]
                node.entries.append(qs)
            else:
                node.entries.append(Entry(_dec_rect(raw["rect"]), raw["child"]))
        return node
    if kind == "rtree_node":
        node = RTreeNode(level=data["level"])
        node.parent = data["parent"]
        node.mbr = _dec_rect(data["mbr"])
        node.tag = data["tag"]
        entries = node.entries
        for raw in data["entries"]:
            # Validate through the Rect constructor (as before), then pack
            # the canonical bounds straight into the entry columns.
            rect = _dec_rect(raw["rect"])
            assert rect is not None
            entries.append_packed(rect.lo, rect.hi, raw["child"])
        return node
    if kind == "data_page":
        page = DataPage(
            data["capacity"], _dec_owner(data["owner"]), _dec_rect(data["tolerance"])
        )
        page.records = {int(oid): tuple(pt) for oid, pt in data["records"].items()}
        return page
    if kind == "bucket_page":
        page = BucketPage(len(data["slots"]))
        page.slots = list(data["slots"])
        return page
    raise SnapshotError(f"unknown page type {kind!r}")


# -- pager --------------------------------------------------------------------


def _encode_pager(pager: Pager) -> Dict:
    return {
        "page_size": pager.page_size,
        "next_pid": pager.next_pid,
        "pages": {str(pid): _encode_page(pager.inspect(pid)) for pid in pager.iter_pids()},
    }


def _decode_pager(data: Dict) -> Pager:
    pager = Pager(page_size=data["page_size"])
    for pid_str, raw in data["pages"].items():
        page = _decode_page(raw)
        page.pid = int(pid_str)
        pager._pages[page.pid] = page
    pager._next_pid = data["next_pid"]
    # Loading is not charged: a restore maps pages in, it does not re-write them.
    pager.stats.reset()
    return pager


def _encode_hash(index: HashIndex) -> Dict:
    return {
        "entries_per_bucket": index.entries_per_bucket,
        "buckets": {str(k): v for k, v in index._buckets.items()},
        "count": len(index),
    }


def _decode_hash(data: Dict, pager: Pager) -> HashIndex:
    index = HashIndex(pager, entries_per_bucket=data["entries_per_bucket"])
    index._buckets = {int(k): v for k, v in data["buckets"].items()}
    index._count = data["count"]
    return index


def _encode_rtree_config(tree: RTree) -> Dict:
    return {
        "root_pid": tree.root_pid,
        "size": len(tree),
        "max_entries": tree.max_entries,
        "min_entries": tree.min_entries,
        "split": tree.split_policy,
        "alpha": tree.alpha,
        "shrink_on_delete": tree.shrink_on_delete,
        "forced_reinsert": tree.forced_reinsert,
    }


def _decode_rtree(data: Dict, pager: Pager) -> RTree:
    next_pid = pager.next_pid
    tree = RTree(
        pager,
        max_entries=data["max_entries"],
        split=data["split"],
        alpha=data["alpha"],
        shrink_on_delete=data["shrink_on_delete"],
        forced_reinsert=data["forced_reinsert"],
    )
    # Discard the bootstrap root, and the pid it advanced the cursor past,
    # so that save -> load -> save is byte-identical.
    pager.free(tree.root_pid)
    pager._next_pid = next_pid
    tree._root_pid = data["root_pid"]
    tree._size = data["size"]
    tree.min_entries = data["min_entries"]
    return tree


# -- plain RTree (and the alpha variant's inner tree) --------------------------


def _rtree_document(tree: RTree) -> Dict:
    return {
        "version": FORMAT_VERSION,
        "structure": "rtree",
        "kind": "rtree",
        "pager": _encode_pager(tree.pager),
        "index": {"tree": _encode_rtree_config(tree)},
    }


def _load_rtree_document(document: Dict) -> RTree:
    pager = _decode_pager(document["pager"])
    tree = _decode_rtree(document["index"]["tree"], pager)
    pager.stats.reset()
    return tree


# -- LazyRTree -----------------------------------------------------------------


def _lazy_document(tree: LazyRTree) -> Dict:
    return {
        "version": FORMAT_VERSION,
        "structure": "lazy_rtree",
        # The kind tag distinguishes the alpha-tree (same page layout, but
        # the class re-applies loose-MBR behaviour and must round-trip).
        "kind": "alpha" if isinstance(tree, AlphaTree) else "lazy",
        "pager": _encode_pager(tree.pager),
        "index": {
            "tree": _encode_rtree_config(tree.tree),
            "hash": _encode_hash(tree.hash),
        },
    }


def _load_lazy_document(document: Dict) -> LazyRTree:
    pager = _decode_pager(document["pager"])
    inner = _decode_rtree(document["index"]["tree"], pager)
    hash_index = _decode_hash(document["index"]["hash"], pager)
    cls = AlphaTree if document.get("kind") == "alpha" else LazyRTree
    tree = cls.__new__(cls)
    tree.tree = inner
    tree.hash = hash_index
    tree.lazy_hits = 0
    tree.relocations = 0
    inner.on_entries_moved = tree._entries_moved
    pager.stats.reset()
    return tree


# -- CTRTree -------------------------------------------------------------------


def _ctrtree_document(tree: CTRTree) -> Dict:
    params = tree.params
    return {
        "version": FORMAT_VERSION,
        "structure": "ctrtree",
        "kind": "ct",
        "pager": _encode_pager(tree.pager),
        "index": {
            "root_pid": tree.root_pid,
            "domain": _enc_rect(tree.domain),
            "size": len(tree),
            "clock": tree._clock,
            "next_region_id": tree._next_region_id,
            "max_entries": tree.max_entries,
            "min_entries": tree.min_entries,
            "adaptive": tree.adaptive,
            "params": {
                field: getattr(params, field)
                for field in (
                    "t_dist", "t_rate", "t_time", "t_area", "c_query", "c_update",
                    "t_list", "t_buf_num", "t_buf_time", "t_remove", "alpha",
                )
            },
            "hash": _encode_hash(tree.hash),
            "buffer_trees": {
                str(node_pid): _encode_rtree_config(btree)
                for node_pid, btree in tree._buffer_trees.items()
            },
            "buffer_bounds": {
                str(node_pid): _enc_rect(bound)
                for node_pid, bound in tree._buffer_bounds.items()
            },
        },
    }


def _load_ctrtree_document(document: Dict) -> CTRTree:
    meta = document["index"]
    pager = _decode_pager(document["pager"])

    tree = CTRTree.__new__(CTRTree)
    tree._pager = pager
    tree.domain = _dec_rect(meta["domain"])
    tree.params = CTParams(**meta["params"])
    tree.max_entries = meta["max_entries"]
    tree.min_entries = meta["min_entries"]
    tree.page_capacity = meta["max_entries"]
    from repro.rtree.splits import SPLIT_POLICIES

    tree._split_fn = SPLIT_POLICIES["quadratic"]
    tree.hash = _decode_hash(meta["hash"], pager)
    tree.adaptive = meta["adaptive"]
    tree._buffer_trees = {}
    tree._buffer_bounds = {
        int(k): _dec_rect(v) for k, v in meta["buffer_bounds"].items()
    }
    tree._size = meta["size"]
    tree._clock = meta["clock"]
    tree._next_region_id = meta["next_region_id"]
    tree.lazy_hits = 0
    tree.relocations = 0
    tree._root_pid = meta["root_pid"]

    from repro.core.adaptive import AdaptationManager

    tree.adaptation = AdaptationManager(tree)

    for node_pid_str, config in meta["buffer_trees"].items():
        btree = _decode_rtree(config, pager)
        btree.on_entries_moved = tree.hash.set_many
        tree._buffer_trees[int(node_pid_str)] = btree
    pager.stats.reset()
    return tree


# -- LSM-R-tree ----------------------------------------------------------------


def _lsm_document(index: LSMRTree) -> Dict:
    """One document for the whole LSM index: shared pager, per-run manifest.

    Every run tree allocates from one pager, so the page table is encoded
    once; each run contributes only its tree configuration plus its sorted
    oid/tombstone side tables.  The memtable is serialized in canonical
    arrival (seq) order and tombstone sets are sorted, so save -> load ->
    save is byte-stable.
    """
    config = index.config
    return {
        "version": FORMAT_VERSION,
        "structure": "lsm",
        "kind": "lsm",
        "pager": _encode_pager(index.pager),
        "index": {
            "config": {
                "max_entries": index.max_entries,
                "split": index.split_policy,
                "memtable_size": config.memtable_size,
                "size_ratio": config.size_ratio,
                "max_runs": config.max_runs,
                "run_fill": config.run_fill,
                "auto_compact": config.auto_compact,
            },
            "live": len(index),
            "next_seq": index._next_seq,
            "memtable": [
                {
                    "oid": pending.oid,
                    "old": (
                        None
                        if pending.old_point is None
                        else list(pending.old_point)
                    ),
                    "point": list(pending.point),
                    "t": pending.t,
                    "seq": pending.seq,
                    "absorbed": pending.absorbed,
                }
                for pending in index.memtable.iter_pending()
            ],
            "mem_dead": sorted(index._mem_dead),
            "runs": [
                {
                    "tree": _encode_rtree_config(run.tree),
                    "oids": list(run.oids),
                    "tombstones": list(run.tombstones),
                    "seq": run.seq,
                }
                for run in index.runs
            ],
        },
    }


def _load_lsm_document(document: Dict) -> LSMRTree:
    from repro.engine.buffer import PendingUpdate

    meta = document["index"]
    pager = _decode_pager(document["pager"])
    cfg = meta["config"]
    index = LSMRTree(
        pager,
        max_entries=cfg["max_entries"],
        split=cfg["split"],
        config=LSMConfig(
            memtable_size=cfg["memtable_size"],
            size_ratio=cfg["size_ratio"],
            max_runs=cfg["max_runs"],
            run_fill=cfg["run_fill"],
            auto_compact=cfg["auto_compact"],
        ),
    )
    for raw in meta["runs"]:
        tree = _decode_rtree(raw["tree"], pager)
        index._runs.append(
            Run(tree, raw["oids"], raw["tombstones"], raw["seq"])
        )
    max_seq = 0
    # The memtable is held in seq order; the writer emits it that way.
    for raw in sorted(meta["memtable"], key=lambda raw: raw["seq"]):
        pending = PendingUpdate(
            oid=raw["oid"],
            old_point=None if raw["old"] is None else tuple(raw["old"]),
            point=tuple(raw["point"]),
            t=raw["t"],
            seq=raw["seq"],
            absorbed=raw.get("absorbed", 0),
        )
        index.memtable._pending[pending.oid] = pending
        max_seq = max(max_seq, pending.seq)
    index.memtable._seq = max_seq
    index._mem_dead = set(meta["mem_dead"])
    index._live = {oid for oid, _ in index.iter_objects()}
    if len(index._live) != meta["live"]:
        raise SnapshotError(
            f"lsm document records {meta['live']} live objects but its "
            f"components resolve {len(index._live)}"
        )
    index._next_seq = meta["next_seq"]
    pager.stats.reset()
    return index


# -- the sharded engine --------------------------------------------------------


def _sharded_document(index: ShardedIndex) -> Dict:
    """One versioned document for a whole sharded engine.

    Embeds one per-shard sub-document (built by the inner kind's document
    builder) plus the partition geometry and the object->shard routing
    table, so a restore rebuilds byte-identical shard contents *and* the
    router state.
    """
    inner_kind = index.kind
    if inner_kind not in _DOCUMENT_BUILDERS:
        raise SnapshotError(
            f"sharded engine over kind {inner_kind!r} has no snapshot support"
        )
    try:
        shards = index.shards
    except AttributeError as exc:
        raise SnapshotError(f"cannot snapshot this engine: {exc}") from exc
    build = _DOCUMENT_BUILDERS[inner_kind]
    return {
        "version": FORMAT_VERSION,
        "structure": "sharded",
        "kind": "sharded",
        "inner_kind": inner_kind,
        # Versioned partition document (v2: partitioner tag + boundary
        # list); partition_from_dict reconstructs the exact routing
        # arithmetic, v1 grid documents included.
        "partition": index.partition.to_dict(),
        "owner": {str(oid): sid for oid, sid in index._owner.items()},
        "cross_shard_moves": index.cross_shard_moves,
        "rebalances": index.rebalances,
        # The positions ledger (position + last timestamp per object):
        # restoring it keeps a post-load rebalance replay byte-identical
        # to one on the live engine.
        "positions": {
            str(oid): [list(pos), t] for oid, (pos, t) in index._positions.items()
        },
        "move_counts": {str(oid): n for oid, n in index._move_counts.items()},
        "shards": [build(shard.index) for shard in shards],
    }


def _load_sharded_document(document: Dict) -> ShardedIndex:
    from repro.engine.rebalance import partition_from_dict

    inner_kind = document["inner_kind"]
    loader = _DOCUMENT_LOADERS.get(inner_kind)
    if loader is None:
        raise SnapshotError(f"unknown sharded inner kind {inner_kind!r}")
    try:
        partition = partition_from_dict(document["partition"])
    except (KeyError, ValueError) as exc:
        raise SnapshotError(f"bad partition document: {exc}") from exc
    shards = []
    for sid, sub_document in enumerate(document["shards"]):
        inner = loader(sub_document)
        shards.append(
            Shard(
                sid=sid,
                region=partition.region(sid),
                pager=inner.pager,
                store=inner.pager,
                index=inner,
            )
        )
    # Recover the construction knobs from the restored structures, so a
    # post-load rebalance rebuilds shards with the same geometry the saved
    # engine would have (byte-identical cutover replay).  Histories are not
    # snapshotted: the shard contents already embody their effect.
    first = shards[0].index
    tree = getattr(first, "tree", first)
    index = ShardedIndex(
        inner_kind,
        partition.domain,
        partition=partition,
        max_entries=getattr(tree, "max_entries", 20),
        ct_params=getattr(first, "params", None),
        adaptive=getattr(first, "adaptive", True),
        shards=shards,
    )
    index._owner = {int(oid): int(sid) for oid, sid in document["owner"].items()}
    index.cross_shard_moves = int(document.get("cross_shard_moves", 0))
    index.rebalances = int(document.get("rebalances", 0))
    index._move_counts = {
        int(oid): int(n) for oid, n in document.get("move_counts", {}).items()
    }
    positions_doc = document.get("positions")
    if positions_doc is not None:
        index._positions = {
            int(oid): (tuple(entry[0]), entry[1])
            for oid, entry in positions_doc.items()
        }
    else:
        # A document older than the positions ledger: reconstruct it
        # (timestamps unknown) from shard residency so rebalancing still
        # works after a load.
        for shard in shards:
            for oid, pos in shard.index.iter_objects():
                index._positions[oid] = (tuple(pos), None)
    return index


# -- generic dispatch ----------------------------------------------------------

_DOCUMENT_BUILDERS: Dict[str, Callable] = {
    "rtree": _rtree_document,
    "lazy": _lazy_document,
    "alpha": _lazy_document,
    "ct": _ctrtree_document,
    "lsm": _lsm_document,
    "sharded": _sharded_document,
}

_DOCUMENT_LOADERS: Dict[str, Callable] = {
    "rtree": _load_rtree_document,
    "lazy": _load_lazy_document,
    "alpha": _load_lazy_document,
    "ct": _load_ctrtree_document,
    "lsm": _load_lsm_document,
    "sharded": _load_sharded_document,
}

#: Pre-kind-tag documents carry only a structure string; map it to a kind.
_STRUCTURE_TO_KIND = {
    "rtree": "rtree",
    "lazy_rtree": "lazy",
    "ctrtree": "ct",
    "lsm": "lsm",
    "sharded": "sharded",
}


def index_kind_of(index) -> str:
    """The snapshot kind tag for a live index instance."""
    # Order matters: AlphaTree subclasses LazyRTree.
    if isinstance(index, LSMRTree):
        return "lsm"
    if isinstance(index, CTRTree):
        return "ct"
    if isinstance(index, AlphaTree):
        return "alpha"
    if isinstance(index, LazyRTree):
        return "lazy"
    if isinstance(index, RTree):
        return "rtree"
    if isinstance(index, ShardedIndex):
        return "sharded"
    raise SnapshotError(f"cannot snapshot index type {type(index).__name__}")


def build_document(index, *, kind: Optional[str] = None) -> Dict:
    """The snapshot document for ``index`` as plain data (not yet written).

    The durability layer's checkpoints embed this document inside their own
    envelope (WAL position, ordinal) instead of writing a bare snapshot
    file; both paths share one builder table.
    """
    tag = kind if kind is not None else index_kind_of(index)
    builder = _DOCUMENT_BUILDERS.get(tag)
    if builder is None:
        raise SnapshotError(
            f"no snapshot support for kind {tag!r}; "
            f"known: {sorted(_DOCUMENT_BUILDERS)}"
        )
    return builder(index)


def load_document(document: Dict):
    """Materialize an index from a snapshot document (inverse of
    :func:`build_document`); dispatches on the ``kind`` tag with the same
    pre-tag fallback as :func:`load_index`."""
    if not isinstance(document, dict):
        raise SnapshotError(
            f"snapshot document must be an object, got {type(document).__name__}"
        )
    tag = document.get("kind") or _STRUCTURE_TO_KIND.get(document.get("structure", ""))
    loader = _DOCUMENT_LOADERS.get(tag or "")
    if loader is None:
        raise SnapshotError(
            f"snapshot kind {tag!r} (structure "
            f"{document.get('structure')!r}) is not loadable"
        )
    return loader(document)


def save_index(index, path: Union[str, Path], *, kind: Optional[str] = None) -> Path:
    """Snapshot any supported index; dispatches on its ``kind`` tag."""
    return _write_document(build_document(index, kind=kind), path)


def load_index(path: Union[str, Path]):
    """Load any snapshot; dispatches on the document's ``kind`` tag.

    Documents written before the kind tag existed are dispatched by their
    ``structure`` string, so old snapshots keep loading.
    """
    return load_document(_read_document(path))


# -- document I/O --------------------------------------------------------------


def _write_document(document: Dict, path: Union[str, Path]) -> Path:
    """Write atomically: tmp file, flush + fsync, then ``os.replace``.

    A crash at any instant leaves either the previous file intact or the
    new one fully published -- never a truncated snapshot.  A stale
    ``*.tmp`` from an earlier crash is simply overwritten.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(document))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def _read_document(path: Union[str, Path]) -> Dict:
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # Truncated writes, torn tails and bit rot all surface here; give
        # callers one distinct error to catch instead of raw decode errors.
        raise SnapshotError(f"not a snapshot file: {exc}") from exc
    if not isinstance(document, dict):
        raise SnapshotError(
            f"snapshot document must be an object, got {type(document).__name__}"
        )
    if document.get("version") != FORMAT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {document.get('version')!r}")
    return document
