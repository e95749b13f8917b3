"""End-to-end engine tests: batched/sharded runs vs the plain driver, and
the generic snapshot dispatch."""

import json

import pytest

from repro.core.geometry import Rect
from repro.engine import IndexKind, ShardedIndex, make_index
from repro.experiments.harness import build_workload, run_index_on
from repro.rtree import AlphaTree
from repro.storage.pager import Pager
from repro.storage.snapshot import (
    SnapshotError,
    index_kind_of,
    load_index,
    save_index,
)
from tests.conftest import random_points

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))


@pytest.fixture(scope="module")
def bundle():
    return build_workload("smoke", 0)


class TestBatchedAndShardedRuns:
    """The acceptance bar: engine runs return identical query results and
    batched runs never pay more update I/O per op than unbatched ones."""

    @pytest.mark.parametrize("kind", IndexKind.ALL)
    def test_query_results_identical_to_plain_run(self, bundle, kind):
        plain = run_index_on(kind, bundle, skip=4, query_count=6)
        engine = run_index_on(
            kind, bundle, skip=4, query_count=6, shards=3, batch=16
        )
        assert engine.result.n_queries == plain.result.n_queries
        assert engine.result.result_count == plain.result.result_count
        assert len(engine.index) == len(plain.index)

    def test_batched_update_io_not_worse(self, bundle):
        for kind in (IndexKind.LAZY, IndexKind.CT):
            plain = run_index_on(kind, bundle, skip=2, query_count=4)
            batched = run_index_on(kind, bundle, skip=2, query_count=4, batch=32)
            assert (
                batched.result.ios_per_update <= plain.result.ios_per_update
            ), kind
            assert batched.result.n_coalesced >= 0
            assert batched.result.n_flushes > 0
            assert batched.result.n_applied + batched.result.n_coalesced == (
                batched.result.n_updates
            )

    def test_plain_run_reports_no_batching(self, bundle):
        plain = run_index_on(IndexKind.LAZY, bundle, skip=4, query_count=2)
        assert plain.result.n_flushes == 0
        assert plain.result.n_coalesced == 0
        assert plain.buffer is None

    def test_sharded_run_result_consistent_with_merged(self, bundle):
        run = run_index_on(
            IndexKind.LAZY, bundle, skip=4, query_count=4, shards=3
        )
        merged = run.index.merged_result()
        # the driver's ledger and the merged shard ledgers read one shared
        # IOStats, so the I/O totals agree exactly
        assert run.result.update_ios == merged.update_ios
        assert run.result.query_ios == merged.query_ios
        # driver counts each query once; shards count fan-outs
        assert merged.n_queries >= run.result.n_queries

    def test_time_horizon_batching(self, bundle):
        run = run_index_on(
            IndexKind.LAZY,
            bundle,
            skip=4,
            query_count=2,
            batch=0,
            batch_horizon=5.0,
        )
        assert run.result.n_flushes > 0
        assert run.result.n_applied + run.result.n_coalesced == (
            run.result.n_updates
        )


class TestSnapshotDispatch:
    def populated(self, rng, kind, **kwargs):
        index = make_index(kind, Pager(), DOMAIN, **kwargs)
        points = random_points(rng, 50)
        for oid, p in points.items():
            index.insert(oid, p)
        return index, points

    @pytest.mark.parametrize("kind", ["rtree", "lazy", "alpha"])
    def test_roundtrip_by_kind_tag(self, rng, tmp_path, kind):
        index, points = self.populated(rng, kind, max_entries=8)
        path = save_index(index, tmp_path / f"{kind}.json")
        assert json.loads(path.read_text())["kind"] == kind
        loaded = load_index(path)
        assert index_kind_of(loaded) == kind
        assert type(loaded) is type(index)
        rect = Rect((20.0, 20.0), (70.0, 70.0))
        assert sorted(loaded.range_search(rect)) == sorted(
            index.range_search(rect)
        )

    def test_rtree_roundtrip_preserves_parameters(self, rng, tmp_path):
        from repro.rtree import RTree

        tree = RTree(
            Pager(),
            max_entries=10,
            split="linear",
            alpha=0.7,
            shrink_on_delete=False,
        )
        for oid, p in random_points(rng, 40).items():
            tree.insert(oid, p)
        loaded = load_index(save_index(tree, tmp_path / "r.json"))
        assert loaded.max_entries == 10
        assert loaded.split_policy == "linear"
        assert loaded.alpha == 0.7
        assert loaded.shrink_on_delete is False

    def test_alpha_roundtrip_preserves_alpha(self, rng, tmp_path):
        tree = AlphaTree(Pager(), max_entries=8, alpha=0.33)
        for oid, p in random_points(rng, 40).items():
            tree.insert(oid, p)
        loaded = load_index(save_index(tree, tmp_path / "a.json"))
        assert isinstance(loaded, AlphaTree)
        assert loaded.tree.alpha == 0.33
        assert index_kind_of(loaded) == "alpha"

    def test_legacy_save_loads_through_generic_loader(self, rng, tmp_path):
        # A document written before the kind tag existed carries only its
        # structure string; the generic loader dispatches on that.
        index, _ = self.populated(rng, "lazy", max_entries=8)
        path = save_index(index, tmp_path / "legacy.json")
        document = json.loads(path.read_text())
        del document["kind"]
        path.write_text(json.dumps(document))
        loaded = load_index(path)
        assert index_kind_of(loaded) == "lazy"
        assert len(loaded) == len(index)

    def test_sharded_roundtrip_restores_router_and_accounting(
        self, rng, tmp_path
    ):
        index = ShardedIndex(IndexKind.LAZY, DOMAIN, 3, max_entries=8)
        points = random_points(rng, 60)
        for oid, p in points.items():
            index.insert(oid, p)
        for oid in list(points)[::4]:
            new = (rng.uniform(0, 100), rng.uniform(0, 100))
            index.update(oid, points[oid], new)
            points[oid] = new
        path = save_index(index, tmp_path / "sharded.json")
        loaded = load_index(path)
        assert loaded.n_shards == 3
        assert loaded.cross_shard_moves == index.cross_shard_moves
        assert loaded.owner_of(0) == index.owner_of(0)
        rect = Rect((10.0, 10.0), (90.0, 90.0))
        assert sorted(loaded.range_search(rect)) == sorted(
            index.range_search(rect)
        )
        # accounting resumes on the dual ledger: a post-restore update charges
        # the shared ledger and the owning shard's ledger identically
        oid = next(iter(points))
        loaded.update(oid, points[oid], (50.0, 50.0))
        assert loaded.pager.stats.total() == sum(
            s.pager.stats.total() for s in loaded.shards
        ) > 0

    def test_unsupported_index_rejected(self):
        with pytest.raises(SnapshotError, match="cannot snapshot"):
            index_kind_of(object())
        with pytest.raises(SnapshotError, match="no snapshot support"):
            save_index(object(), "x.json", kind="btree")

    def test_unknown_document_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "structure": "mystery"}))
        with pytest.raises(SnapshotError, match="not loadable"):
            load_index(path)
