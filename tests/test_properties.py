"""Cross-module property-based tests: the invariants the paper relies on.

These complement the per-module hypothesis tests with whole-index properties
driven by generated workloads: whatever sequence of inserts, moves, and
deletes arrives, every structure must agree with a brute-force oracle and
keep its internal invariants.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ctrtree import CTRTree
from repro.core.geometry import Rect
from repro.core.params import CTParams
from repro.core.qsregion import identify_qs_regions
from repro.rtree import AlphaTree, LazyRTree, RTree
from repro.storage.pager import Pager
from tests.conftest import assert_verified, brute_force_range, dwell_trail

DOMAIN = Rect((0, 0), (1000, 1000))

coord = st.floats(min_value=0, max_value=1000, allow_nan=False, width=32)
point = st.tuples(coord, coord)

# A workload step: (op, object id, point).
step = st.tuples(st.sampled_from(["insert", "move", "delete"]), st.integers(0, 25), point)


def apply_workload(index, steps, needs_old_point):
    """Drive an index through generated steps, mirroring in a dict oracle."""
    oracle = {}
    for op, oid, pt in steps:
        if op == "insert" and oid not in oracle:
            index.insert(oid, pt)
            oracle[oid] = pt
        elif op == "move" and oid in oracle:
            if needs_old_point:
                index.update(oid, oracle[oid], pt)
            else:
                index.update(oid, oracle[oid], pt)
            oracle[oid] = pt
        elif op == "delete" and oid in oracle:
            if needs_old_point:
                assert index.delete(oid, oracle[oid])
            else:
                assert index.delete(oid)
            del oracle[oid]
    return oracle


@settings(max_examples=25, deadline=None)
@given(st.lists(step, max_size=120))
def test_rtree_agrees_with_oracle(steps):
    tree = RTree(Pager(), max_entries=5)
    oracle = apply_workload(tree, steps, needs_old_point=True)
    assert_verified(tree)
    assert sorted(o for o, _ in tree.range_search(DOMAIN)) == sorted(oracle)


@settings(max_examples=25, deadline=None)
@given(st.lists(step, max_size=120))
def test_lazy_rtree_agrees_with_oracle(steps):
    tree = LazyRTree(Pager(), max_entries=5)
    oracle = apply_workload(tree, steps, needs_old_point=False)
    assert_verified(tree)
    assert sorted(o for o, _ in tree.range_search(DOMAIN)) == sorted(oracle)


@settings(max_examples=25, deadline=None)
@given(st.lists(step, max_size=120))
def test_alpha_tree_agrees_with_oracle(steps):
    tree = AlphaTree(Pager(), max_entries=5)
    oracle = apply_workload(tree, steps, needs_old_point=False)
    assert_verified(tree)
    assert sorted(o for o, _ in tree.range_search(DOMAIN)) == sorted(oracle)


@settings(max_examples=20, deadline=None)
@given(st.lists(step, max_size=100), st.integers(0, 3))
def test_ctrtree_agrees_with_oracle(steps, region_layout):
    layouts = [
        [],
        [Rect((0, 0), (200, 200))],
        [Rect((0, 0), (150, 150)), Rect((100, 100), (300, 300))],  # overlapping
        [Rect((i * 250.0, j * 250.0), (i * 250.0 + 80, j * 250.0 + 80))
         for i in range(4) for j in range(4)],
    ]
    tree = CTRTree(
        Pager(), DOMAIN, layouts[region_layout],
        max_entries=5, ct_params=CTParams(t_list=1, t_buf_num=4, t_buf_time=3.0),
    )
    oracle = apply_workload(tree, steps, needs_old_point=False)
    assert_verified(tree)
    assert sorted(o for o, _ in tree.range_search(DOMAIN)) == sorted(oracle)


@settings(max_examples=20, deadline=None)
@given(st.lists(step, max_size=100))
def test_ct_and_lazy_always_agree(steps):
    """Two very different structures, one answer."""
    ct = CTRTree(Pager(), DOMAIN, [Rect((0, 0), (400, 400))], max_entries=5)
    lazy = LazyRTree(Pager(), max_entries=5)
    oracle = {}
    for op, oid, pt in steps:
        if op == "insert" and oid not in oracle:
            ct.insert(oid, pt)
            lazy.insert(oid, pt)
            oracle[oid] = pt
        elif op == "move" and oid in oracle:
            ct.update(oid, oracle[oid], pt)
            lazy.update(oid, oracle[oid], pt)
            oracle[oid] = pt
        elif op == "delete" and oid in oracle:
            ct.delete(oid)
            lazy.delete(oid)
            del oracle[oid]
    queries = [
        Rect((0, 0), (100, 100)),
        Rect((250, 250), (600, 600)),
        Rect((0, 0), (1000, 1000)),
    ]
    for query in queries:
        ct_ans = sorted(o for o, _ in ct.range_search(query))
        lazy_ans = sorted(o for o, _ in lazy.range_search(query))
        assert ct_ans == lazy_ans == brute_force_range(oracle, query)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_phase1_to_ct_pipeline_property(seed, n_spots):
    """Regions mined from a trail always accept the trail's dwell points."""
    rng = random.Random(seed)
    params = CTParams()
    spots = [(rng.uniform(100, 900), rng.uniform(100, 900)) for _ in range(n_spots)]
    trail = dwell_trail(rng, spots, dwell_reports=30)
    regions = identify_qs_regions(trail, params, object_id=0)
    tree = CTRTree(Pager(), DOMAIN, regions, max_entries=8, ct_params=params)
    # Insert the trail's own samples: dwell samples land in qs-regions.
    in_region = 0
    for i, (pt, _t) in enumerate(trail):
        tree.insert(i, pt)
    assert_verified(tree)
    in_region = len(trail) - tree.buffered_object_count()
    if regions:
        assert in_region / len(trail) > 0.5


@settings(max_examples=15, deadline=None)
@given(st.lists(point, min_size=1, max_size=200))
def test_hash_index_exactness_under_bulk(points):
    """After arbitrary inserts, the hash index locates every object exactly."""
    tree = LazyRTree(Pager(), max_entries=5)
    for oid, pt in enumerate(points):
        tree.insert(oid, pt)
    for oid, pt in enumerate(points):
        pid = tree.hash.peek(oid)
        leaf = tree.pager.inspect(pid)
        assert leaf.find_entry(oid) is not None
