"""The 1-D extension's core guarantee: a CT index over scalar values and the
B+-tree family answer every value query identically."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BPlusTree, LazyBPlusTree
from repro.core.ctrtree import CTRTree
from repro.core.geometry import Rect
from repro.core.params import CTParams
from repro.storage.pager import Pager
from tests.conftest import assert_verified

DOMAIN_1D = Rect((-1000.0,), (1000.0,))

key = st.floats(min_value=-900, max_value=900, allow_nan=False, width=32)
step = st.tuples(st.sampled_from(["insert", "move", "delete"]), st.integers(0, 15), key)


@settings(max_examples=20, deadline=None)
@given(st.lists(step, max_size=120))
def test_ct_1d_matches_bptree(steps):
    ct = CTRTree(
        Pager(), DOMAIN_1D, [Rect((-100.0,), (100.0,))],
        max_entries=5, ct_params=CTParams(t_list=1),
    )
    bpt = BPlusTree(Pager(), max_entries=5)
    lazy = LazyBPlusTree(Pager(), max_entries=5)
    oracle = {}
    for op, oid, value in steps:
        value = float(value)
        if op == "insert" and oid not in oracle:
            ct.insert(oid, (value,))
            bpt.insert(oid, value)
            lazy.insert(oid, value)
            oracle[oid] = value
        elif op == "move" and oid in oracle:
            ct.update(oid, (oracle[oid],), (value,))
            bpt.update(oid, oracle[oid], value)
            lazy.update(oid, oracle[oid], value)
            oracle[oid] = value
        elif op == "delete" and oid in oracle:
            ct.delete(oid)
            bpt.delete(oid, oracle[oid])
            lazy.delete(oid)
            del oracle[oid]

    assert_verified(ct)
    assert_verified(bpt)
    assert_verified(lazy)
    for low, high in ((-1000.0, 1000.0), (-50.0, 50.0), (0.0, 200.0)):
        expected = sorted(oid for oid, v in oracle.items() if low <= v <= high)
        assert sorted(oid for oid, _ in ct.range_search(Rect((low,), (high,)))) == expected
        assert sorted(oid for oid, _ in bpt.range_search(low, high)) == expected
        assert sorted(oid for oid, _ in lazy.range_search(low, high)) == expected


def test_ct_1d_mines_intervals_from_scalar_history():
    """End to end in 1-D: history -> intervals -> mostly-lazy ingest."""
    from repro.core.builder import CTRTreeBuilder

    rng = random.Random(9)
    trails = {}
    for sid in range(40):
        level = rng.choice((10.0, 30.0))
        t, trail = 0.0, []
        for _ in range(80):
            t += 20.0
            level += rng.gauss(0, 0.05)
            trail.append(((level,), t))
        trails[sid] = trail
    params = CTParams(t_dist=2.0, t_rate=0.05, t_time=300.0, t_area=4.0)
    builder = CTRTreeBuilder(params, query_rate=0.1)
    current = {sid: trail[-1][0] for sid, trail in trails.items()}
    tree, report = builder.build(Pager(), DOMAIN_1D, trails, current)
    assert report.phase3_regions >= 2  # the two operating levels
    lazy_before = tree.lazy_hits
    for sid, (value,) in current.items():
        tree.update(sid, (value,), (value + 0.01,))
    assert tree.lazy_hits - lazy_before == len(current)  # all in-interval
