"""Property-based snapshot tests: any workload, save/load, same answers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ctrtree import CTRTree
from repro.core.geometry import Rect
from repro.core.params import CTParams
from repro.rtree import LazyRTree
from repro.storage.pager import Pager
from repro.storage.snapshot import load_index, save_index
from tests.conftest import assert_verified

DOMAIN = Rect((0, 0), (1000, 1000))

coord = st.floats(min_value=0, max_value=1000, allow_nan=False, width=32)
step = st.tuples(
    st.sampled_from(["insert", "move", "delete"]),
    st.integers(0, 15),
    st.tuples(coord, coord),
)

QUERIES = [
    Rect((0, 0), (250, 250)),
    Rect((200, 200), (800, 800)),
    Rect((0, 0), (1000, 1000)),
]


def drive(tree, steps, needs_old):
    oracle = {}
    for op, oid, point in steps:
        if op == "insert" and oid not in oracle:
            tree.insert(oid, point)
            oracle[oid] = point
        elif op == "move" and oid in oracle:
            tree.update(oid, oracle[oid], point)
            oracle[oid] = point
        elif op == "delete" and oid in oracle:
            tree.delete(oid) if not needs_old else tree.delete(oid, oracle[oid])
            oracle.pop(oid)
    return oracle


def answers(tree):
    return [sorted(oid for oid, _ in tree.range_search(q)) for q in QUERIES]


@settings(max_examples=15, deadline=None)
@given(st.lists(step, max_size=80))
def test_lazy_rtree_roundtrip_preserves_answers(tmp_path_factory, steps):
    tree = LazyRTree(Pager(), max_entries=5)
    drive(tree, steps, needs_old=False)
    path = tmp_path_factory.mktemp("snap") / "lazy.json"
    save_index(tree, path)
    loaded = load_index(path)
    assert answers(loaded) == answers(tree)
    assert_verified(loaded)
    assert len(loaded) == len(tree)


@settings(max_examples=12, deadline=None)
@given(st.lists(step, max_size=80))
def test_ctrtree_roundtrip_preserves_answers(tmp_path_factory, steps):
    tree = CTRTree(
        Pager(), DOMAIN, [Rect((100, 100), (400, 400)), Rect((600, 0), (900, 300))],
        max_entries=5, ct_params=CTParams(t_list=1),
    )
    drive(tree, steps, needs_old=False)
    path = tmp_path_factory.mktemp("snap") / "ct.json"
    save_index(tree, path)
    loaded = load_index(path)
    assert answers(loaded) == answers(tree)
    assert_verified(loaded)
    assert loaded.region_count == tree.region_count


@settings(max_examples=10, deadline=None)
@given(st.lists(step, max_size=60), st.lists(step, max_size=40))
def test_ctrtree_post_reload_workload_equivalence(tmp_path_factory, before, after):
    """Running a workload across a save/load boundary must equal running it
    in one session."""
    def fresh():
        return CTRTree(
            Pager(), DOMAIN, [Rect((100, 100), (500, 500))],
            max_entries=5, ct_params=CTParams(t_list=1),
        )

    continuous = fresh()
    state = drive(continuous, before, needs_old=False)
    replay = {oid: pt for oid, pt in state.items()}

    snapshotted = fresh()
    drive(snapshotted, before, needs_old=False)
    path = tmp_path_factory.mktemp("snap") / "ct.json"
    save_index(snapshotted, path)
    resumed = load_index(path)

    # Make `after` applicable to both: seed oracle with the surviving state.
    oracle_a = dict(replay)
    oracle_b = dict(replay)
    for op, oid, point in after:
        for tree, oracle in ((continuous, oracle_a), (resumed, oracle_b)):
            if op == "insert" and oid not in oracle:
                tree.insert(oid, point)
                oracle[oid] = point
            elif op == "move" and oid in oracle:
                tree.update(oid, oracle[oid], point)
                oracle[oid] = point
            elif op == "delete" and oid in oracle:
                tree.delete(oid)
                oracle.pop(oid)
    assert answers(resumed) == answers(continuous)
    assert_verified(resumed)
