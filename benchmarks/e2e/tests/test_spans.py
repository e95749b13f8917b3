import json

from benchmarks.e2e.spans import SpanRecorder, merge_totals, write_jsonl


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    rec = SpanRecorder(keep_every=1, clock=clock)
    rec.on = True
    rec.begin_op(0)
    # index.update [0, 10] -> hash.get [1, 4] -> store.read [2, 3];
    #                      -> store.write [6, 8]
    rec.push("rtree.update")
    clock.now = 1.0
    rec.push("hashindex.get")
    clock.now = 2.0
    rec.push("storage.read")
    clock.now = 3.0
    rec.pop()
    clock.now = 4.0
    rec.pop()
    clock.now = 6.0
    rec.push("storage.write")
    clock.now = 8.0
    rec.pop()
    clock.now = 10.0
    rec.pop()

    assert rec.total_s("rtree.update") == 10.0
    assert rec.self_s("rtree.update") == 10.0 - 3.0 - 2.0  # grandchild not subtracted twice
    assert rec.self_s("hashindex.") == 3.0 - 1.0
    assert rec.self_s("storage.") == 1.0 + 2.0
    # Self times telescope: together they cover the top-level span exactly.
    assert rec.all_self_s() == 10.0

    by_name = {span["name"]: span for span in rec.kept}
    assert by_name["rtree.update"]["parent"] is None
    assert by_name["hashindex.get"]["parent"] == by_name["rtree.update"]["id"]
    assert by_name["storage.read"]["parent"] == by_name["hashindex.get"]["id"]
    assert by_name["storage.write"]["parent"] == by_name["rtree.update"]["id"]
    assert all(span["op"] == 0 for span in rec.kept)


def test_totals_cover_every_op_trees_every_nth():
    clock = FakeClock()
    rec = SpanRecorder(keep_every=100, keep_durations=("x",), clock=clock)
    rec.on = True
    for op in range(250):
        rec.begin_op(op)
        rec.push("x")
        clock.now += 1.0
        rec.pop()
    assert rec.count("x") == 250
    assert rec.totals["x"].durations == [1.0] * 250
    assert [span["op"] for span in rec.kept] == [0, 100, 200]


def test_wrap_passes_through_while_off():
    rec = SpanRecorder()
    wrapped = rec.wrap("x", lambda value: value + 1)
    assert wrapped(1) == 2 and not rec.totals
    rec.on = True
    assert wrapped(1) == 2 and rec.count("x") == 1


def test_merge_and_write(tmp_path):
    recorders = []
    for _ in range(2):
        clock = FakeClock()
        rec = SpanRecorder(keep_every=1, clock=clock)
        rec.begin_op(0)
        rec.push("serve.client.rtt.update")
        clock.now = 2.0
        rec.pop()
        recorders.append(rec)
    merged = merge_totals(recorders)
    assert merged.count("serve.client.rtt.update") == 2
    assert merged.mean_s("serve.client.rtt.update") == 2.0
    assert sorted(span["thread"] for span in merged.kept) == [0, 1]
    path = tmp_path / "out" / "spans.jsonl"
    assert write_jsonl(path, merged.kept) == 2
    assert [json.loads(line)["name"] for line in path.read_text().splitlines()] == [
        "serve.client.rtt.update"
    ] * 2
