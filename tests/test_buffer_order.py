"""The UpdateBuffer's order invariant under random put / drop / flush.

``_pending`` is kept in arrival (seq) order -- a coalescing ``put`` moves
its entry to the end -- so ``iter_pending()`` returns it without sorting
and ``flush`` sorts by ``t`` alone.  Both must hand out exactly the orders
the explicit sorts gave: seq order, and ``(t, seq)`` order for the batch
an index's ``apply_batch`` receives.  The lazy-R-tree, alpha-tree and
LSM-R-tree all take their batches through this path.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.engine import UpdateBuffer

#: (op, oid, t): 0-1 = put, 2 = drop, 3 = flush into apply_batch,
#: 4 = flush into an apply_batch that raises, 5 = flush into a per-update
#: index that raises after ``oid % 4`` applies.
OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=7),
        # Few distinct times: plenty of ties, and out of arrival order.
        st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, 3.0, -0.0]),
    ),
    min_size=1,
    max_size=80,
)


class Fault(Exception):
    pass


class BatchSink:
    def __init__(self, fail: bool) -> None:
        self.fail = fail
        self.batches = []

    def apply_batch(self, batch):
        self.batches.append([(u.oid, u.t, u.seq) for u in batch])
        if self.fail:
            raise Fault("apply_batch failed mid-flush")
        return len(batch)


class FragileIndex:
    """A per-update index (no ``apply_batch``) that fails after ``budget``
    applies, leaving the rest of the batch pending."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.applied = []

    def insert(self, oid, point, now=None):
        self._apply(oid, now)

    def update(self, oid, old_point, point, now=None):
        self._apply(oid, now)

    def _apply(self, oid, now):
        if len(self.applied) == self.budget:
            raise Fault("index failed mid-flush")
        self.applied.append(oid)


def seq_order(model):
    return sorted(
        ((oid, seq, t) for oid, (seq, t) in model.items()),
        key=lambda row: row[1],
    )


def t_seq_order(model):
    return sorted(
        ((oid, t, seq) for oid, (seq, t) in model.items()),
        key=lambda row: (row[1], row[2]),
    )


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_pending_and_flush_orders_match_explicit_sorts(ops):
    buffer = UpdateBuffer()
    model = {}  # oid -> (seq, t) of its newest put
    seq = 0
    for op, oid, t in ops:
        if op <= 1:
            seq += 1
            buffer.put(oid, None if op else (0.0, 0.0), (float(oid), t), t)
            model[oid] = (seq, t)
        elif op == 2:
            buffer.drop(oid)
            model.pop(oid, None)
        elif op in (3, 4):
            sink = BatchSink(fail=op == 4)
            expected = t_seq_order(model)
            try:
                buffer.flush(sink)
            except Fault:
                assert op == 4
            else:
                if op == 4:
                    assert not expected  # an empty buffer never calls it
                else:
                    model.clear()
            assert sink.batches == ([expected] if expected else [])
        else:
            index = FragileIndex(budget=oid % 4)
            expected = t_seq_order(model)
            try:
                buffer.flush(index)
            except Fault:
                pass
            applied = [row[0] for row in expected[: len(index.applied)]]
            assert index.applied == applied
            for done in applied:
                del model[done]
        pending = [(u.oid, u.seq, u.t) for u in buffer.iter_pending()]
        assert pending == seq_order(model)
