"""Unit tests for the serve wire protocol, admission control, and loadgen
math -- everything below the daemon itself."""

import math

import pytest

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.loadgen import latency_summary, percentile, split_ops
from repro.serve.protocol import (
    CODEC_JSON,
    MAX_FRAME,
    PREFIX_SIZE,
    ProtocolError,
    decode_payload,
    pack_frame,
    unpack_prefix,
)

# -- framing ------------------------------------------------------------------


def test_json_frame_round_trips():
    message = {"op": "update", "oid": 7, "point": [1.5, 2.5], "t": 0.25}
    frame = pack_frame(message)
    length, tag = unpack_prefix(frame[:PREFIX_SIZE])
    assert tag == CODEC_JSON
    assert length == len(frame) - PREFIX_SIZE
    assert decode_payload(frame[PREFIX_SIZE:], tag) == message


def test_unknown_codec_rejected():
    # JSON is the one codec: a well-formed payload under any other tag is
    # a protocol error.
    for tag in (ord("M"), 0x7F):
        with pytest.raises(ProtocolError):
            decode_payload(b"{}", tag)


def test_oversize_prefix_rejected():
    import struct

    prefix = struct.pack("!IB", MAX_FRAME + 1, CODEC_JSON)
    with pytest.raises(ProtocolError):
        unpack_prefix(prefix)


def test_garbage_and_non_mapping_payloads_rejected():
    with pytest.raises(ProtocolError):
        decode_payload(b"\xff\x00 not json", CODEC_JSON)
    with pytest.raises(ProtocolError):
        decode_payload(b"[1,2,3]", CODEC_JSON)


# -- token bucket / admission -------------------------------------------------


def test_token_bucket_spends_and_refills():
    bucket = TokenBucket(rate=10.0, burst=5.0, now=0.0)
    for _ in range(5):
        assert bucket.try_acquire(1.0, 0.0) == 0.0
    wait = bucket.try_acquire(1.0, 0.0)
    assert wait == pytest.approx(0.1)  # 1 token at 10/s
    # Half a second refills 5 tokens but the burst caps at 5.
    assert bucket.try_acquire(5.0, 0.5) == 0.0
    assert bucket.try_acquire(1.0, 0.5) > 0.0


def test_admission_disabled_admits_everything():
    controller = AdmissionController(rate=0.0)
    for _ in range(100):
        admitted, wait = controller.admit("c1", 1.0)
        assert admitted and wait == 0.0
    assert controller.rejected == 0


def test_admission_per_client_isolation():
    clock = [0.0]
    controller = AdmissionController(rate=5.0, burst=2.0, clock=lambda: clock[0])
    assert controller.admit("a", 2.0) == (True, 0.0)
    admitted, wait = controller.admit("a", 1.0)
    assert not admitted and wait > 0.0
    # Client b has its own bucket: a's exhaustion does not starve it.
    assert controller.admit("b", 2.0) == (True, 0.0)
    clock[0] = 1.0  # 5 tokens refilled, capped at burst 2
    assert controller.admit("a", 2.0) == (True, 0.0)
    controller.forget("a")
    assert controller.to_dict()["clients"] == 1


# -- loadgen math -------------------------------------------------------------


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.50) == 50.0
    assert percentile(values, 0.99) == 99.0
    assert percentile(values, 1.0) == 100.0
    assert percentile([7.0], 0.99) == 7.0
    assert math.isnan(percentile([], 0.5))


def test_latency_summary_units_are_milliseconds():
    summary = latency_summary([0.001, 0.002, 0.003])
    assert summary["count"] == 3
    assert summary["p50_ms"] == pytest.approx(2.0)
    assert summary["max_ms"] == pytest.approx(3.0)
    assert latency_summary([]) == {"count": 0}


def test_split_ops_partitions_updates_by_oid():
    ops = [
        ("update", oid, 0.0, 0.0, float(t))
        for t, oid in enumerate([1, 2, 3, 1, 2, 1])
    ] + [("range", 0.0, 0.0, 1.0, 1.0, False)] * 4
    slices = split_ops(ops, 2)
    assert sum(len(s) for s in slices) == len(ops)
    for n, chunk in enumerate(slices):
        for op in chunk:
            if op[0] == "update":
                assert op[1] % 2 == n
    # Per-object order is preserved inside the owning slice.
    times_of_1 = [op[4] for op in slices[1] if op[0] == "update" and op[1] == 1]
    assert times_of_1 == sorted(times_of_1)
    # Queries spread round-robin: both slices got some.
    assert all(any(op[0] == "range" for op in chunk) for chunk in slices)
    with pytest.raises(ValueError):
        split_ops(ops, 0)
