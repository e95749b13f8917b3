"""Integration tests for the serving daemon: disconnects, backpressure,
replica staleness, crash recovery, graceful shutdown.

Each test boots a real daemon (``ServerThread`` on a background event loop,
ephemeral port) and talks to it over TCP with the blocking client.
"""

import math
import struct
import threading
import time

import pytest

from repro.core.geometry import Rect
from repro.durability import DurabilityManager, recover
from repro.durability.faults import FaultInjector, InjectedCrash
from repro.health import verify_index
from repro.serve import EngineService, ServeClient, ServeConfig, ServerThread
from repro.serve.protocol import CODEC_JSON
from repro.storage import Pager
from repro.storage.iostats import IOCategory
from repro.workload import IndexKind, make_index

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))


def _positions(n=20):
    return {oid: (float(oid * 4 % 97), float(oid * 7 % 89)) for oid in range(n)}


def _service(durability=None, kind=IndexKind.LAZY, positions=None):
    pager = Pager()
    index = make_index(kind, pager, DOMAIN)
    service = EngineService(index, pager, kind, DOMAIN, durability=durability)
    service.load(positions if positions is not None else _positions(), now=0.0)
    return service


def _boot(service, **config):
    daemon = ServerThread(service, ServeConfig(**config))
    host, port = daemon.start()
    return daemon, host, port


def _full_sweep(client):
    matches = client.range((0.0, 0.0), (100.0, 100.0), fresh=True)["matches"]
    return {int(oid): (pos[0], pos[1]) for oid, pos in matches}


# -- happy path + graceful shutdown ------------------------------------------


def test_updates_queries_and_graceful_shutdown():
    service = _service()
    daemon, host, port = _boot(service, refresh_interval=0.05)
    ledger = dict(_positions())
    try:
        with ServeClient(host, port) as client:
            response = client.update(3, (50.0, 50.0), 1.0)
            assert response["ok"] and response["seq"] == 1
            ledger[3] = (50.0, 50.0)
            response = client.batch_update(
                [(100, 10.0, 10.0, 1.1), (3, 51.0, 51.0, 1.2)]
            )
            assert response["accepted"] == 2 and response["seq"] == 3
            ledger[100] = (10.0, 10.0)
            ledger[3] = (51.0, 51.0)
            # Fresh read = read-your-writes: the drain happens first.
            assert _full_sweep(client) == ledger
            neighbors = client.knn((51.0, 51.0), k=1, fresh=True)["neighbors"]
            assert neighbors[0][1] == 3
            stats = client.stats()
            assert stats["service"]["acked"] == 3
            assert client.shutdown()["acked"] == 3
        daemon.join()
        assert daemon.error is None
        assert service.applied == 3
        assert verify_index(service.index).ok
    finally:
        daemon.shutdown()


def test_bad_requests_do_not_kill_the_daemon():
    service = _service()
    daemon, host, port = _boot(service)
    try:
        with ServeClient(host, port) as client:
            assert client.request("update", oid=1)["code"] == "BAD_REQUEST"
            # A point the index cannot hold is refused before it is acked.
            for bad in ([math.nan, 1.0], [1.0, math.inf], [10**400, 1.0]):
                response = client.request("update", oid=1, point=bad, t=0.4)
                assert response["code"] == "BAD_REQUEST"
            bad_batch = [[1, 2.0, 2.0, 0.4], [2, -math.inf, 2.0, 0.4]]
            response = client.request("batch_update", updates=bad_batch)
            assert response["code"] == "BAD_REQUEST"
            assert service.acked == 0
            assert client.request("batch_update")["code"] == "BAD_REQUEST"
            assert (
                client.request("range", rect=[[5, 5], [1, 1]])["code"]
                == "BAD_REQUEST"
            )
            assert client.request("knn", point=[1, 1], k=0)["code"] == "BAD_REQUEST"
            assert client.request("frobnicate")["code"] == "UNSUPPORTED"
            # Without --wal-dir there is nothing to checkpoint.
            assert client.request("checkpoint")["code"] == "UNSUPPORTED"
            assert client.update(1, (2.0, 2.0), 0.5)["ok"]
        assert daemon.error is None
    finally:
        daemon.shutdown()


# -- client disconnect mid-frame ---------------------------------------------


def test_client_disconnect_mid_batch_leaves_daemon_serving():
    service = _service()
    daemon, host, port = _boot(service)
    try:
        victim = ServeClient(host, port)
        # A frame whose prefix promises 4096 bytes but delivers 10, then the
        # client dies.  Nothing was acked for it.
        victim.send_raw(struct.pack("!IB", 4096, CODEC_JSON) + b'{"op":"upd')
        victim.close()
        with ServeClient(host, port) as client:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                stats = client.stats()
                if stats["metrics"]["counters"].get("serve.conn.broken"):
                    break
                time.sleep(0.02)
            assert stats["metrics"]["counters"]["serve.conn.broken"] >= 1
            assert stats["service"]["acked"] == 0  # the torn frame acked nothing
            assert client.update(1, (9.0, 9.0), 0.5)["ok"]
            assert _full_sweep(client)[1] == (9.0, 9.0)
        assert daemon.error is None
    finally:
        daemon.shutdown()


def test_frame_with_a_non_json_tag_drops_only_that_connection():
    service = _service()
    daemon, host, port = _boot(service)
    try:
        payload = b'{"op":"update","oid":1,"point":[9.0,9.0],"t":0.5}'
        with ServeClient(host, port) as victim:
            victim.send_raw(struct.pack("!IB", len(payload), ord("M")) + payload)
            with pytest.raises(ConnectionError):
                victim.request("stats")
        with ServeClient(host, port) as client:
            stats = client.stats()
            assert stats["metrics"]["counters"]["serve.conn.broken"] >= 1
            assert stats["service"]["acked"] == 0
        assert daemon.error is None
    finally:
        daemon.shutdown()


# -- slow-consumer backpressure ----------------------------------------------


def test_backpressure_sheds_writes_but_replica_reads_proceed():
    service = _service()
    slow_apply = service.apply

    def throttled(batch):
        time.sleep(0.1 * len(batch))
        return slow_apply(batch)

    service.apply = throttled
    daemon, host, port = _boot(
        service, queue_depth=4, write_batch=1, replicas=1, refresh_interval=5.0
    )
    try:
        with ServeClient(host, port) as client:
            rejects = []
            for i in range(8):
                response = client.update(i, (1.0 + i, 1.0), 0.5)
                if not response.get("ok"):
                    rejects.append(response)
            # The bounded queue, not the client, absorbs the overload.
            assert rejects, "queue bound never pushed back"
            for response in rejects:
                assert response["code"] == "RETRY_AFTER"
                assert response["retry_after"] > 0.0
            # A replica read returns while the writer is still backlogged:
            # reads never wait on the writer past the queue bound.
            t0 = time.monotonic()
            response = client.range((0.0, 0.0), (100.0, 100.0))
            elapsed = time.monotonic() - t0
            assert response["ok"] and response["staleness"] is not None
            assert elapsed < 0.4, f"replica read waited on the writer: {elapsed}"
            # Fresh read drains: every accepted write lands.
            sweep = _full_sweep(client)
            accepted = 8 - len(rejects)
            landed = sum(
                1 for oid in range(8) if sweep[oid] == (1.0 + oid, 1.0)
            )
            assert landed == accepted
        assert daemon.error is None
    finally:
        daemon.shutdown()


# -- replica staleness --------------------------------------------------------


def test_replica_staleness_bounded_by_refresh_interval():
    service = _service()
    refresh = 0.1
    daemon, host, port = _boot(service, replicas=2, refresh_interval=refresh)
    try:
        with ServeClient(host, port) as client:
            for i in range(5):
                assert client.update(i, (42.0 + i, 42.0), 1.0 + i)["ok"]
            deadline = time.monotonic() + 5.0
            staleness = None
            while time.monotonic() < deadline:
                staleness = client.range((0.0, 0.0), (100.0, 100.0))["staleness"]
                if staleness["lag_ops"] == 0:
                    break
                time.sleep(refresh / 2)
            # Once the stream quiesces the replicas converge within one
            # refresh interval: no lag, and the snapshot age stays bounded.
            assert staleness is not None and staleness["lag_ops"] == 0
            assert staleness["seq"] == 5
            fresh_age = client.range((0.0, 0.0), (100.0, 100.0))["staleness"]["age_s"]
            assert fresh_age < refresh * 10 + 1.0
            # And the replica actually serves the updated positions.
            matches = client.range((41.5, 41.5), (47.5, 42.5))["matches"]
            assert {int(m[0]) for m in matches} == set(range(5))
    finally:
        daemon.shutdown()


# -- the writer's batch ---------------------------------------------------------


@pytest.mark.parametrize("kind", [IndexKind.LAZY, IndexKind.ALPHA])
def test_uncoalesced_writer_batch_lands_on_the_ack_ledger(kind):
    """The writer hands ``apply`` its queue as acked: an id may repeat, and
    an insert may be followed by a move of the same id, in one batch."""
    service = _service(kind=kind)
    batch = [
        service.ack_update(3, (50.0, 50.0), 1.0),
        service.ack_update(4, (96.0, 3.0), 2.0),
        service.ack_update(3, (12.5, 80.0), 3.0),  # same id twice: last wins
        service.ack_update(99, (10.0, 10.0), 4.0),  # a new id ...
        service.ack_update(99, (90.0, 5.0), 5.0),  # ... moved before it lands
    ]
    assert batch[3][1] is None and batch[4][1] == (10.0, 10.0)
    assert service.apply(batch) == len(batch)
    assert service.applied == service.acked == 5
    assert dict(service.query_range(DOMAIN.lo, DOMAIN.hi)) == service.positions
    assert service.positions[3] == (12.5, 80.0) and service.positions[99] == (90.0, 5.0)
    assert len(service.index) == 21
    assert verify_index(service.index).ok


@pytest.mark.parametrize("target", ["hit", "escape"])
def test_writer_batch_of_one_charges_what_update_does(target):
    service = _service()
    twin = _service()
    old = service.positions[7]
    # Its own position is inside its leaf's MBR; the far corner is outside
    # every leaf of this load.
    new = old if target == "hit" else (99.9, 99.9)
    batched = service.store.stats.live(IOCategory.UPDATE)
    assert service.apply([service.ack_update(7, new, 1.0)]) == 1
    with twin.store.stats.category(IOCategory.UPDATE):
        twin.index.update(7, old, new, now=1.0)
    direct = twin.store.stats.live(IOCategory.UPDATE)
    if target == "hit":
        # Bucket read, leaf read and write: what ``update`` pays.
        assert (batched.reads, batched.writes) == (direct.reads, direct.writes)
        assert (batched.reads, batched.writes) == (2, 1)
        assert service.index.lazy_hits == 1
    else:
        # ``update`` reads the lone leaf again to re-insert (its bucket it
        # holds from the lookup) and writes the leaf twice; a batch reads
        # each page once and writes each once.
        assert service.index.tree.height == 1
        assert (direct.reads, direct.writes) == (3, 3)
        assert (batched.reads, batched.writes) == (2, 2)
        assert batched.reads <= direct.reads and batched.writes <= direct.writes
        assert service.index.relocations == 1
    assert dict(service.query_range(DOMAIN.lo, DOMAIN.hi)) == service.positions


# -- crash recovery -----------------------------------------------------------


def test_injected_crash_recovers_exactly_the_acked_prefix(tmp_path):
    wal_dir = str(tmp_path / "wal")
    durability = DurabilityManager(
        wal_dir, sync="always", fault=FaultInjector(crash_on_append=3)
    )
    positions = _positions(6)
    service = _service(durability=durability, positions=positions)
    daemon, host, port = _boot(service)
    acked = dict(positions)
    crashed = False
    try:
        with ServeClient(host, port) as client:
            for i in range(6):
                point = (60.0 + i, 60.0)
                try:
                    response = client.update(i, point, 2.0 + i)
                except Exception:
                    crashed = True  # daemon died mid-request: no ack, no entry
                    break
                if response.get("ok"):
                    acked[i] = point
                else:
                    crashed = True
                    break
        daemon.join()
        assert crashed, "fault injector never fired"
        assert isinstance(daemon.error, InjectedCrash)
        assert len(acked) - len(positions) < 6 or any(
            acked[i] != positions[i] for i in positions
        )
    finally:
        daemon.shutdown()
    # Restart from the WAL: the recovered index holds exactly what was
    # acked -- the baseline checkpoint plus every acked update, nothing of
    # the op that crashed.
    recovered, report = recover(wal_dir, repair=True, verify=True)
    assert report.verify_ok
    got = {
        int(oid): (pos[0], pos[1])
        for oid, pos in recovered.range_search(DOMAIN)
    }
    assert got == acked
    assert verify_index(recovered).ok


def test_graceful_shutdown_checkpoint_makes_wal_replay_empty(tmp_path):
    wal_dir = str(tmp_path / "wal")
    service = _service(durability=DurabilityManager(wal_dir, sync="always"))
    daemon, host, port = _boot(service)
    ledger = dict(_positions())
    try:
        with ServeClient(host, port) as client:
            for i in range(4):
                assert client.update(i, (70.0 + i, 70.0), 3.0 + i)["ok"]
                ledger[i] = (70.0 + i, 70.0)
            info = client.checkpoint()
            assert info["covered_acked"] == 4
            client.shutdown()
        daemon.join()
        assert daemon.error is None
    finally:
        daemon.shutdown()
    recovered, report = recover(wal_dir, verify=True)
    assert report.verify_ok
    # The final checkpoint covers everything: replay has nothing to redo.
    assert report.records_replayed == 0
    got = {
        int(oid): (pos[0], pos[1])
        for oid, pos in recovered.range_search(DOMAIN)
    }
    assert got == ledger


def test_checkpoint_waits_for_acked_equals_applied_under_write_load(tmp_path):
    """The checkpoint op must only run once acked == applied: a racing
    handler in the ready-queue gap after queue.join() must not get an
    acked-but-unapplied record covered (and truncated) by the checkpoint."""
    wal_dir = str(tmp_path / "wal")
    service = _service(durability=DurabilityManager(wal_dir, sync="always"))
    slow_apply = service.apply

    def throttled(batch):
        time.sleep(0.005)
        return slow_apply(batch)

    service.apply = throttled
    real_checkpoint = service.checkpoint
    seen = []

    def observing_checkpoint():
        seen.append((service.acked, service.applied))
        return real_checkpoint()

    service.checkpoint = observing_checkpoint
    daemon, host, port = _boot(service, write_batch=2)
    stop = threading.Event()

    def hammer(base):
        with ServeClient(host, port) as c:
            i = 0
            while not stop.is_set():
                c.update(base + i % 10, (1.0 + i % 50, 2.0), 1.0 + i)
                i += 1

    writers = [
        threading.Thread(target=hammer, args=(base,), daemon=True)
        for base in (0, 100)
    ]
    for w in writers:
        w.start()
    try:
        with ServeClient(host, port) as client:
            for _ in range(5):
                info = client.checkpoint()
                assert info["ok"]
        stop.set()
        for w in writers:
            w.join(10.0)
        assert daemon.error is None
        # The forced checkpoints (the load()-time baseline bypasses the op)
        # all ran at a provable quiescent point.
        assert seen, "checkpoint op never reached the service"
        for acked, applied in seen:
            assert acked == applied
    finally:
        stop.set()
        daemon.shutdown()


def test_oversize_batch_is_rejected_not_livelocked():
    service = _service()
    daemon, host, port = _boot(service, queue_depth=4)
    try:
        with ServeClient(host, port) as client:
            updates = [(i, 1.0 + i, 1.0, 0.5) for i in range(5)]
            # Larger than the queue bound could ever hold: a RETRY_AFTER
            # here would make a compliant client retry forever.
            response = client.batch_update(updates)
            assert response["code"] == "BAD_REQUEST"
            assert client.batch_update(updates[:4])["accepted"] == 4
        assert daemon.error is None
    finally:
        daemon.shutdown()


def test_unknown_ops_do_not_grow_the_metrics_registry():
    service = _service()
    daemon, host, port = _boot(service)
    try:
        with ServeClient(host, port) as client:
            for i in range(5):
                assert client.request(f"frobnicate_{i}")["code"] == "UNSUPPORTED"
            values = client.stats()["metrics"]["values"]
        op_metrics = [k for k in values if k.startswith("serve.op.")]
        assert "serve.op.unknown.latency_s" in op_metrics
        assert not any("frobnicate" in k for k in op_metrics)
    finally:
        daemon.shutdown()


# -- batch-path teardown (lifecycle) ------------------------------------------


class _FakeDurability:
    attached = True

    def __init__(self):
        self.checkpoints = 0
        self.closed = False

    def checkpoint(self):
        self.checkpoints += 1

    def close(self):
        self.closed = True


def test_teardown_skips_checkpoint_when_flush_fails():
    from repro.serve.lifecycle import teardown_run

    class BadBuffer:
        def __len__(self):
            return 3

        def flush(self, index, reason):
            raise RuntimeError("disk gone")

    durability = _FakeDurability()
    actions = teardown_run(
        index=object(), buffer=BadBuffer(), durability=durability
    )
    # The buffered records were WAL-logged/acked but never applied: a
    # checkpoint would cover+truncate them out of existence.  The tail
    # must survive for recovery; closing the segments is still fine.
    assert durability.checkpoints == 0
    assert durability.closed
    assert any("flush failed" in a for a in actions)


def test_teardown_checkpoints_after_successful_flush():
    from repro.serve.lifecycle import teardown_run

    class GoodBuffer:
        def __len__(self):
            return 2

        def flush(self, index, reason):
            pass

    durability = _FakeDurability()
    actions = teardown_run(
        index=object(), buffer=GoodBuffer(), durability=durability
    )
    assert durability.checkpoints == 1
    assert "flushed buffer" in actions and "checkpointed" in actions


# -- admission control over the wire -----------------------------------------


def test_admission_rate_limits_over_the_wire():
    service = _service()
    daemon, host, port = _boot(service, rate=5.0, burst=3.0)
    try:
        with ServeClient(host, port) as client:
            outcomes = [
                client.update(i, (5.0, 5.0 + i), 0.5) for i in range(10)
            ]
        admitted = [r for r in outcomes if r.get("ok")]
        rejected = [r for r in outcomes if r.get("code") == "RETRY_AFTER"]
        assert len(admitted) >= 3  # the burst
        assert rejected, "token bucket never shed load"
        for response in rejected:
            assert response["retry_after"] > 0.0
        assert daemon.error is None
    finally:
        daemon.shutdown()


def test_shutting_down_daemon_rejects_new_writes():
    service = _service()
    daemon, host, port = _boot(service)
    try:
        with ServeClient(host, port) as c1, ServeClient(host, port) as c2:
            assert c1.update(1, (8.0, 8.0), 0.5)["ok"]
            c1.shutdown()
            # The drain has begun: a racing writer gets a clean refusal,
            # not a hang or a half-acked write.
            response = None
            try:
                response = c2.request(
                    "update", oid=2, point=[9.0, 9.0], t=0.6
                )
            except Exception:
                pass  # connection already torn down: equally acceptable
            if response is not None and not response.get("ok"):
                assert response["code"] in ("SHUTTING_DOWN", "RETRY_AFTER")
        daemon.join()
        assert daemon.error is None
    finally:
        daemon.shutdown()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
