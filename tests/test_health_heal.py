"""The self-healing wrapper: rebuild lifecycle, fallback, driver wiring,
and the end-to-end drift -> rebuild -> cutover acceptance run."""

from __future__ import annotations

import random

from repro.citysim.trace import TraceRecord
from repro.core.ctrtree import CTRTree
from repro.core.geometry import Rect
from repro.engine import FlushPolicy, UpdateBuffer, make_index
from repro.health import (
    DriftMonitor,
    DriftThresholds,
    HealPolicy,
    HealthState,
    RebuildPhase,
    SelfHealingIndex,
    verify_index,
)
from repro.health.verify import VerifyReport
from repro.storage.pager import Pager
from repro.workload import SimulationDriver
from tests.conftest import assert_verified

DOMAIN = Rect((0.0, 0.0), (100.0, 100.0))


def _wrapper(kind="lazy", **policy_kw):
    pager = Pager()
    inner = make_index(kind, pager, DOMAIN)
    policy = HealPolicy(rebuild_batch=8, cooldown_updates=0, **policy_kw)
    return SelfHealingIndex(inner, kind, DOMAIN, policy=policy), pager


def _drive_to_idle(wrapper, positions, rng, t0=1000.0):
    """Keep applying live updates until the rebuild machine finishes."""
    t = t0
    steps = 0
    while wrapper.phase != RebuildPhase.IDLE:
        oid = rng.choice(list(positions))
        point = (rng.uniform(0, 100), rng.uniform(0, 100))
        wrapper.update(oid, positions[oid], point, now=t)
        positions[oid] = point
        t += 1.0
        steps += 1
        assert steps < 10_000, "rebuild never converged"
    return t


def test_wrapper_delegates_spatial_surface(rng):
    wrapper, pager = _wrapper()
    assert wrapper.pager is pager
    assert wrapper.snapshot_target is wrapper.inner
    wrapper.insert(1, (10.0, 10.0), now=0.0)
    wrapper.insert(2, (20.0, 20.0), now=1.0)
    assert len(wrapper) == 2
    assert {oid for oid, _ in wrapper.range_search(DOMAIN)} == {1, 2}
    wrapper.update(1, (10.0, 10.0), (15.0, 15.0), now=2.0)
    assert wrapper.delete(2) is True
    assert wrapper.delete(2) is False
    assert len(wrapper) == 1
    assert_verified(wrapper)
    assert wrapper.health_state == HealthState.HEALTHY


def test_manual_rebuild_runs_all_phases_and_cuts_over(rng):
    wrapper, _ = _wrapper()
    positions = {}
    for oid in range(40):
        point = (rng.uniform(0, 100), rng.uniform(0, 100))
        wrapper.insert(oid, point, now=float(oid))
        positions[oid] = point
    old_inner = wrapper.inner
    assert wrapper.request_rebuild() is True
    assert wrapper.request_rebuild() is False  # one at a time
    _drive_to_idle(wrapper, positions, rng)
    assert wrapper.cutovers == 1 and wrapper.rebuilds_failed == 0
    assert wrapper.inner is not old_inner
    assert len(wrapper) == len(positions)
    # No acknowledged update lost: the cutover index serves every object
    # at its latest acknowledged position.
    served = dict(wrapper.range_search(DOMAIN))
    assert served == {oid: tuple(p) for oid, p in positions.items()}
    assert verify_index(wrapper).ok


def test_rebuild_to_ct_kind_re_mines_trails(rng):
    wrapper, _ = _wrapper(trail_window=8)
    positions = {}
    for oid in range(30):
        point = (rng.uniform(0, 100), rng.uniform(0, 100))
        wrapper.insert(oid, point, now=float(oid))
        positions[oid] = point
    t = 50.0
    for _ in range(3):  # give every trail >= 2 samples
        for oid in range(30):
            point = (rng.uniform(0, 100), rng.uniform(0, 100))
            wrapper.update(oid, positions[oid], point, now=t)
            positions[oid] = point
            t += 0.25
    assert wrapper.request_rebuild("ct") is True
    _drive_to_idle(wrapper, positions, rng, t0=t)
    assert wrapper.cutovers == 1
    assert wrapper.kind == "ct"
    assert wrapper.base_kind == "lazy"  # automatic rebuilds still target it
    assert verify_index(wrapper).ok


def test_verify_failure_falls_back_to_lazy(rng, monkeypatch):
    real_verify = verify_index

    def failing_for_ct(index):
        if isinstance(index, CTRTree):
            report = VerifyReport(kind="ct")
            report.add("structure", "ct", "synthetic failure")
            return report
        return real_verify(index)

    monkeypatch.setattr("repro.health.heal.verify_index", failing_for_ct)
    wrapper, _ = _wrapper()
    positions = {}
    for oid in range(20):
        point = (rng.uniform(0, 100), rng.uniform(0, 100))
        wrapper.insert(oid, point, now=float(oid))
        positions[oid] = point
    assert wrapper.request_rebuild("ct") is True
    _drive_to_idle(wrapper, positions, rng)
    assert wrapper.rebuilds_failed == 1
    assert wrapper.fallbacks == 1
    assert wrapper.cutovers == 1
    assert wrapper.kind == "lazy"
    assert "shadow failed verification" in wrapper.last_error
    served = dict(wrapper.range_search(DOMAIN))
    assert served == {oid: tuple(p) for oid, p in positions.items()}


def test_failed_rebuild_respects_cooldown(rng, monkeypatch):
    def always_failing(index, *, kind=None):
        report = VerifyReport(kind=kind or "?")
        report.add("structure", "x", "always bad")
        return report

    monkeypatch.setattr("repro.health.heal.verify_index", always_failing)
    pager = Pager()
    inner = make_index("lazy", pager, DOMAIN, max_entries=8)
    wrapper = SelfHealingIndex(
        inner, "lazy", DOMAIN,
        policy=HealPolicy(
            rebuild_batch=64, cooldown_updates=50, fallback_kind=None
        ),
        monitor=DriftMonitor(
            window=5, thresholds=DriftThresholds(confirm_windows=1),
            ewma_alpha=1.0,
        ),
    )

    def corner(far):
        """A point in the unit box at the domain's far or near corner."""
        return tuple(99.0 * far + rng.uniform(0, 1) for _ in range(2))

    # The objects start split between two opposite corners: the first split
    # leaves one leaf in each corner.
    positions = {}
    for oid in range(10):
        point = corner(oid % 2)
        wrapper.insert(oid, point, now=float(oid))
        positions[oid] = point
    # Each update teleports an object to the other corner, alternately from
    # each, so both corners keep 4 to 6 objects: one leaf each, which never
    # splits or empties.  Every update leaves its leaf's MBR, so none is
    # lazy -> the monitor degrades fast and keeps trying; the cooldown must
    # bound the number of attempts.
    t = 100.0
    for step in range(200):
        far = step % 2
        oid = rng.choice([o for o, p in positions.items() if (p[0] > 50.0) == far])
        point = corner(1 - far)
        wrapper.update(oid, positions[oid], point, now=t)
        positions[oid] = point
        t += 1.0
    assert inner.lazy_hits == 0
    assert wrapper.rebuilds_failed >= 1
    # 200 updates at a 50-update cooldown: a handful of attempts, not one
    # per update.
    assert wrapper.rebuilds_started <= 6


def test_deletes_during_rebuild_are_honoured(rng):
    wrapper, _ = _wrapper()
    positions = {}
    for oid in range(40):
        point = (rng.uniform(0, 100), rng.uniform(0, 100))
        wrapper.insert(oid, point, now=float(oid))
        positions[oid] = point
    assert wrapper.request_rebuild() is True
    t = 100.0
    doomed = list(range(0, 40, 5))
    for oid in doomed:
        wrapper.delete(oid, now=t)
        del positions[oid]
        t += 1.0
    _drive_to_idle(wrapper, positions, rng, t0=t)
    assert wrapper.cutovers == 1
    served = dict(wrapper.range_search(DOMAIN))
    assert served == {oid: tuple(p) for oid, p in positions.items()}


def test_cutover_flags_durability_checkpoint(tmp_path, rng):
    from repro.durability import DurabilityManager, recover

    pager = Pager()
    inner = make_index("lazy", pager, DOMAIN)
    manager = DurabilityManager(tmp_path, sync="always")
    wrapper = SelfHealingIndex(
        inner, "lazy", DOMAIN,
        policy=HealPolicy(rebuild_batch=8, cooldown_updates=0),
        durability=manager,
    )
    manager.attach(wrapper)
    positions = {}
    for oid in range(25):
        point = (rng.uniform(0, 100), rng.uniform(0, 100))
        wrapper.insert(oid, point, now=float(oid))
        positions[oid] = point
    manager.checkpoint()  # baseline
    assert wrapper.checkpoint_due is False
    assert wrapper.request_rebuild("ct") is True
    _drive_to_idle(wrapper, positions, rng)
    assert wrapper.cutovers == 1
    assert wrapper.checkpoint_due is True
    assert wrapper.checkpoint_if_due() is True
    assert wrapper.checkpoint_due is False
    assert wrapper.checkpoint_if_due() is False  # one-shot
    manager.close()
    # The checkpoint captured the *serving* structure (snapshot_target),
    # so recovery comes back as the post-cutover kind and verifies.
    recovered, report = recover(tmp_path)
    assert report.kind == "ct"
    assert report.verify_ok is True
    assert len(recovered) == len(positions)


def _records(positions, rng, n, t0, spots=None, jitter=1.0, interval=1.0):
    """A synthetic update stream: random teleports, or dwell around spots."""
    records = []
    t = t0
    oids = list(positions)
    for i in range(n):
        oid = oids[i % len(oids)]
        if spots is None:
            point = (rng.uniform(0, 100), rng.uniform(0, 100))
        else:
            cx, cy = spots[oid % len(spots)]
            point = (
                min(max(cx + rng.gauss(0, jitter), 0.0), 100.0),
                min(max(cy + rng.gauss(0, jitter), 0.0), 100.0),
            )
        records.append(TraceRecord(oid, point, t))
        positions[oid] = point
        t += interval
    return records, t


def test_driver_tags_flush_reasons(rng):
    wrapper, pager = _wrapper()
    buffer = UpdateBuffer(FlushPolicy(batch_size=8))
    driver = SimulationDriver(wrapper, pager, "lazy", update_buffer=buffer)
    assert driver._healing is wrapper
    positions = {oid: (50.0, 50.0) for oid in range(20)}
    driver.load(positions)
    records, _ = _records(positions, rng, 100, t0=10.0)
    driver.run(records)
    reasons = buffer.stats.reasons
    assert reasons.get("size", 0) >= 1
    assert reasons.get("final", 0) <= 1
    assert sum(reasons.values()) == buffer.stats.flushes


def test_critical_transition_force_drains_buffer(rng):
    pager = Pager()
    inner = make_index("lazy", pager, DOMAIN)
    monitor = DriftMonitor(
        window=10,
        thresholds=DriftThresholds(
            degraded_enter=0.95, degraded_exit=0.97,
            critical_enter=0.9, critical_exit=0.93, confirm_windows=1,
        ),
        ewma_alpha=1.0,
    )
    wrapper = SelfHealingIndex(
        inner, "lazy", DOMAIN, monitor=monitor,
        policy=HealPolicy(rebuild_batch=8, cooldown_updates=10_000),
    )
    # Batches of 30: the monitor (window 10) goes CRITICAL during the
    # first flush; the very next buffered update must then be force-
    # drained instead of waiting out a full batch.
    buffer = UpdateBuffer(FlushPolicy(batch_size=30))
    driver = SimulationDriver(wrapper, pager, "lazy", update_buffer=buffer)
    positions = {oid: (50.0, 50.0) for oid in range(30)}
    driver.load(positions)
    records, _ = _records(positions, rng, 120, t0=10.0)  # teleports: not lazy
    driver.run(records)
    assert monitor.state == HealthState.CRITICAL
    assert buffer.stats.reasons.get("critical", 0) >= 1


def test_acceptance_drift_rebuild_cutover_lowers_update_io(rng):
    """The ISSUE's acceptance run, distilled: a CT-R-tree mined for one
    movement pattern, a mid-run shift to another, self-healing on.  The
    run must (a) complete >= 1 shadow rebuild + cutover, (b) leave a
    verifying index, (c) spend less update I/O per op after the cutover
    than in its DEGRADED windows."""
    from .conftest import dwell_trail

    old_spots = [(15.0, 15.0), (85.0, 20.0), (20.0, 80.0)]
    new_spots = [(65.0, 65.0), (35.0, 60.0), (70.0, 30.0)]
    histories = {
        oid: dwell_trail(rng, old_spots, dwell_reports=20)
        for oid in range(30)
    }
    pager = Pager()
    inner = make_index(
        "ct", pager, DOMAIN, histories=histories, query_rate=1.0
    )
    monitor = DriftMonitor(
        window=50,
        thresholds=DriftThresholds(confirm_windows=1),
        ewma_alpha=0.5,
    )
    wrapper = SelfHealingIndex(
        inner, "ct", DOMAIN, monitor=monitor,
        policy=HealPolicy(
            trail_window=16, rebuild_batch=16, cooldown_updates=100,
        ),
    )
    driver = SimulationDriver(wrapper, pager, "ct")
    positions = {}
    t = 3000.0
    for oid in range(30):
        cx, cy = old_spots[oid % len(old_spots)]
        positions[oid] = (cx + rng.gauss(0, 1), cy + rng.gauss(0, 1))
    driver.load(positions, now=t)

    # Phase A: the mined pattern -- dwell around the old spots.
    records, t = _records(
        positions, rng, 300, t0=t + 20.0, spots=old_spots, interval=20.0
    )
    driver.run(records)
    assert monitor.state == HealthState.HEALTHY

    # Phase B: the workload shifts -- everyone dwells around new spots the
    # mined qs-regions know nothing about.
    records, t = _records(
        positions, rng, 1500, t0=t, spots=new_spots, interval=20.0
    )
    driver.run(records)

    assert wrapper.cutovers >= 1, wrapper.health_dict()
    report = verify_index(wrapper)
    assert report.ok, report.summary()
    served = dict(wrapper.range_search(DOMAIN))
    assert served == {oid: tuple(p) for oid, p in positions.items()}

    degraded = [
        w.ios_per_update for w in monitor.windows
        if w.state != HealthState.HEALTHY
    ]
    assert degraded, "the shift never degraded the index"
    # Post-cutover steady state: the last windows of the run (the monitor
    # was reset at cutover, so late windows are post-cutover by design).
    settled = [w.ios_per_update for w in monitor.windows[-3:]]
    assert sum(settled) / len(settled) < sum(degraded) / len(degraded)
