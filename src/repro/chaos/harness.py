"""The deterministic chaos harness: seeded faults vs. a live daemon.

``repro chaos --seed S`` replays a fault schedule derived entirely from the
seed against a *supervised* serving daemon under concurrent writers, then
audits the wreckage for the exactly-once invariants:

1. **No acked write lost** -- after the final recovery, every object's
   last definitively-acknowledged position is present in the index
   (the acked-prefix guarantee, end to end through every crash).
2. **No write double-applied** -- no ``(client, rid)`` idempotency stamp
   appears in the surviving WAL under two different sequence numbers, and
   no object appears twice in the recovered index.
3. **Structural integrity** -- recovery's ``verify_index`` fsck is clean.
4. **Bounded staleness** -- replica reads sampled during the run reported
   staleness within the configured bound.
5. **Service recovery** -- the supervisor restored readiness within its
   restart budget; each crash's MTTR is reported.

Faults come in three flavours, composed per profile:

* ``kill``    -- SIGKILL the daemon mid-workload (no drain, no final
  checkpoint; the WAL tail is whatever fsync got there first);
* ``network`` -- connection RSTs and stalled reads through the
  :class:`~repro.chaos.proxy.FaultProxy` the writers connect through;
* ``storage`` -- crash debris appended to the WAL tail between death and
  restart (torn partial frame, CRC-mismatched frame) via the supervisor's
  ``on_crash`` hook -- modelling what a dying process leaves past the
  fsynced prefix, never destroying acked bytes.

Writers resolve *ambiguous* writes (deadline expired, breaker open,
retries exhausted -- the ack may or may not have landed) the only correct
way: by re-driving the **same** ``(client, rid)`` stamp until a
definitive response arrives.  A ``deduped`` ack means the original
applied; a fresh ack means it never did.  Either way the write lands
exactly once, which is the tentpole claim this harness exists to check.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.geometry import Rect
from repro.durability import (
    WalOp,
    append_corrupt_frame,
    append_torn_frame,
    recover,
    scan_directory,
)
from repro.resilience import (
    BreakerOpen,
    DeadlineExceeded,
    ResilientServeClient,
    RetryPolicy,
    Supervisor,
    SupervisorPolicy,
    file_ready_check,
)
from repro.serve.protocol import (
    ERR_RETRY_AFTER,
    ERR_SHUTTING_DOWN,
    ServeClient,
    ServeError,
)

PROFILES = ("kill", "network", "storage", "mixed")


# -- the seeded fault timeline -------------------------------------------------


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: wait ``delay_s`` after the previous event, act.

    ``action`` is ``kill`` / ``reset`` / ``stall``; a kill may carry
    ``surgery`` (``torn_tail`` / ``crc_flip``) applied to the WAL tail by
    the supervisor's crash hook before the restart recovers through it.
    """

    action: str
    delay_s: float
    duration_s: float = 0.0
    surgery: Optional[str] = None
    nbytes: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "action": self.action,
            "delay_s": round(self.delay_s, 4),
            "duration_s": round(self.duration_s, 4),
            "surgery": self.surgery,
            "nbytes": self.nbytes,
        }

    def describe(self) -> str:
        if self.action == "stall":
            return f"stall({self.duration_s:.2f}s)@+{self.delay_s:.2f}s"
        if self.surgery:
            return f"kill+{self.surgery}@+{self.delay_s:.2f}s"
        return f"{self.action}@+{self.delay_s:.2f}s"


class ChaosSchedule:
    """The fault timeline of one run, derived entirely from the seed."""

    def __init__(
        self, events: List[ChaosEvent], *, seed: int, profile: str
    ) -> None:
        self.events = events
        self.seed = seed
        self.profile = profile

    @classmethod
    def generate(cls, seed: int, profile: str = "mixed") -> "ChaosSchedule":
        if profile not in PROFILES:
            raise ValueError(
                f"unknown chaos profile {profile!r}; choose from {PROFILES}"
            )
        rng = random.Random(seed)
        events: List[ChaosEvent] = []

        def kill(surgery: Optional[str] = None) -> ChaosEvent:
            return ChaosEvent(
                "kill",
                delay_s=rng.uniform(0.7, 1.4),
                surgery=surgery,
                nbytes=rng.randint(4, 24) if surgery == "torn_tail" else 0,
            )

        def reset() -> ChaosEvent:
            return ChaosEvent("reset", delay_s=rng.uniform(0.4, 1.0))

        def stall() -> ChaosEvent:
            return ChaosEvent(
                "stall",
                delay_s=rng.uniform(0.4, 1.0),
                duration_s=rng.uniform(0.3, 0.8),
            )

        if profile == "kill":
            events = [kill(), kill()]
        elif profile == "network":
            events = [reset(), stall(), reset()]
        elif profile == "storage":
            events = [kill("torn_tail"), kill("crc_flip")]
        else:  # mixed: one of everything
            events = [reset(), kill("torn_tail"), stall(), kill("crc_flip")]
        return cls(events, seed=seed, profile=profile)

    @property
    def kills(self) -> int:
        return sum(1 for e in self.events if e.action == "kill")

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "profile": self.profile,
            "events": [e.to_dict() for e in self.events],
        }

    def seed_line(self) -> str:
        faults = ", ".join(e.describe() for e in self.events) or "none"
        return (
            f"ChaosSchedule(seed={self.seed}, profile={self.profile!r}): "
            f"{faults}"
        )

    def __repr__(self) -> str:
        return self.seed_line()


# -- configuration -------------------------------------------------------------


@dataclass
class ChaosConfig:
    """Knobs of one chaos run (see the ``repro chaos`` command)."""

    run_dir: Path
    seed: int = 0
    profile: str = "mixed"
    writers: int = 3
    objects: int = 48
    min_ops: int = 150
    kind: str = "lazy"
    staleness_bound_s: float = 5.0
    settle_timeout_s: float = 45.0
    hard_timeout_s: float = 180.0
    refresh_interval: float = 0.1
    checkpoint_every: int = 200
    max_restarts: int = 8

    def __post_init__(self) -> None:
        self.run_dir = Path(self.run_dir)
        if self.writers < 1 or self.objects < self.writers:
            raise ValueError("need >= 1 writer and >= 1 object per writer")
        if self.min_ops < 1:
            raise ValueError("min_ops must be >= 1")


DOMAIN = Rect((0.0, 0.0), (1000.0, 1000.0))
_HISTORY = 8


# -- workload writers ----------------------------------------------------------


@dataclass
class _WriterResult:
    expected: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    ops: int = 0
    ambiguous: int = 0
    resolved_deduped: int = 0
    resolved_fresh: int = 0
    unresolved: int = 0
    timed_out: bool = False
    staleness_samples: List[float] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None


_RETRYABLE_CODES = (ERR_RETRY_AFTER, ERR_SHUTTING_DOWN, None)


def _settle(
    client: ResilientServeClient,
    fields: Dict[str, object],
    rid: int,
    timeout_s: float,
) -> Optional[Dict[str, object]]:
    """Resolve an ambiguous write by re-driving its original stamp."""
    t_end = time.monotonic() + timeout_s
    while time.monotonic() < t_end:
        try:
            return client.request(
                "update",
                idempotent=False,
                deadline_s=6.0,
                client=client.client_id,
                rid=rid,
                **fields,
            )
        except ServeError as exc:
            if exc.code not in _RETRYABLE_CODES:
                raise  # a non-retryable reject is a harness bug, not chaos
        except (DeadlineExceeded, BreakerOpen, OSError):
            pass
        time.sleep(0.25)
    return None


def _writer_main(
    idx: int,
    cfg: ChaosConfig,
    proxy_addr: Tuple[str, int],
    stop_event: threading.Event,
    result: _WriterResult,
    deadline: float,
) -> None:
    oids = [o for o in range(cfg.objects) if o % cfg.writers == idx]
    walk = random.Random(cfg.seed * 7919 + idx)
    client = ResilientServeClient(
        proxy_addr[0],
        proxy_addr[1],
        client_id=f"cw{idx}",
        timeout=3.0,
        policy=RetryPolicy(
            max_attempts=10,
            deadline_s=8.0,
            backoff_base=0.02,
            backoff_cap=0.4,
        ),
        rng=random.Random(cfg.seed * 104729 + idx),
    )
    # Staleness probes go through their own client so the write client's
    # ack counters stay a pure write ledger.
    reader = ResilientServeClient(
        proxy_addr[0],
        proxy_addr[1],
        client_id=f"cr{idx}",
        timeout=3.0,
        policy=RetryPolicy(max_attempts=2, deadline_s=4.0, backoff_cap=0.2),
        rng=random.Random(cfg.seed * 999331 + idx),
    )
    try:
        n = 0
        while not (stop_event.is_set() and n >= cfg.min_ops):
            if time.monotonic() > deadline:
                result.timed_out = True
                return
            oid = oids[n % len(oids)]
            pos = (walk.uniform(1.0, 999.0), walk.uniform(1.0, 999.0))
            t = 1000.0 + n * 0.01
            try:
                response = client.update(oid, pos, t, deadline_s=8.0)
            except ServeError as exc:
                if exc.code not in _RETRYABLE_CODES:
                    raise
                response = None
            except (DeadlineExceeded, BreakerOpen, OSError):
                response = None
            if response is None:
                # Ambiguous: the original may or may not have applied.
                # Only a same-stamp retry can say -- and either answer
                # leaves the write applied exactly once.
                result.ambiguous += 1
                response = _settle(
                    client,
                    {"oid": oid, "point": list(pos), "t": t},
                    client.last_rid,
                    cfg.settle_timeout_s,
                )
                if response is None:
                    result.unresolved += 1
                    continue  # fate unknown: this oid stays unasserted
                if response.get("deduped"):
                    result.resolved_deduped += 1
                else:
                    result.resolved_fresh += 1
            result.expected[oid] = pos
            result.ops += 1
            n += 1
            if n % 25 == 0:
                try:
                    reply = reader.range(
                        DOMAIN.lo, DOMAIN.hi, deadline_s=4.0
                    )
                    staleness = reply.get("staleness")
                    if staleness and staleness.get("age_s") is not None:
                        result.staleness_samples.append(
                            float(staleness["age_s"])
                        )
                except (ServeError, DeadlineExceeded, BreakerOpen, OSError):
                    pass  # reads are best-effort probes under chaos
    except Exception as exc:  # pragma: no cover - surfaced in the report
        result.error = f"{type(exc).__name__}: {exc}"
    finally:
        result.counters = dict(client.counters)
        client.close()
        reader.close()


# -- harness orchestration -----------------------------------------------------


def _generate_trace(cfg: ChaosConfig) -> Path:
    """A tiny deterministic citysim trace to bulk-load the daemon from."""
    from repro.citysim import City, CitySimulator
    from repro.core.params import SimulationParams

    path = cfg.run_dir / "trace.csv"
    if path.exists():
        return path
    city = City.generate(seed=cfg.seed, n_buildings=12)
    params = SimulationParams(
        n_objects=cfg.objects,
        update_rate=max(cfg.objects / 20.0, 1.0),
        n_history=_HISTORY,
        n_updates=2,
        n_warmup_max=5,
    )
    trace = CitySimulator(city, params, seed=cfg.seed + 1).run()
    trace.save(path)
    return path


def _daemon_argv(cfg: ChaosConfig, trace: Path, ready: Path, wal: Path):
    return [
        sys.executable,
        "-m",
        "repro",
        "serve",
        str(trace),
        "--history",
        str(_HISTORY),
        "--kind",
        str(cfg.kind),
        "--port",
        "0",
        "--ready-file",
        str(ready),
        "--wal-dir",
        str(wal),
        # Acked => fsynced is what makes "zero lost acked writes" a fair
        # demand of a SIGKILL; weaker policies bound loss differently.
        "--sync-policy",
        "always",
        "--refresh",
        str(cfg.refresh_interval),
        "--checkpoint-every",
        str(cfg.checkpoint_every),
        "--queue-depth",
        "256",
    ]


def _read_ready(ready: Path) -> Tuple[str, int]:
    doc = json.loads(ready.read_text(encoding="utf-8"))
    return str(doc["host"]), int(doc["port"])


def _scan_duplicate_stamps(wal_dir: Path) -> Dict[str, List[int]]:
    """(client, rid) stamps logged under >1 distinct seq = double-applies.

    Batch records legitimately share one stamp across consecutive seqs in
    one append run; the harness drives single updates only, so any repeat
    here is a real double-apply.
    """
    seen: Dict[Tuple[str, int], set] = {}
    for record in scan_directory(wal_dir).records:
        if record.op in WalOp.DATA and record.client is not None:
            seen.setdefault((record.client, record.rid), set()).add(record.seq)
    return {
        f"{client}:{rid}": sorted(seqs)
        for (client, rid), seqs in seen.items()
        if len(seqs) > 1
    }


def run_chaos(cfg: ChaosConfig) -> Dict[str, object]:
    """One full chaos run -> the JSON-safe report (``report["ok"]`` is the
    verdict).  Deterministic given the seed: the fault schedule, workload
    positions, and retry jitter streams all derive from it."""
    t_start = time.monotonic()
    cfg.run_dir.mkdir(parents=True, exist_ok=True)
    schedule = ChaosSchedule.generate(cfg.seed, cfg.profile)
    trace = _generate_trace(cfg)
    ready = cfg.run_dir / "ready.json"
    wal_dir = cfg.run_dir / "wal"
    daemon_log = open(cfg.run_dir / "daemon.log", "ab")
    argv = _daemon_argv(cfg, trace, ready, wal_dir)
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )

    pending_surgery: deque = deque()
    surgery_applied: List[str] = []

    def on_crash(_restart: int) -> List[str]:
        done: List[str] = []
        while pending_surgery:
            kind, nbytes = pending_surgery.popleft()
            try:
                if kind == "torn_tail":
                    path = append_torn_frame(wal_dir, nbytes)
                    done.append(f"torn_tail({nbytes}B) -> {path.name}")
                else:
                    path = append_corrupt_frame(wal_dir)
                    done.append(f"crc_flip -> {path.name}")
            except FileNotFoundError as exc:
                done.append(f"{kind} skipped: {exc}")
        surgery_applied.extend(done)
        return done

    supervisor = Supervisor(
        lambda: subprocess.Popen(
            argv, env=env, stdout=daemon_log, stderr=daemon_log
        ),
        ready_check=file_ready_check(ready),
        policy=SupervisorPolicy(
            max_restarts=cfg.max_restarts,
            backoff_base=0.1,
            backoff_cap=1.0,
            ready_timeout=60.0,
        ),
        on_crash=on_crash,
    )
    fault_counts = {"kills": 0, "resets": 0, "stalls": 0}
    stop_event = threading.Event()
    proxy = None
    sup_thread = None
    server_stats: Optional[Dict[str, object]] = None
    try:
        supervisor.start()

        from repro.chaos.proxy import FaultProxy

        proxy = FaultProxy(lambda: _read_ready(ready))
        proxy_addr = proxy.start()

        sup_thread = threading.Thread(
            target=supervisor.run, name="chaos-supervisor", daemon=True
        )
        sup_thread.start()

        results = [_WriterResult() for _ in range(cfg.writers)]
        deadline = time.monotonic() + cfg.hard_timeout_s
        writer_threads = [
            threading.Thread(
                target=_writer_main,
                args=(i, cfg, proxy_addr, stop_event, results[i], deadline),
                name=f"chaos-writer-{i}",
                daemon=True,
            )
            for i in range(cfg.writers)
        ]
        for thread in writer_threads:
            thread.start()

        # Replay the seeded fault timeline against the live system.
        for event in schedule.events:
            time.sleep(event.delay_s)
            if event.action == "kill":
                if event.surgery:
                    # Queued *before* the kill so the crash hook -- which
                    # runs between death and restart -- finds it.
                    pending_surgery.append((event.surgery, event.nbytes))
                pid = supervisor.child_pid
                if pid is not None:
                    try:
                        os.kill(pid, signal.SIGKILL)
                        fault_counts["kills"] += 1
                    except (OSError, ProcessLookupError):
                        pass
            elif event.action == "reset":
                proxy.reset_all()
                fault_counts["resets"] += 1
            elif event.action == "stall":
                proxy.stall(event.duration_s)
                fault_counts["stalls"] += 1
        time.sleep(0.5)  # let the last fault's recovery begin
        stop_event.set()

        for thread in writer_threads:
            thread.join(timeout=cfg.hard_timeout_s)

        # Best-effort server-side counter snapshot before the drain.
        try:
            with ServeClient(*_read_ready(ready), timeout=5.0) as probe:
                server_stats = probe.stats()
        except (OSError, ValueError, ServeError):
            server_stats = None
    finally:
        stop_event.set()
        supervisor.stop()
        if sup_thread is not None:
            sup_thread.join(timeout=60.0)
        if proxy is not None:
            proxy.stop()
        daemon_log.close()

    # -- post-mortem audit -------------------------------------------------
    duplicates = _scan_duplicate_stamps(wal_dir)
    index, recovery_report = recover(wal_dir)
    matches = index.range_search(DOMAIN)
    positions: Dict[int, Tuple[float, float]] = {}
    duplicate_objects = 0
    for oid, pos in matches:
        if oid in positions:
            duplicate_objects += 1
        positions[int(oid)] = (float(pos[0]), float(pos[1]))
    lost: List[Dict[str, object]] = []
    for result in results:
        for oid, expected in result.expected.items():
            got = positions.get(oid)
            if got is None or abs(got[0] - expected[0]) > 1e-9 or abs(
                got[1] - expected[1]
            ) > 1e-9:
                lost.append({"oid": oid, "expected": expected, "got": got})
    staleness_samples = [
        s for result in results for s in result.staleness_samples
    ]
    staleness_max = max(staleness_samples) if staleness_samples else None
    unresolved = sum(r.unresolved for r in results)
    timed_out = any(r.timed_out for r in results)
    writer_errors = [r.error for r in results if r.error]

    invariants = {
        "acked_writes_lost": len(lost),
        "double_applied_stamps": len(duplicates),
        "duplicate_objects": duplicate_objects,
        "unresolved_ambiguous": unresolved,
        "verify_ok": bool(recovery_report.verify_ok),
        "staleness_max_s": staleness_max,
        "staleness_bound_s": cfg.staleness_bound_s,
        "staleness_ok": (
            staleness_max is None or staleness_max <= cfg.staleness_bound_s
        ),
        "supervisor_recovered": not supervisor.exhausted,
    }
    ok = (
        not lost
        and not duplicates
        and duplicate_objects == 0
        and unresolved == 0
        and bool(recovery_report.verify_ok)
        and bool(invariants["staleness_ok"])
        and not supervisor.exhausted
        and not timed_out
        and not writer_errors
    )

    def _sum(key: str) -> int:
        return sum(int(r.counters.get(key, 0)) for r in results)

    report: Dict[str, object] = {
        "ok": ok,
        "seed": cfg.seed,
        "profile": cfg.profile,
        "seed_line": schedule.seed_line(),
        "schedule": schedule.to_dict(),
        "workload": {
            "writers": cfg.writers,
            "objects": cfg.objects,
            "min_ops": cfg.min_ops,
            "ops_acked": sum(r.ops for r in results),
            "acked_first_try": _sum("acked_first_try"),
            "acked_retried": _sum("acked_retried"),
            "dedup_acks": _sum("dedup_acks"),
            "rejects": _sum("rejects"),
            "transport_errors": _sum("transport_errors"),
            "reconnects": _sum("reconnects"),
            "ambiguous": sum(r.ambiguous for r in results),
            "resolved_deduped": sum(r.resolved_deduped for r in results),
            "resolved_fresh": sum(r.resolved_fresh for r in results),
            "unresolved": unresolved,
            "timed_out": timed_out,
            "errors": writer_errors,
        },
        "faults": dict(fault_counts),
        "surgery": list(surgery_applied),
        "proxy": dict(proxy.counters) if proxy is not None else {},
        "supervisor": supervisor.to_dict(),
        "mttr": {
            "mean_s": supervisor.to_dict()["mttr_mean_s"],
            "max_s": supervisor.to_dict()["mttr_max_s"],
        },
        "server_stats": (
            {"service": server_stats.get("service")}
            if isinstance(server_stats, dict)
            else None
        ),
        "recovery": recovery_report.to_dict(),
        "invariants": invariants,
        "duplicates": duplicates,
        "lost": lost[:20],
        "wall_s": time.monotonic() - t_start,
    }
    return report


def format_chaos_report(report: Dict[str, object]) -> str:
    """The human summary ``repro chaos`` prints."""
    work = report["workload"]
    inv = report["invariants"]
    mttr = report["mttr"]
    lines = [
        report["seed_line"],
        (
            f"workload: {work['ops_acked']} acked "
            f"({work['acked_first_try']} first-try, "
            f"{work['acked_retried']} retried, "
            f"{work['dedup_acks']} deduped), "
            f"{work['ambiguous']} ambiguous "
            f"({work['resolved_deduped']} were applied, "
            f"{work['resolved_fresh']} were not)"
        ),
        (
            f"faults:   {report['faults']['kills']} kills, "
            f"{report['faults']['resets']} resets, "
            f"{report['faults']['stalls']} stalls"
            + (
                f"; surgery: {', '.join(report['surgery'])}"
                if report["surgery"]
                else ""
            )
        ),
        (
            f"recovery: {report['supervisor']['restarts']} restarts, "
            f"MTTR mean "
            + (
                f"{mttr['mean_s']:.2f}s max {mttr['max_s']:.2f}s"
                if mttr["mean_s"] is not None
                else "n/a"
            )
        ),
        (
            f"invariants: lost={inv['acked_writes_lost']} "
            f"double-applied={inv['double_applied_stamps']} "
            f"dup-objects={inv['duplicate_objects']} "
            f"verify={'ok' if inv['verify_ok'] else 'FAIL'} "
            f"staleness="
            + (
                f"{inv['staleness_max_s']:.3f}s"
                if inv["staleness_max_s"] is not None
                else "n/a"
            )
            + f"/{inv['staleness_bound_s']:g}s"
        ),
        f"verdict:  {'OK' if report['ok'] else 'FAILED'}",
    ]
    return "\n".join(lines)
