"""Open-loop pacing: ops go out on a schedule, not when replies come back.

Independent clients do not wait for each other, so a stall in the server
delays every op that falls due during it.  A closed loop hides that (the
stalled client simply sends less); the pacer exposes it by fixing each op's
*due time* in advance and timing the op **from its due time**, whenever it
was actually sent.  How late the generator itself ran is reported beside
the latencies, never folded into them silently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

#: An op sent more than this long after its due time counts as late.
LATE_AFTER_S = 0.001


@dataclass
class PacedRun:
    """What one connection's schedule produced."""

    #: Reply time minus **due** time, per op, in schedule order.
    latencies_s: List[float] = field(default_factory=list)
    #: Reply time minus send time (what a closed loop would have reported).
    service_s: List[float] = field(default_factory=list)
    #: Send time minus due time, per op.
    lateness_s: List[float] = field(default_factory=list)
    finished_at: float = 0.0

    @property
    def late_share(self) -> float:
        late = sum(1 for lag in self.lateness_s if lag > LATE_AFTER_S)
        return late / len(self.lateness_s) if self.lateness_s else 0.0

    @property
    def max_lateness_s(self) -> float:
        return max(self.lateness_s, default=0.0)


def run_paced(
    send: Callable[[object], object],
    ops: Sequence[object],
    rate: float,
    start: float,
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> PacedRun:
    """Send ``ops[k]`` at ``start + k / rate`` over one blocking connection.

    The connection carries one request at a time, so an op whose
    predecessor is still in flight goes out late -- and is still timed from
    when it was due.  The generator sleeps until the next due time rather
    than spinning: on two cores a spinning client would take the CPU the
    daemon needs.
    """
    run = PacedRun()
    interval = 1.0 / rate
    for k, op in enumerate(ops):
        due = start + k * interval
        now = clock()
        if now < due:
            sleep(due - now)
        sent = clock()
        send(op)
        done = clock()
        run.lateness_s.append(sent - due)
        run.service_s.append(done - sent)
        run.latencies_s.append(done - due)
    run.finished_at = clock()
    return run
