"""The pacer charges a stall to the ops queued behind it.

The stub server answers at once except for one request that takes 100 ms.
At 1000 ops/s a hundred later ops fall due during the stall.  Timed from
their due times they show it; timed the closed-loop way (send to reply)
they would each read as instant.
"""

import time

from benchmarks.e2e.pacer import run_paced

RATE = 1000.0
STALL_AT = 50
STALL_S = 0.100


def stub_server(op):
    if op == STALL_AT:
        time.sleep(STALL_S)


def test_stall_is_charged_to_the_ops_behind_it():
    ops = list(range(400))
    run = run_paced(stub_server, ops, RATE, time.perf_counter())

    behind = range(STALL_AT + 1, STALL_AT + 80)
    # Open loop: the ops that fell due during the stall waited for it ...
    waited = [run.latencies_s[k] for k in behind if run.latencies_s[k] > 0.010]
    assert len(waited) >= 50
    assert run.latencies_s[STALL_AT + 1] > 0.080
    # ... although the server answered each of them at once, which is all
    # a closed loop would have seen.
    assert max(run.service_s[k] for k in behind) < 0.005
    # The generator's own lateness is reported, not hidden.
    assert run.late_share > 0.1
    assert run.max_lateness_s > 0.080
    # Once the backlog drains the schedule is met again.
    assert max(run.latencies_s[-50:]) < 0.010


def test_an_unstalled_schedule_runs_on_time():
    run = run_paced(lambda op: None, list(range(200)), RATE, time.perf_counter())
    assert run.late_share < 0.05
    assert len(run.latencies_s) == 200
