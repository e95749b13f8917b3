"""A/A: two full sets of the same code must agree within the bounds.

The bounds in :mod:`spec` only mean something if two measurements of
*unchanged* code stay inside them.  ``--aa`` takes two sets back to back --
a set is every workload at ``SEEDS_PER_SET`` consecutive seeds, each metric
the median over them, the way the bounds are applied to medians over seeds
-- prints the relative difference of every (end-to-end metric, workload)
pair beside its bound, and fails on any excess.  Page-I/O and space figures
on the in-process workloads are exact counts over a fixed prefix, so for
them any difference at all is a failure.

The host is recorded with the numbers, and a host already busier than it
has cores gets its numbers marked ``noisy`` and not written anywhere.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Dict, List, Optional

from . import ROOT, spec
from .inputs import Size
from .outcome import Outcome
from .runner import report, run_workload

#: Exact counts on the in-process workloads: bit-equal or broken.
EXACT = ("ios_per_update", "ios_per_query", "pages_per_kobj")
#: Seeds per workload in one set; a single 6 s run is one sample of a tail.
SEEDS_PER_SET = 3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def host() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "commit": _commit(),
        "loadavg_1m": os.getloadavg()[0],
    }


def median_outcome(outcomes: List[Outcome]) -> Outcome:
    """One outcome per workload and set: every end-to-end metric the median
    over the set's seeds, counts summed; layers come from the first seed
    (the only one traced)."""
    first = outcomes[0]
    return Outcome(
        workload=first.workload,
        end_to_end={
            name: statistics.median(o.end_to_end[name] for o in outcomes)
            for name in first.end_to_end
        },
        layers=first.layers,
        samples=first.samples,
        attempted=sum(o.attempted for o in outcomes),
        failed=sum(o.failed for o in outcomes),
        problems=[p for o in outcomes for p in o.problems],
        notes=[n for o in outcomes for n in o.notes],
    )


def compare(first: Outcome, second: Outcome) -> List[Dict[str, object]]:
    """One row per end-to-end metric of a workload: both values, their
    relative difference, the bound, and whether the pair is within it."""
    rows = []
    for metric in spec.END_TO_END:
        if metric.name not in first.end_to_end:
            continue
        a, b = first.end_to_end[metric.name], second.end_to_end[metric.name]
        difference = abs(b - a) / abs(a) if a else abs(b - a)
        exact = metric.name in EXACT and first.workload in spec.REPLAY
        bound = 0.0 if exact else metric.bound
        rows.append(
            {
                "workload": first.workload,
                "metric": metric.name,
                "unit": metric.unit,
                "first": a,
                "second": b,
                "difference": difference,
                "bound": bound,
                "ok": difference <= bound,
            }
        )
    return rows


def main(seed: int, seconds: float, size: Size, traced: bool, out: Optional[Path]) -> int:
    before = host()
    noisy = before["loadavg_1m"] > before["nproc"]
    print(f"host before: {json.dumps(before)}")
    if noisy:
        print("NOISY: 1-min load average exceeds the core count; numbers are not kept")
    sets: List[List[Outcome]] = []
    for label in ("first", "second"):
        print(f"-- {label} set")
        outcomes = []
        for name in spec.WORKLOAD_NAMES:
            runs = []
            for offset in range(SEEDS_PER_SET):
                # One traced run per workload gives the set its budget.
                run = run_workload(
                    name, seed + offset, seconds, size, traced and offset == 0
                )
                print(report(run, seed + offset, seconds, traced and offset == 0))
                runs.append(run)
            outcomes.append(median_outcome(runs))
        sets.append(outcomes)
    after = host()
    print(f"host after: {json.dumps(after)}")

    rows = [row for a, b in zip(*sets) for row in compare(a, b)]
    print(f"{'workload':<22}{'metric':<18}{'first':>14}{'second':>14}{'diff':>9}{'bound':>8}")
    for row in rows:
        flag = "" if row["ok"] else "  EXCEEDS"
        print(
            f"{row['workload']:<22}{row['metric']:<18}{row['first']:>14.6g}"
            f"{row['second']:>14.6g}{row['difference']:>9.4f}{row['bound']:>8.2f}{flag}"
        )
    incorrect = [o.workload for outcomes in sets for o in outcomes if not o.correct]
    excess = [row for row in rows if not row["ok"]]
    print(
        f"A/A: {len(rows)} pairs, {len(excess)} beyond their bound, "
        f"{len(incorrect)} incorrect runs, host {'noisy' if noisy else 'quiet'}"
    )
    if out is not None:
        if noisy:
            print(f"refusing to write {out}: the host was noisy")
        else:
            document = {
                "host_before": before,
                "host_after": after,
                "seeds": list(range(seed, seed + SEEDS_PER_SET)),
                "seconds": seconds,
                "sets": [
                    {
                        o.workload: {
                            "end_to_end": o.end_to_end,
                            "per_layer": o.layers,
                            "samples": o.samples,
                            "attempted": o.attempted,
                            "failed": o.failed,
                        }
                        for o in outcomes
                    }
                    for outcomes in sets
                ],
                "comparison": rows,
            }
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {out}")
    return 1 if excess or incorrect or noisy else 0
