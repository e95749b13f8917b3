"""The one command: run workloads, check outputs, print every metric.

Driver form (what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints a readable report and, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics`` --
every end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Without ``--workload`` all six run in turn; ``--aa`` runs
two full sets back to back and compares them against the bounds.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List, Optional

from . import aa, spec
from .inputs import SIZES
from .outcome import Outcome
from .runner import report, run_workload


def driver_metrics(outcome: Outcome, traced: bool) -> Dict[str, Dict[str, object]]:
    """The ``metrics`` object of the result line.

    Every per-layer metric is present on every workload; one the workload's
    path never touches reads 0.
    """
    if traced:
        return {
            name: {"value": outcome.layers.get(name, 0.0), "unit": unit}
            for name, unit, _better in spec.PER_LAYER
        }
    return {
        m.name: {"value": outcome.end_to_end[m.name], "unit": m.unit}
        for m in spec.COMMON_END_TO_END
    }


def result_line(outcome: Outcome, traced: bool) -> str:
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": driver_metrics(outcome, traced),
        }
    )


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES, default=None,
                        help="run one workload (default: all six in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives every generated input (default: 0)")
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="measured window per pass (default: %(default)g)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0,
                        help="also run the traced pass and report per-layer metrics")
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="smoke is for the self-tests, never for reported numbers")
    parser.add_argument("--aa", action="store_true",
                        help="run two full sets and compare them against the bounds")
    parser.add_argument("--out", type=Path, default=None,
                        help="with --aa: write the report (refused on a noisy host)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    size = SIZES[args.size]
    traced = bool(args.trace)
    if args.aa:
        return aa.main(args.seed, args.seconds, size, traced, args.out)
    names = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, size, traced)
        print(report(outcome, args.seed, args.seconds, traced))
        print(result_line(outcome, traced), flush=True)
    return 0

