"""End-to-end benchmark: six workloads over the replay and serve paths.

``python -m benchmarks.e2e`` (or ``python3 benchmarks/e2e/run.py``, the form
``BENCHMARK.json`` names) runs the workloads, checks every output against a
brute-force oracle, and prints each metric by name with its unit.  See
``README.md`` in this directory for the glossary and the layer budget.

Nothing here is imported by the program under test; every number is taken
by timing calls into ``repro``'s public functions from the outside.
"""

import sys
from pathlib import Path

#: The checkout root (``benchmarks/e2e`` sits two levels below it).
ROOT = Path(__file__).resolve().parents[2]
#: The program under test runs from source, like the repo's other benches.
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
