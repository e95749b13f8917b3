"""Self-tests of the benchmark harness (not of the program under test).

Run from the repository root::

    python -m pytest benchmarks/e2e/tests -q

They use the 300-object ``smoke`` size with sub-second windows, which is
never used for a reported number.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[3]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import spec  # noqa: E402
from benchmarks.e2e.runner import run_workload  # noqa: E402
from benchmarks.e2e.inputs import SIZES  # noqa: E402

SMOKE_SECONDS = 0.3


@pytest.fixture(scope="session")
def smoke_outcomes():
    """Every workload run once at smoke size, traced pass included."""
    return {
        name: run_workload(name, 0, SMOKE_SECONDS, SIZES["smoke"], traced=True)
        for name in spec.WORKLOAD_NAMES
    }
