"""Entry point for ``python3 benchmarks/e2e/run.py`` (see ``cli``).

Run as a script the package is not importable by name yet, so put the
checkout root on the path first.  In a directory that holds the benchmark
but not the program there is nothing to measure: exit non-zero, print no
result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT))
    from benchmarks.e2e.cli import main

    sys.exit(main())
