"""Import path for the benchmark's own tests: ``python3 -m pytest perfbench/tests``."""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
