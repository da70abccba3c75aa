"""Make the benchmark modules and the ncdef sources importable.

    python3 -m pytest benchmarks/pipeline/tests
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parents[1]
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
