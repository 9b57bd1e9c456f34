"""Puts the benchmark's modules and the package sources on the import path.

Run: python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
