"""Convert pre-schema BENCH_*.json artifacts to the versioned schema.

Usage::

    PYTHONPATH=src python scripts/convert_bench_artifacts.py [paths...]

With no arguments, converts the three standing artifacts under
``benchmarks/`` in place.  Already-valid artifacts are left untouched.
"""

from __future__ import annotations

import os
import sys

from repro.bench.convert import main

_BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")

_DEFAULTS = [os.path.join(_BENCH_DIR, name)
             for name in ("BENCH_server.json", "BENCH_durability.json",
                          "BENCH_tiles.json")]

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or _DEFAULTS))
